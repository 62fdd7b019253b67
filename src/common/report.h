// The structured result layer of the scenario API: a Report is what every
// experiment produces — an ordered mix of free text and named tables plus
// headline scalar metrics and, for swept scenarios, one machine-readable
// record per sweep point — and it renders as fixed-width text tables
// (byte-compatible with the historical bench binaries), as CSV blocks, or as
// a JSON document (schema "zombieland.scenario.report/v1").
//
// All numeric cells go through the formatting helpers here (Num / Penalty /
// Int) so precision/width conventions cannot drift between experiments.
#ifndef ZOMBIELAND_SRC_COMMON_REPORT_H_
#define ZOMBIELAND_SRC_COMMON_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace zombie::report {

enum class Format { kTable = 0, kCsv, kJson };

std::string_view FormatName(Format format);
// Parses "table" / "csv" / "json" (case-sensitive, as typed on the CLI).
[[nodiscard]] Result<Format> ParseFormat(std::string_view name);

// printf into a std::string (the note/banner helper of the scenario ports).
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// One named table inside a report.
class ReportTable {
 public:
  ReportTable(std::string id, std::string title, std::vector<std::string> columns)
      : id_(std::move(id)), title_(std::move(title)), columns_(std::move(columns)) {}

  ReportTable& Row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  // Overwrites one cell of a pre-gridded table (see Report::AddSweepTable).
  void SetCell(std::size_t row, std::size_t column, std::string value);

  const std::string& id() const { return id_; }
  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string id_;
  std::string title_;  // printed verbatim (plus '\n') above the table, if any
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

class Report;

// One sweep point's structured result: the axis bindings that define the
// point, the metrics its run recorded, and its wall-clock cost.  Records are
// pre-sized in grid order by RunContext::ForEachSweepPoint and filled as
// points complete (possibly on worker threads — each point owns its slot),
// so the JSON "points" section is deterministic regardless of scheduling.
struct SweepPointRecord {
  // Axis name -> value, in axis order (rendered form, as on the CLI).
  std::vector<std::pair<std::string, std::string>> axes;
  // Per-point headline numbers (the sweep-resolved analogue of
  // Report::Metric), in insertion order.
  std::vector<std::pair<std::string, double>> metrics;
  // Wall-clock seconds spent running this point.  Only emitted in JSON when
  // point timings are enabled (--timings) so determinism gates stay byte
  // stable.
  double wall_seconds = 0.0;

  void Metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
  }
};

// The sweep-aware table section: a pivot grid pre-sized from a sweep's axes
// (one row per row-axis value, one value column per column-axis value or per
// measure), filled cell-by-cell as sweep points complete — in any order —
// and rendered exactly like a regular table.  This is how a swept scenario
// emits one consolidated table instead of N concatenated per-point ones.
// The handle addresses its table by index, so it stays valid across later
// Add* calls on the same report.
class SweepTable {
 public:
  // Sets the value cell at (row-axis index, column-axis index).  Column 0 of
  // the underlying table holds the row label; `column` here counts value
  // columns only.  Out-of-grid coordinates abort (a programming error).
  void Set(std::size_t row, std::size_t column, std::string value);

 private:
  friend class Report;
  SweepTable(Report& report, std::size_t table_index, std::size_t rows,
             std::size_t columns)
      : report_(&report), table_index_(table_index), rows_(rows), columns_(columns) {}

  Report* report_;
  std::size_t table_index_;
  std::size_t rows_;
  std::size_t columns_;
};

class Report {
 public:
  Report(std::string scenario, std::string title)
      : scenario_(std::move(scenario)), title_(std::move(title)) {}

  // Appends a verbatim text chunk.  In table mode the chunk is emitted
  // exactly as given (callers include their own newlines, like the printf
  // calls they replace); in JSON it becomes a trimmed "notes" entry.
  void Text(std::string text);

  // Appends a table.  The reference is stable until the next AddTable call.
  ReportTable& AddTable(std::string id, std::string title,
                        std::vector<std::string> columns);

  // Appends a pre-gridded sweep pivot table: header {row_header, columns...},
  // one row per entry of `row_labels` (cells start empty), filled through the
  // returned handle.  The handle stays valid until the next Add* call.
  SweepTable AddSweepTable(std::string id, std::string title, std::string row_header,
                           std::vector<std::string> row_labels,
                           std::vector<std::string> columns);

  // Records a headline scalar (JSON "metrics" object; invisible in table
  // mode, where the accompanying Text note carries the number).
  void Metric(std::string key, double value);

  // The per-point result records of a swept scenario (JSON "points" array;
  // invisible in table/CSV mode).  MutablePoints is the framework surface:
  // RunContext::ForEachSweepPoint sizes it in grid order and hands each
  // worker its own slot.
  std::vector<SweepPointRecord>& MutablePoints() { return points_; }
  const std::vector<SweepPointRecord>& points() const { return points_; }

  // Whether JSON emission includes each point's wall_seconds (--timings).
  void set_point_timings(bool enabled) { point_timings_ = enabled; }
  bool point_timings() const { return point_timings_; }

  std::string Render(Format format) const;
  std::string RenderTableText() const;  // byte-compatible printf stream
  std::string RenderCsv() const;
  std::string RenderJson() const;

  const std::string& scenario() const { return scenario_; }
  const std::string& title() const { return title_; }
  const std::vector<ReportTable>& tables() const { return tables_; }

  void set_smoke(bool smoke) { smoke_ = smoke; }
  bool smoke() const { return smoke_; }

  // -------------------------------------------------------------------------
  // The shared numeric-cell formatters (single source of truth).
  // -------------------------------------------------------------------------
  // Fixed-point double: Num(12.345, 2) == "12.35".
  static std::string Num(double v, int precision = 2);
  // Penalty percentage in the paper's style: "8.00%", "12.3%", "9k%", "inf".
  static std::string Penalty(double percent);
  // Decimal integer (the std::to_string cells of the historical benches).
  static std::string Int(std::uint64_t v);

 private:
  friend class SweepTable;

  // Items interleave text chunks and tables in insertion order.
  struct Item {
    enum class Kind { kText, kTable } kind;
    std::size_t index;  // into texts_ or tables_
  };

  std::string scenario_;
  std::string title_;
  bool smoke_ = false;
  bool point_timings_ = false;
  std::vector<Item> items_;
  std::vector<std::string> texts_;
  std::vector<ReportTable> tables_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<SweepPointRecord> points_;
};

// JSON syntax check used by the driver's --format=json self-check and the
// tests: the status of ParseJson(text).
[[nodiscard]] Status ValidateJson(std::string_view text);

// Schema check for a rendered report document: syntactically valid JSON that
// contains the required top-level keys ("schema", "scenario", "tables").
[[nodiscard]] Status ValidateReportJson(std::string_view text);

// JSON string escaping (exposed for the driver's aggregate documents).
std::string JsonEscape(std::string_view text);

// A finite double as its shortest decimal that parses back to the same
// value (non-finite renders as "null" — JSON has no inf/nan).  Every number
// in a rendered report goes through this, so equal values are byte-equal
// across runs and cross-run diffs stay noise-free.
std::string JsonNumber(double v);

// ---------------------------------------------------------------------------
// Minimal JSON document model, for tooling that reads report documents back
// (`zombieland diff`).  Objects keep member order; lookups are linear — the
// documents are small.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull = 0, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
};

// Full parse into the document model; kInvalidArgument with an offset on the
// first syntax error.  A repeated key within one object, a number outside
// double range (1e999) and a leading zero (01) are errors too.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

}  // namespace zombie::report

#endif  // ZOMBIELAND_SRC_COMMON_REPORT_H_
