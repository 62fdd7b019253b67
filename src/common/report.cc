#include "src/common/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"

namespace zombie::report {

std::string_view FormatName(Format format) {
  switch (format) {
    case Format::kTable:
      return "table";
    case Format::kCsv:
      return "csv";
    case Format::kJson:
      return "json";
  }
  return "unknown";
}

Result<Format> ParseFormat(std::string_view name) {
  if (name == "table") {
    return Format::kTable;
  }
  if (name == "csv") {
    return Format::kCsv;
  }
  if (name == "json") {
    return Format::kJson;
  }
  return Result<Format>(ErrorCode::kInvalidArgument,
                        "unknown format '" + std::string(name) +
                            "' (expected table, csv or json)");
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

void Report::Text(std::string text) {
  items_.push_back({Item::Kind::kText, texts_.size()});
  texts_.push_back(std::move(text));
}

ReportTable& Report::AddTable(std::string id, std::string title,
                              std::vector<std::string> columns) {
  items_.push_back({Item::Kind::kTable, tables_.size()});
  tables_.emplace_back(std::move(id), std::move(title), std::move(columns));
  return tables_.back();
}

void ReportTable::SetCell(std::size_t row, std::size_t column, std::string value) {
  if (row >= rows_.size() || column >= rows_[row].size()) {
    FatalMessage("report", "SetCell(" + std::to_string(row) + ", " + std::to_string(column) +
                               ") outside the " + std::to_string(rows_.size()) + "x" +
                               std::to_string(columns_.size()) + " grid of '" + id_ + "'");
  }
  rows_[row][column] = std::move(value);
}

SweepTable Report::AddSweepTable(std::string id, std::string title,
                                 std::string row_header,
                                 std::vector<std::string> row_labels,
                                 std::vector<std::string> columns) {
  std::vector<std::string> header;
  header.reserve(columns.size() + 1);
  header.push_back(std::move(row_header));
  for (std::string& column : columns) {
    header.push_back(std::move(column));
  }
  const std::size_t value_columns = header.size() - 1;
  ReportTable& table = AddTable(std::move(id), std::move(title), std::move(header));
  for (std::string& label : row_labels) {
    std::vector<std::string> row(value_columns + 1);
    row[0] = std::move(label);
    table.Row(std::move(row));
  }
  return SweepTable(*this, tables_.size() - 1, row_labels.size(), value_columns);
}

void SweepTable::Set(std::size_t row, std::size_t column, std::string value) {
  if (row >= rows_ || column >= columns_) {
    FatalMessage("report", "sweep cell (" + std::to_string(row) + ", " + std::to_string(column) +
                               ") outside the " + std::to_string(rows_) + "x" +
                               std::to_string(columns_) + " grid");
  }
  report_->tables_[table_index_].SetCell(row, column + 1, std::move(value));
}

void Report::Metric(std::string key, double value) {
  metrics_.emplace_back(std::move(key), value);
}

std::string Report::Render(Format format) const {
  switch (format) {
    case Format::kTable:
      return RenderTableText();
    case Format::kCsv:
      return RenderCsv();
    case Format::kJson:
      return RenderJson();
  }
  return {};
}

namespace {

// One table as fixed-width text: columns fitted to their widest cell, two
// spaces between them, a dashed rule under the header, no trailing blanks.
std::string RenderTextTable(const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') {
      line.pop_back();
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header);
  std::size_t total = 0;
  for (auto w : widths) {
    total += w + 2;
  }
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows) {
    out += render_row(row);
  }
  return out;
}

}  // namespace

std::string Report::RenderTableText() const {
  std::string out;
  for (const Item& item : items_) {
    if (item.kind == Item::Kind::kText) {
      out += texts_[item.index];
      continue;
    }
    const ReportTable& table = tables_[item.index];
    if (!table.title().empty()) {
      out += table.title();
      out += '\n';
    }
    out += RenderTextTable(table.columns(), table.rows());
  }
  return out;
}

namespace {

std::string CsvCell(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos || cell.empty();
  if (!needs_quotes) {
    return cell;
  }
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

void CsvRow(std::string& out, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += CsvCell(cells[i]);
  }
  out += '\n';
}

// Trims whitespace; used for JSON notes and CSV comments.
std::string Trimmed(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\n\r");
  if (begin == std::string::npos) {
    return {};
  }
  std::size_t end = text.find_last_not_of(" \t\n\r");
  return text.substr(begin, end - begin + 1);
}

std::string SingleLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return text;
}

}  // namespace

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";  // JSON has no inf/nan
  }
  char buf[64];
  // Integral values (fault counts, percents) render in plain form — %g's
  // fewest-digits pick would turn 5060 into "5.06e+03".  Below 2^53 every
  // integral double is exact, so this always round-trips.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0 /* 2^53 */) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest round-trip: the first precision whose rendering parses back to
  // the same double.  17 significant digits always round-trips, so the loop
  // cannot fall through.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double parsed = 0.0;
    if (std::sscanf(buf, "%lf", &parsed) == 1 && parsed == v) {
      break;
    }
  }
  return buf;
}

std::string Report::RenderCsv() const {
  std::string out = "# scenario: " + scenario_ + "\n";
  if (smoke_) {
    out += "# smoke: true\n";
  }
  bool first_block = true;
  for (const Item& item : items_) {
    if (item.kind == Item::Kind::kText) {
      const std::string note = Trimmed(texts_[item.index]);
      if (!note.empty()) {
        out += "# note: " + SingleLine(note) + "\n";
      }
      continue;
    }
    const ReportTable& table = tables_[item.index];
    if (!first_block) {
      out += '\n';
    }
    first_block = false;
    out += "# table: " + table.id() + "\n";
    CsvRow(out, table.columns());
    for (const auto& row : table.rows()) {
      CsvRow(out, row);
    }
  }
  return out;
}

namespace {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Write(const JsonValue& value, int indent, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += JsonNumber(value.number);
      return;
    case JsonValue::Kind::kString:
      out += '"' + JsonEscape(value.string) + '"';
      return;
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      break;
  }
  const bool object = value.is_object();
  const std::size_t size = object ? value.members.size() : value.items.size();
  // An object, or an array holding a container, writes one entry per line.
  const bool one_line =
      !object && std::all_of(value.items.begin(), value.items.end(), [](const JsonValue& item) {
        return !item.is_array() && !item.is_object();
      });
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < size; ++i) {
    if (i != 0) {
      out += one_line ? ", " : ",";
    }
    if (!one_line) {
      out += '\n' + std::string(static_cast<std::size_t>(indent + 2), ' ');
    }
    if (object) {
      out += '"' + JsonEscape(value.members[i].first) + "\": ";
    }
    Write(object ? value.members[i].second : value.items[i], indent + 2, out);
  }
  if (!one_line && size > 0) {
    out += '\n' + std::string(static_cast<std::size_t>(indent), ' ');
  }
  out += object ? '}' : ']';
}

template <typename T>
JsonValue ObjectOf(const std::vector<std::pair<std::string, T>>& members) {
  JsonValue object = JsonValue::Object();
  for (const auto& [key, value] : members) {
    object.Add(key, value);
  }
  return object;
}

JsonValue StringArray(const std::vector<std::string>& strings) {
  JsonValue array = JsonValue::Array();
  for (const std::string& s : strings) {
    array.items.emplace_back(s);
  }
  return array;
}

}  // namespace

std::string WriteJson(const JsonValue& value) {
  std::string out;
  Write(value, 0, out);
  out += '\n';
  return out;
}

JsonValue Report::ToJson() const {
  JsonValue tables = JsonValue::Array();
  for (const ReportTable& table : tables_) {
    JsonValue rows = JsonValue::Array();
    for (const auto& row : table.rows()) {
      rows.items.push_back(StringArray(row));
    }
    tables.items.push_back(JsonValue::Object()
                               .Add("id", table.id())
                               .Add("title", Trimmed(table.title()))
                               .Add("columns", StringArray(table.columns()))
                               .Add("rows", std::move(rows)));
  }

  JsonValue doc = JsonValue::Object()
                      .Add("schema", "zombieland.scenario.report/v1")
                      .Add("scenario", scenario_)
                      .Add("title", title_)
                      .Add("smoke", smoke_)
                      .Add("tables", std::move(tables))
                      .Add("metrics", ObjectOf(metrics_));

  // Per-point records, grid order (swept scenarios only).  wall_seconds is
  // emitted only under --timings so determinism gates compare byte-stable
  // documents; it is rounded to the millisecond.
  if (!points_.empty()) {
    JsonValue points = JsonValue::Array();
    for (const SweepPointRecord& point : points_) {
      JsonValue record = JsonValue::Object()
                             .Add("axes", ObjectOf(point.axes))
                             .Add("metrics", ObjectOf(point.metrics));
      if (point_timings_) {
        record.Add("wall_seconds", std::round(point.wall_seconds * 1000) / 1000);
      }
      points.items.push_back(std::move(record));
    }
    doc.Add("points", std::move(points));
  }

  JsonValue notes = JsonValue::Array();
  for (const Item& item : items_) {
    if (item.kind != Item::Kind::kText) {
      continue;
    }
    std::string note = Trimmed(texts_[item.index]);
    if (!note.empty()) {
      notes.items.emplace_back(std::move(note));
    }
  }
  doc.Add("notes", std::move(notes));
  return doc;
}

std::string Report::RenderJson() const { return WriteJson(ToJson()); }

std::string Report::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Report::Penalty(double percent) {
  if (!std::isfinite(percent) || percent > 1e6) {
    return "inf";
  }
  if (percent >= 1000.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fk%%", percent / 1000.0);
    return buf;
  }
  char buf[32];
  if (percent >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f%%", percent);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%%", percent);
  }
  return buf;
}

std::string Report::Int(std::uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader.  It is stricter than RFC 8259 where
// a looser reading could silently change a gate: a repeated object key (a
// tolerance file's second "default" would otherwise win), a number beyond
// double range and a leading zero are all errors.
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue value;
    if (Status status = Value(value); !status.ok()) {
      return Result<JsonValue>(status);
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Result<JsonValue>(Error("trailing content after top-level value"));
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status(ErrorCode::kInvalidArgument,
                  "JSON error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Value(JsonValue& out) {
    if (++depth_ > 64) {
      return Error("nesting too deep");
    }
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth_};
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return String(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return Literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return Literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return Number(out);
    }
  }

  Status Object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) {
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      if (Status status = String(key); !status.ok()) {
        return status;
      }
      if (out.Find(key) != nullptr) {
        return Error("duplicate object key \"" + key + "\"");
      }
      SkipWs();
      if (!Eat(':')) {
        return Error("expected ':' after object key");
      }
      SkipWs();
      JsonValue value;
      if (Status status = Value(value); !status.ok()) {
        return status;
      }
      out.members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Eat('}')) {
        return Status::Ok();
      }
      if (!Eat(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  Status Array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) {
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (Status status = Value(value); !status.ok()) {
        return status;
      }
      out.items.push_back(std::move(value));
      SkipWs();
      if (Eat(']')) {
        return Status::Ok();
      }
      if (!Eat(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Status String(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              ++pos_;
              if (pos_ >= text_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
                return Error("bad \\u escape");
              }
              const char h = text_[pos_];
              code = code * 16 +
                     static_cast<unsigned>(h <= '9' ? h - '0'
                                                    : (h | 0x20) - 'a' + 10);
            }
            // The reports only escape control characters; decode BMP code
            // points as UTF-8 (surrogate pairs are out of scope).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("bad escape character");
        }
      } else {
        out += c;
      }
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("bad literal");
    }
    pos_ += word.size();
    return Status::Ok();
  }

  Status Number(JsonValue& out) {
    const std::size_t start = pos_;
    Eat('-');
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("expected value");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      return Error("leading zero in number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Eat('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out.kind = JsonValue::Kind::kNumber;
    const std::string owned(text_.substr(start, pos_ - start));
    out.number = std::strtod(owned.c_str(), nullptr);
    if (!std::isfinite(out.number)) {
      return Error("number out of range");
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonReader(text).Parse();
}

Status ValidateReportJson(std::string_view text) {
  auto doc = ParseJson(text);
  if (!doc.ok()) {
    return doc.status();
  }
  const JsonValue* schema = doc.value().Find("schema");
  const JsonValue* scenario = doc.value().Find("scenario");
  const JsonValue* tables = doc.value().Find("tables");
  if (schema == nullptr || !schema->is_string() || scenario == nullptr ||
      !scenario->is_string() || tables == nullptr || !tables->is_array()) {
    return Status(ErrorCode::kInvalidArgument,
                  "report JSON needs top-level string \"schema\" and \"scenario\" members "
                  "and a \"tables\" array");
  }
  return Status::Ok();
}

}  // namespace zombie::report
