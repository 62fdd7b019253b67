#include "src/scenario/diff.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace zombie::scenario {

namespace {

using report::JsonNumber;
using report::JsonValue;
using report::Report;
using report::StrPrintf;

constexpr std::string_view kToleranceSchema = "zombieland.diff.tolerances/v1";

// One report's comparable content: scenario-level metrics plus per-point
// metrics keyed by the point's axis bindings.
struct PointData {
  std::string key;  // "axis=value,axis=value", grid order
  std::vector<std::pair<std::string, double>> metrics;
};

struct ScenarioData {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<PointData> points;
};

// One parsed document: its scenarios plus extraction-time problems
// (duplicate names, repeated point keys, unkeyable points) — each of which is
// a gate violation, because the diff cannot vouch for what it could not pair.
struct ExtractedDoc {
  std::vector<ScenarioData> scenarios;
  std::vector<std::string> notes;
};

std::vector<std::pair<std::string, double>> MetricsOf(const JsonValue* object) {
  std::vector<std::pair<std::string, double>> out;
  if (object == nullptr || !object->is_object()) {
    return out;
  }
  for (const auto& [key, value] : object->members) {
    if (value.is_number()) {
      out.emplace_back(key, value.number);
    }
  }
  return out;
}

// Renders one axis binding's value for the point key.  Strings pass through
// verbatim; numbers and booleans render canonically so documents from other
// producers (which may emit numeric axes) still key correctly.  Null,
// arrays, and objects have no stable rendering — the caller notes and skips
// the point instead of letting such points collide on a shared key.
bool AxisValueText(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kString:
      out = value.string;
      return true;
    case JsonValue::Kind::kNumber:
      out = JsonNumber(value.number);
      return true;
    case JsonValue::Kind::kBool:
      out = value.boolean ? "true" : "false";
      return true;
    case JsonValue::Kind::kNull:
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      return false;
  }
  return false;
}

void AppendReport(const JsonValue& report, std::string_view label,
                  ExtractedDoc& out) {
  const JsonValue* name = report.Find("scenario");
  if (name == nullptr || !name->is_string()) {
    return;
  }
  ScenarioData data;
  data.name = name->string;
  data.metrics = MetricsOf(report.Find("metrics"));
  if (const JsonValue* points = report.Find("points");
      points != nullptr && points->is_array()) {
    std::set<std::string> keys;
    std::set<std::string> noted;
    for (const JsonValue& point : points->items) {
      PointData pd;
      bool keyable = true;
      if (const JsonValue* axes = point.Find("axes");
          axes != nullptr && axes->is_object()) {
        for (const auto& [axis, value] : axes->members) {
          std::string text;
          if (!AxisValueText(value, text)) {
            keyable = false;
            break;
          }
          pd.key += (pd.key.empty() ? "" : ",") + axis + "=" + text;
        }
      }
      if (!keyable) {
        out.notes.push_back("point skipped in " + std::string(label) + ": " +
                            data.name +
                            " has an axis value with no stable rendering "
                            "(null/array/object)");
        continue;
      }
      // A repeated key cannot be paired meaningfully either: note it (a gate
      // violation) and compare only the first occurrence.
      if (!keys.insert(pd.key).second) {
        if (noted.insert(pd.key).second) {
          out.notes.push_back("repeated point key in " + std::string(label) + ": " +
                              data.name + " [" + pd.key +
                              "] (only the first occurrence is compared)");
        }
        continue;
      }
      pd.metrics = MetricsOf(point.Find("metrics"));
      data.points.push_back(std::move(pd));
    }
  }
  out.scenarios.push_back(std::move(data));
}

// Accepts a single report document or the combined reports/v1 aggregate.
Result<ExtractedDoc> ExtractScenarios(std::string_view json,
                                      std::string_view label) {
  auto parsed = report::ParseJson(json);
  if (!parsed.ok()) {
    return Result<ExtractedDoc>(
        ErrorCode::kInvalidArgument,
        std::string(label) + ": " + parsed.status().message());
  }
  const JsonValue& doc = parsed.value();
  ExtractedDoc out;
  if (const JsonValue* reports = doc.Find("reports");
      reports != nullptr && reports->is_array()) {
    for (const JsonValue& report : reports->items) {
      AppendReport(report, label, out);
    }
  } else {
    AppendReport(doc, label, out);
  }
  if (out.scenarios.empty()) {
    return Result<ExtractedDoc>(
        ErrorCode::kInvalidArgument,
        std::string(label) +
            ": no scenario reports found (expected a zombieland.scenario."
            "report/v1 or .reports/v1 document)");
  }
  // Duplicate names cannot be paired meaningfully: note them (a gate
  // violation), keep only the first occurrence for comparison.
  std::set<std::string> seen;
  std::set<std::string> noted;
  std::vector<ScenarioData> unique;
  unique.reserve(out.scenarios.size());
  for (ScenarioData& scenario : out.scenarios) {
    if (seen.insert(scenario.name).second) {
      unique.push_back(std::move(scenario));
    } else if (noted.insert(scenario.name).second) {
      out.notes.push_back("duplicate scenario '" + scenario.name + "' in " +
                          std::string(label) +
                          " (only the first occurrence is compared)");
    }
  }
  out.scenarios = std::move(unique);
  return out;
}

const ScenarioData* FindScenario(const std::vector<ScenarioData>& all,
                                 std::string_view name) {
  for (const ScenarioData& scenario : all) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

const PointData* FindPoint(const std::vector<PointData>& points,
                           std::string_view key) {
  for (const PointData& point : points) {
    if (point.key == key) {
      return &point;
    }
  }
  return nullptr;
}

const double* FindMetric(const std::vector<std::pair<std::string, double>>& metrics,
                         std::string_view key) {
  for (const auto& [name, value] : metrics) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

// Shared accumulation state for one diff run.
struct DiffState {
  const DiffOptions* options = nullptr;
  report::ReportTable* table = nullptr;
  std::vector<std::string> notes;
  std::size_t compared = 0;
  std::size_t changed = 0;
  std::size_t violations = 0;
};

const Tolerance& ToleranceFor(const DiffState& state, std::string_view metric) {
  auto it = state.options->metric_tolerances.find(metric);
  return it != state.options->metric_tolerances.end()
             ? it->second
             : state.options->default_tolerance;
}

// Whether a changed metric stays within its tolerance.  A percent bound on
// old == 0 never passes — there is no base to be relative to (the "old=0 ->
// n/a" gate policy); an absolute tolerance handles those metrics.
bool WithinTolerance(const Tolerance& tolerance, double old_value,
                     double new_value) {
  switch (tolerance.kind) {
    case Tolerance::Kind::kIgnore:
      return true;
    case Tolerance::Kind::kAbsolute:
      return std::fabs(new_value - old_value) <= tolerance.value;
    case Tolerance::Kind::kPercent:
      if (old_value == 0.0) {
        return new_value == 0.0;
      }
      return std::fabs(new_value - old_value) <=
             tolerance.value / 100.0 * std::fabs(old_value);
  }
  return false;
}

// A structural change (add/remove/duplicate/unkeyable) is always a gate
// violation: the baseline no longer describes the run, so the fix is a
// deliberate re-baseline, not a silent pass.
void StructuralNote(DiffState& state, std::string note) {
  ++state.violations;
  state.notes.push_back(std::move(note) + " (gate: FAIL)");
}

std::string DeltaPercent(double old_value, double new_value) {
  if (old_value == 0.0) {
    return new_value == 0.0 ? "0%" : "n/a";
  }
  return StrPrintf("%+.2f%%",
                   100.0 * (new_value - old_value) / std::fabs(old_value));
}

// Diffs one metrics list pair under a (scenario, point) label.
void DiffMetrics(const std::string& scenario, const std::string& point,
                 const std::vector<std::pair<std::string, double>>& old_metrics,
                 const std::vector<std::pair<std::string, double>>& new_metrics,
                 DiffState& state) {
  const std::string where = scenario + (point.empty() ? "" : " [" + point + "]");
  for (const auto& [key, new_value] : new_metrics) {
    const Tolerance& tolerance = ToleranceFor(state, key);
    if (tolerance.kind == Tolerance::Kind::kIgnore) {
      continue;
    }
    const double* old_value = FindMetric(old_metrics, key);
    if (old_value == nullptr) {
      StructuralNote(state, "metric added: " + where + " " + key);
      continue;
    }
    ++state.compared;
    if (*old_value == new_value ||
        (std::isnan(*old_value) && std::isnan(new_value))) {
      continue;
    }
    ++state.changed;
    const bool within = WithinTolerance(tolerance, *old_value, new_value);
    if (!within) {
      ++state.violations;
    }
    state.table->Row({scenario, point, key, JsonNumber(*old_value),
                      JsonNumber(new_value),
                      StrPrintf("%+g", new_value - *old_value),
                      DeltaPercent(*old_value, new_value), tolerance.text,
                      within ? "ok" : "FAIL"});
  }
  for (const auto& [key, old_value] : old_metrics) {
    (void)old_value;
    if (ToleranceFor(state, key).kind == Tolerance::Kind::kIgnore) {
      continue;
    }
    if (FindMetric(new_metrics, key) == nullptr) {
      StructuralNote(state, "metric removed: " + where + " " + key);
    }
  }
}

// Parses a non-negative finite double, rejecting surrounding junk (strtod
// would silently skip leading whitespace).
bool ParsesAsToleranceNumber(std::string_view text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return false;
  }
  const std::string owned(text);
  char* end = nullptr;
  const double parsed = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size() || !std::isfinite(parsed) ||
      parsed < 0.0) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

Result<Tolerance> ParseTolerance(std::string_view text) {
  Tolerance tolerance;
  tolerance.text = std::string(text);
  if (text == "ignore") {
    tolerance.kind = Tolerance::Kind::kIgnore;
    return tolerance;
  }
  const bool percent = !text.empty() && text.back() == '%';
  const std::string_view number = percent ? text.substr(0, text.size() - 1) : text;
  if (!ParsesAsToleranceNumber(number, &tolerance.value)) {
    return Result<Tolerance>(
        ErrorCode::kInvalidArgument,
        "bad tolerance '" + std::string(text) +
            "' (want a non-negative number, a percentage like '5%', or "
            "'ignore')");
  }
  tolerance.kind = percent ? Tolerance::Kind::kPercent : Tolerance::Kind::kAbsolute;
  return tolerance;
}

Result<DiffOptions> ParseToleranceFile(std::string_view json,
                                       std::string_view label) {
  const auto fail = [&](const std::string& message) {
    return Result<DiffOptions>(ErrorCode::kInvalidArgument,
                               std::string(label) + ": " + message);
  };
  auto parsed = report::ParseJson(json);
  if (!parsed.ok()) {
    return fail(parsed.status().message());
  }
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return fail("tolerances file must be a JSON object");
  }
  DiffOptions out;
  for (const auto& [key, value] : doc.members) {
    if (key == "schema") {
      if (!value.is_string() || value.string != kToleranceSchema) {
        return fail("schema must be \"" + std::string(kToleranceSchema) + "\"");
      }
    } else if (key == "default") {
      if (!value.is_string()) {
        return fail("\"default\" must be a tolerance string");
      }
      auto tolerance = ParseTolerance(value.string);
      if (!tolerance.ok()) {
        return fail("default: " + tolerance.status().message());
      }
      out.default_tolerance = std::move(tolerance).take();
    } else if (key == "metrics") {
      if (!value.is_object()) {
        return fail("\"metrics\" must be an object of metric -> tolerance");
      }
      for (const auto& [metric, spec] : value.members) {
        if (!spec.is_string()) {
          return fail("metric '" + metric + "': tolerance must be a string");
        }
        auto tolerance = ParseTolerance(spec.string);
        if (!tolerance.ok()) {
          return fail("metric '" + metric + "': " + tolerance.status().message());
        }
        out.metric_tolerances[metric] = std::move(tolerance).take();
      }
    } else {
      // A typo here would silently weaken the gate; refuse instead.
      return fail("unknown key '" + key +
                  "' (expected \"schema\", \"default\", \"metrics\")");
    }
  }
  return out;
}

Result<DiffResult> DiffReportDocs(std::string_view old_json,
                                  std::string_view new_json,
                                  const DiffOptions& options) {
  auto old_doc = ExtractScenarios(old_json, "old document");
  if (!old_doc.ok()) {
    return Result<DiffResult>(old_doc.status());
  }
  auto new_doc = ExtractScenarios(new_json, "new document");
  if (!new_doc.ok()) {
    return Result<DiffResult>(new_doc.status());
  }

  Report r("diff", "Cross-run metric deltas");
  r.Text("== Cross-run metric deltas (old -> new) ==\n\n");
  DiffState state;
  state.options = &options;
  state.table = &r.AddTable("metric_deltas", "",
                            {"scenario", "point", "metric", "old", "new",
                             "delta", "delta %", "tolerance", "gate"});
  for (const std::string& note : old_doc.value().notes) {
    StructuralNote(state, note);
  }
  for (const std::string& note : new_doc.value().notes) {
    StructuralNote(state, note);
  }

  for (const ScenarioData& scenario : new_doc.value().scenarios) {
    const ScenarioData* old_scenario =
        FindScenario(old_doc.value().scenarios, scenario.name);
    if (old_scenario == nullptr) {
      StructuralNote(state, "scenario added: " + scenario.name);
      continue;
    }
    DiffMetrics(scenario.name, "", old_scenario->metrics, scenario.metrics, state);
    for (const PointData& point : scenario.points) {
      const PointData* old_point = FindPoint(old_scenario->points, point.key);
      if (old_point == nullptr) {
        StructuralNote(state,
                       "point added: " + scenario.name + " [" + point.key + "]");
        continue;
      }
      DiffMetrics(scenario.name, point.key, old_point->metrics, point.metrics,
                  state);
    }
    for (const PointData& point : old_scenario->points) {
      if (FindPoint(scenario.points, point.key) == nullptr) {
        StructuralNote(state, "point removed: " + scenario.name + " [" +
                                  point.key + "]");
      }
    }
  }
  for (const ScenarioData& scenario : old_doc.value().scenarios) {
    if (FindScenario(new_doc.value().scenarios, scenario.name) == nullptr) {
      StructuralNote(state, "scenario removed: " + scenario.name);
    }
  }

  r.Metric("metrics_compared", static_cast<double>(state.compared));
  r.Metric("metrics_changed", static_cast<double>(state.changed));
  r.Metric("gate_violations", static_cast<double>(state.violations));
  r.Text(StrPrintf("\n%zu metrics compared, %zu changed, %zu gate violation%s.\n",
                   state.compared, state.changed, state.violations,
                   state.violations == 1 ? "" : "s"));
  if (!state.notes.empty()) {
    std::string block = "\nStructural changes:\n";
    for (const std::string& note : state.notes) {
      block += "  " + note + "\n";
    }
    r.Text(std::move(block));
  }
  return DiffResult{std::move(r), state.violations};
}

}  // namespace zombie::scenario
