#include "src/scenario/scenario.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/report.h"
#include "src/common/work_queue.h"

namespace zombie::scenario {

acpi::MachineProfile MachineProfileFromKey(std::string_view key) {
  if (key == "hp") {
    return acpi::MachineProfile::HpCompaqElite8300();
  }
  if (key == "dell") {
    return acpi::MachineProfile::DellPrecisionT5810();
  }
  FatalMessage("scenario", "unknown machine key '" + std::string(key) + "'");
}

hv::PolicyKind PolicyKindFromName(std::string_view name) {
  if (auto kind = hv::ParsePolicyKind(name)) {
    return *kind;
  }
  FatalMessage("scenario", "unknown replacement policy '" + std::string(name) + "'");
}

workloads::App AppFromName(std::string_view name) {
  for (workloads::App app : workloads::AllApps()) {
    if (workloads::AppName(app) == name) {
      return app;
    }
  }
  FatalMessage("scenario", "unknown app '" + std::string(name) + "'");
}

std::string_view ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kU64:
      return "u64";
    case ParamType::kDouble:
      return "double";
    case ParamType::kString:
      return "string";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Typed parameter values.
// ---------------------------------------------------------------------------

namespace {

const ParamSpec* FindParamSpec(const ScenarioSpec& spec, std::string_view name) {
  for (const ParamSpec& param : spec.params) {
    if (param.name == name) {
      return &param;
    }
  }
  return nullptr;
}

const SweepAxis* FindSweepAxis(const SweepSpec& sweep, std::string_view name) {
  for (const SweepAxis& axis : sweep.axes) {
    if (axis.param == name) {
      return &axis;
    }
  }
  return nullptr;
}

bool ParsesAsU64(std::string_view value, std::uint64_t* out) {
  if (value.empty()) {
    return false;
  }
  for (char c : value) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  const std::string owned(value);
  errno = 0;
  const unsigned long long parsed = std::strtoull(owned.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return false;  // digits-only but above 2^64-1: reject, don't saturate
  }
  *out = parsed;
  return true;
}

bool ParsesAsDouble(std::string_view value, double* out) {
  // Decimal forms only: strtod would also take leading whitespace and hex
  // floats, which then render as point keys no --filter value can match.
  if (value.empty() ||
      value.find_first_not_of("0123456789+-.eE") != std::string_view::npos) {
    return false;
  }
  char* end = nullptr;
  const std::string owned(value);
  const double parsed = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size() || !std::isfinite(parsed)) {
    return false;  // trailing junk, or nan/inf — never a valid parameter
  }
  *out = parsed;
  return true;
}

Status CheckParamRange(const ParamSpec& param, std::string_view value, double v) {
  if (!param.range.has_value()) {
    return Status::Ok();
  }
  const ParamRange& range = *param.range;
  const bool below = range.min_exclusive ? v <= range.min : v < range.min;
  if (below || v > range.max) {
    return Status(ErrorCode::kInvalidArgument,
                  "parameter '" + param.name + "': " + std::string(value) +
                      " outside " + (range.min_exclusive ? "(" : "[") +
                      report::Report::Num(range.min, 0) + ", " +
                      report::Report::Num(range.max, 0) + "]");
  }
  return Status::Ok();
}

// Splits a CLI axis override ("v1,v2,v3") into its values.
std::vector<std::string> SplitList(std::string_view list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    if (comma == std::string_view::npos) {
      out.emplace_back(list.substr(begin));
      break;
    }
    out.emplace_back(list.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

// Rejects an axis list that names one value twice: its points would run
// twice and render under one point key, which the diff gate cannot pair.
// `where` names the axis in the message.
Status CheckDistinctValues(const std::string& where,
                           const std::vector<std::string>& values) {
  for (auto it = values.begin(); it != values.end(); ++it) {
    if (std::find(values.begin(), it, *it) != it) {
      return Status(ErrorCode::kInvalidArgument,
                    where + ": value '" + *it + "' is listed twice");
    }
  }
  return Status::Ok();
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += out.empty() ? name : ", " + name;
  }
  return out;
}

std::vector<std::string> AxisNames(const SweepSpec& sweep) {
  std::vector<std::string> out;
  out.reserve(sweep.axes.size());
  for (const SweepAxis& axis : sweep.axes) {
    out.push_back(axis.param);
  }
  return out;
}

// One axis's values before filtering: the spec's list unless a `--set` axis
// replacement overrode it.
std::vector<std::string> BaseAxisValues(const SweepAxis& axis,
                                        const RunOptions& options) {
  if (auto it = options.params.find(axis.param); it != options.params.end()) {
    return SplitList(it->second);
  }
  return axis.values;
}

// The per-axis values a sweep takes at run time: `--set` replacement first,
// then `--filter` narrowing of each axis — kept in base order, so a filter
// is a pure subset of the unfiltered grid.  The single source of truth
// behind RunContext::Axis/SweepPoints.
std::vector<std::vector<std::string>> EffectiveAxes(const SweepSpec& sweep,
                                                    const RunOptions& options) {
  std::vector<std::vector<std::string>> axes;
  axes.reserve(sweep.axes.size());
  for (const SweepAxis& axis : sweep.axes) {
    axes.push_back(BaseAxisValues(axis, options));
  }
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    auto it = options.filters.find(sweep.axes[a].param);
    if (it == options.filters.end()) {
      continue;
    }
    const std::vector<std::string> listed = SplitList(it->second);
    std::vector<std::string> filtered;
    for (std::string& value : axes[a]) {
      if (std::find(listed.begin(), listed.end(), value) != listed.end()) {
        filtered.push_back(std::move(value));
      }
    }
    axes[a] = std::move(filtered);
  }
  return axes;
}

}  // namespace

Status CheckParamValue(const ParamSpec& param, std::string_view value) {
  if (!param.choices.empty() &&
      std::find(param.choices.begin(), param.choices.end(), value) ==
          param.choices.end()) {
    std::string allowed;
    for (const std::string& choice : param.choices) {
      allowed += allowed.empty() ? choice : ", " + choice;
    }
    return Status(ErrorCode::kInvalidArgument,
                  "parameter '" + param.name + "': '" + std::string(value) +
                      "' is not one of {" + allowed + "}");
  }
  switch (param.type) {
    case ParamType::kU64: {
      std::uint64_t parsed = 0;
      if (!ParsesAsU64(value, &parsed)) {
        return Status(ErrorCode::kInvalidArgument,
                      "parameter '" + param.name + "': '" + std::string(value) +
                          "' is not an unsigned 64-bit integer");
      }
      return CheckParamRange(param, value, static_cast<double>(parsed));
    }
    case ParamType::kDouble: {
      double parsed = 0.0;
      if (!ParsesAsDouble(value, &parsed)) {
        return Status(ErrorCode::kInvalidArgument,
                      "parameter '" + param.name + "': '" + std::string(value) +
                          "' is not a finite number");
      }
      return CheckParamRange(param, value, parsed);
    }
    case ParamType::kString:
      return Status::Ok();
  }
  return Status(ErrorCode::kInvalidArgument,
                "parameter '" + param.name + "': unknown type");
}

Status ValidateRunParams(const ScenarioSpec& spec, const RunOptions& options) {
  for (const auto& [key, value] : options.params) {
    const ParamSpec* param = FindParamSpec(spec, key);
    if (param == nullptr) {
      std::string known;
      for (const ParamSpec& p : spec.params) {
        known += known.empty() ? p.name : ", " + p.name;
      }
      return Status(ErrorCode::kInvalidArgument,
                    "scenario '" + spec.name + "' has no parameter '" + key +
                        "'" +
                        (known.empty() ? " (it declares none)"
                                       : " (declared: " + known + ")") +
                        "; `zombieland params " + spec.name + "` lists them");
    }
    if (FindSweepAxis(spec.sweep, key) != nullptr) {
      // Axis override: a comma list replacing the axis values.
      const std::vector<std::string> values = SplitList(value);
      for (const std::string& v : values) {
        ZOMBIE_RETURN_IF_ERROR(CheckParamValue(*param, v));
      }
      ZOMBIE_RETURN_IF_ERROR(CheckDistinctValues(
          "--set " + key + " (an axis of scenario '" + spec.name + "')", values));
      continue;
    }
    if (Status status = CheckParamValue(*param, value); !status.ok()) {
      // A comma list on a non-axis parameter is almost always an axis
      // replacement aimed at the wrong scenario; say so instead of leaking
      // the type error for the whole list ("'0.3,0.5' is not a finite
      // number").
      if (value.find(',') != std::string::npos) {
        const std::string axes = JoinNames(AxisNames(spec.sweep));
        return Status(
            ErrorCode::kInvalidArgument,
            "'" + key + "' is a scalar parameter of scenario '" + spec.name +
                "'; the v1,v2 list syntax only replaces sweep axes — " +
                (axes.empty() ? "'" + spec.name + "' declares no sweep axes"
                              : "axes: " + axes) +
                ". Use --filter <axis>=v1,v2 for a sweep subset, or --set " +
                key + "=<single value> to override the scalar");
      }
      return status;
    }
  }
  for (const auto& [key, value] : options.filters) {
    const SweepAxis* axis = FindSweepAxis(spec.sweep, key);
    if (axis == nullptr) {
      const std::string axes = JoinNames(AxisNames(spec.sweep));
      const char* what = FindParamSpec(spec, key) != nullptr
                             ? "' is a scalar parameter, not a sweep axis, of "
                             : "' is not a sweep axis of ";
      return Status(ErrorCode::kInvalidArgument,
                    "--filter " + key + ": '" + key + what + "scenario '" +
                        spec.name + "'" +
                        (axes.empty() ? " (it declares no sweep axes)"
                                      : " (axes: " + axes + ")"));
    }
    // Filters subset the effective axis (after any --set replacement).
    const std::vector<std::string> base = BaseAxisValues(*axis, options);
    const std::vector<std::string> listed = SplitList(value);
    ZOMBIE_RETURN_IF_ERROR(CheckDistinctValues(
        "--filter " + key + " (an axis of scenario '" + spec.name + "')", listed));
    for (const std::string& v : listed) {
      if (std::find(base.begin(), base.end(), v) == base.end()) {
        return Status(ErrorCode::kInvalidArgument,
                      "--filter " + key + ": '" + v + "' is not on axis '" +
                          key + "' of scenario '" + spec.name +
                          "' (axis values: " + JoinNames(base) + ")");
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<RunOptions>> PerScenarioRunOptions(
    const std::vector<const Scenario*>& scenarios, const RunOptions& options) {
  const bool multi = scenarios.size() > 1;
  const auto axis_somewhere = [&](std::string_view key) {
    return std::any_of(scenarios.begin(), scenarios.end(),
                       [&](const Scenario* scenario) {
                         return FindSweepAxis(scenario->spec().sweep, key) != nullptr;
                       });
  };
  std::vector<RunOptions> per_scenario;
  per_scenario.reserve(scenarios.size());
  for (const Scenario* scenario : scenarios) {
    const ScenarioSpec& spec = scenario->spec();
    RunOptions filtered = options;
    if (multi) {
      std::erase_if(filtered.params, [&](const auto& kv) {
        const ParamSpec* param = FindParamSpec(spec, kv.first);
        if (param == nullptr) {
          return true;  // undeclared here; other scenarios consume it
        }
        if (FindSweepAxis(spec.sweep, kv.first) != nullptr) {
          return false;  // axis replacement, keep
        }
        // Declared but scalar here: keep a valid scalar override; drop an
        // axis list aimed at a scenario that sweeps this key (if none does,
        // keep it so validation below surfaces the axis-vs-scalar
        // diagnostic instead of silently ignoring the flag).
        return kv.second.find(',') != std::string::npos &&
               !CheckParamValue(*param, kv.second).ok() &&
               axis_somewhere(kv.first);
      });
      // Filters route to the scenarios sweeping the axis, narrowed to the
      // values that axis actually has (catalogs sweep different value sets
      // over the same key, e.g. local_fraction); a filter whose values all
      // miss this scenario's axis is dropped here — that scenario runs its
      // full sweep — and the run-level check below errors when no target
      // scenario matches any value at all.
      for (auto it = filtered.filters.begin(); it != filtered.filters.end();) {
        const SweepAxis* axis = FindSweepAxis(spec.sweep, it->first);
        std::string kept;
        if (axis != nullptr) {
          const std::vector<std::string> base = BaseAxisValues(*axis, filtered);
          for (const std::string& v : SplitList(it->second)) {
            if (std::find(base.begin(), base.end(), v) != base.end()) {
              kept += kept.empty() ? v : "," + v;
            }
          }
        }
        if (kept.empty()) {
          it = filtered.filters.erase(it);
        } else {
          it->second = std::move(kept);
          ++it;
        }
      }
    }
    if (Status status = ValidateRunParams(spec, filtered); !status.ok()) {
      return Result<std::vector<RunOptions>>(status);
    }
    per_scenario.push_back(std::move(filtered));
  }
  for (const auto& [key, value] : options.params) {
    const bool declared = std::any_of(
        scenarios.begin(), scenarios.end(), [&](const Scenario* scenario) {
          return FindParamSpec(scenario->spec(), key) != nullptr;
        });
    if (!declared) {
      return Result<std::vector<RunOptions>>(
          ErrorCode::kInvalidArgument,
          "--set " + key + ": no scenario in this run declares that parameter; "
              "`zombieland params <name>` lists each scenario's parameters");
    }
  }
  for (const auto& [key, value] : options.filters) {
    if (!axis_somewhere(key)) {
      return Result<std::vector<RunOptions>>(
          ErrorCode::kInvalidArgument,
          "--filter " + key + ": no scenario in this run sweeps an axis named '" +
              key + "'; `zombieland params <name>` lists each scenario's axes");
    }
    if (multi) {
      const bool matched_somewhere = std::any_of(
          per_scenario.begin(), per_scenario.end(), [&, &k = key](const RunOptions& o) {
            return o.filters.find(k) != o.filters.end();
          });
      if (!matched_somewhere) {
        return Result<std::vector<RunOptions>>(
            ErrorCode::kInvalidArgument,
            "--filter " + key + "=" + value + ": no scenario in this run has any "
                "of those values on its '" + key + "' axis");
      }
    }
  }
  return per_scenario;
}

// ---------------------------------------------------------------------------
// RunContext.
// ---------------------------------------------------------------------------

report::Report RunContext::MakeReport() const {
  report::Report report(spec_.name, spec_.title);
  report.set_smoke(smoke());
  return report;
}

std::uint64_t RunContext::ScaledAccesses(std::uint64_t full) const {
  return smoke() ? std::min(full, kSmokeAccesses) : full;
}

workloads::AppProfile RunContext::Profile(workloads::App app) const {
  workloads::AppProfile profile = workloads::ProfileFor(app);
  profile.accesses = ScaledAccesses(profile.accesses);
  return profile;
}

bool RunContext::HasParam(std::string_view key) const {
  return options_.params.find(key) != options_.params.end();
}

std::string RunContext::Param(std::string_view key, std::string_view fallback) const {
  auto it = options_.params.find(key);
  if (it != options_.params.end()) {
    return it->second;
  }
  if (const ParamSpec* param = FindParamSpec(spec_, key);
      param != nullptr && !param->default_value.empty()) {
    return param->default_value;
  }
  return std::string(fallback);
}

std::uint64_t RunContext::ParamU64(std::string_view key, std::uint64_t fallback) const {
  const std::string value = Param(key, "");
  if (value.empty()) {
    return fallback;
  }
  return std::strtoull(value.c_str(), nullptr, 10);
}

double RunContext::ParamDouble(std::string_view key, double fallback) const {
  const std::string value = Param(key, "");
  if (value.empty()) {
    return fallback;
  }
  return std::strtod(value.c_str(), nullptr);
}

// ---------------------------------------------------------------------------
// Sweep expansion.
// ---------------------------------------------------------------------------

std::size_t SweepPoint::Find(std::string_view param) const {
  if (sweep_ != nullptr) {
    for (std::size_t a = 0; a < sweep_->axes.size(); ++a) {
      if (sweep_->axes[a].param == param) {
        return a;
      }
    }
  }
  FatalMessage("scenario", "sweep point has no axis '" + std::string(param) + "'");
}

std::size_t SweepPoint::AxisIndex(std::string_view param) const {
  return axis_indices_[Find(param)];
}

const std::string& SweepPoint::Value(std::string_view param) const {
  return values_[Find(param)];
}

std::uint64_t SweepPoint::U64(std::string_view param) const {
  return std::strtoull(Value(param).c_str(), nullptr, 10);
}

double SweepPoint::Double(std::string_view param) const {
  return std::strtod(Value(param).c_str(), nullptr);
}

std::vector<std::string> RunContext::Axis(std::string_view param) const {
  // A CLI `--set <param>=v1,v2,...` replaces the axis values and a
  // `--filter <param>=v1,v2` keeps a subset (the driver validated both
  // against the parameter type before the run).
  for (std::size_t a = 0; a < spec_.sweep.axes.size(); ++a) {
    if (spec_.sweep.axes[a].param == param) {
      return EffectiveAxes(spec_.sweep, options_)[a];
    }
  }
  FatalMessage("scenario", "scenario '" + spec_.name + "' has no sweep axis '" +
                               std::string(param) + "'");
}

std::vector<double> RunContext::AxisDoubles(std::string_view param) const {
  std::vector<double> out;
  for (const std::string& value : Axis(param)) {
    out.push_back(std::strtod(value.c_str(), nullptr));
  }
  return out;
}

std::vector<std::uint64_t> RunContext::AxisU64s(std::string_view param) const {
  std::vector<std::uint64_t> out;
  for (const std::string& value : Axis(param)) {
    out.push_back(std::strtoull(value.c_str(), nullptr, 10));
  }
  return out;
}

std::vector<SweepPoint> RunContext::SweepPoints() const {
  const SweepSpec& sweep = spec_.sweep;
  if (sweep.empty()) {
    return {};
  }
  const std::vector<std::vector<std::string>> axes = EffectiveAxes(sweep, options_);

  // Cross product, first axis outermost (odometer order).
  std::vector<SweepPoint> points;
  std::vector<std::size_t> indices(axes.size(), 0);
  while (true) {
    SweepPoint& point = points.emplace_back();
    point.sweep_ = &sweep;
    point.index_ = points.size() - 1;
    point.axis_indices_ = indices;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      point.values_.push_back(axes[a][indices[a]]);
    }
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++indices[a] < axes[a].size()) {
        break;
      }
      indices[a] = 0;
      if (a == 0) {
        return points;
      }
    }
  }
}

void RunContext::ForEachSweepPoint(report::Report& report, const PointFn& fn) const {
  const std::vector<SweepPoint> points = SweepPoints();
  // Records are pre-sized in grid order with their axis bindings, so the
  // "points" section is already deterministic; workers only ever touch their
  // own slot.
  std::vector<report::SweepPointRecord>& records = report.MutablePoints();
  records.assign(points.size(), {});
  for (std::size_t i = 0; i < points.size(); ++i) {
    records[i].axes.reserve(spec_.sweep.axes.size());
    for (std::size_t a = 0; a < spec_.sweep.axes.size(); ++a) {
      records[i].axes.emplace_back(spec_.sweep.axes[a].param,
                                   points[i].values_[a]);
    }
  }
  report.set_point_timings(options_.timings);

  auto run_point = [&](std::size_t i) {
    // wall_seconds is the explicitly non-deterministic per-point timing
    // field; --timings output is excluded from the byte-identical/diff gates.
    // ZLINT-ALLOW(wall-clock): timing field only, never a simulated metric.
    const auto start = std::chrono::steady_clock::now();
    fn(points[i], records[i]);
    records[i].wall_seconds =
        // ZLINT-ALLOW(wall-clock): see `start` above — timing field only.
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  };
  if (options_.work_queue != nullptr) {
    // Driver run: the points join the shared (scenario, sweep-point) queue,
    // so an idle scenario-level worker can pick them up — and this thread
    // helps rather than blocking inside the budget.
    options_.work_queue->RunBatch(points.size(), run_point);
    return;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    run_point(i);
  }
}

// ---------------------------------------------------------------------------
// Scenario / builder.
// ---------------------------------------------------------------------------

Result<report::Report> Scenario::Run(const RunOptions& options) const {
  if (Status status = ValidateRunParams(spec_, options); !status.ok()) {
    return Result<report::Report>(status);
  }
  RunContext context(spec_, options);
  Result<report::Report> result = run_(context);
  if (!result.ok()) {
    return result;
  }
  result.value().set_smoke(options.smoke);
  return result;
}

namespace {

Status Invalid(const std::string& message) {
  return Status(ErrorCode::kInvalidArgument, message);
}

}  // namespace

Status ValidateSpec(const ScenarioSpec& spec) {
  if (spec.name.empty()) {
    return Invalid("scenario name must not be empty");
  }
  if (spec.name.find_first_of(" \t\n") != std::string::npos) {
    return Invalid("scenario name must not contain whitespace: '" + spec.name + "'");
  }
  if (spec.title.empty()) {
    return Invalid("scenario '" + spec.name + "': title must not be empty");
  }

  for (std::size_t p = 0; p < spec.params.size(); ++p) {
    const ParamSpec& param = spec.params[p];
    if (param.name.empty()) {
      return Invalid("scenario '" + spec.name + "': parameter name must not be empty");
    }
    if (param.name.find_first_of(" \t\n=,") != std::string::npos) {
      return Invalid("scenario '" + spec.name + "': parameter '" + param.name +
                     "' must not contain whitespace, '=' or ','");
    }
    for (std::size_t q = 0; q < p; ++q) {
      if (spec.params[q].name == param.name) {
        return Invalid("scenario '" + spec.name + "': duplicate parameter '" +
                       param.name + "'");
      }
    }
    if (!param.default_value.empty()) {
      if (Status status = CheckParamValue(param, param.default_value); !status.ok()) {
        return Invalid("scenario '" + spec.name + "': default " + status.message());
      }
    }
  }

  const SweepSpec& sweep = spec.sweep;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    const SweepAxis& axis = sweep.axes[a];
    const ParamSpec* param = FindParamSpec(spec, axis.param);
    if (param == nullptr) {
      return Invalid("scenario '" + spec.name + "': sweep axis '" + axis.param +
                     "' is not a declared parameter");
    }
    if (axis.values.empty()) {
      return Invalid("scenario '" + spec.name + "': sweep axis '" + axis.param +
                     "' has no values");
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (sweep.axes[b].param == axis.param) {
        return Invalid("scenario '" + spec.name + "': duplicate sweep axis '" +
                       axis.param + "'");
      }
    }
    for (const std::string& value : axis.values) {
      if (Status status = CheckParamValue(*param, value); !status.ok()) {
        return Invalid("scenario '" + spec.name + "': sweep " + status.message());
      }
    }
    ZOMBIE_RETURN_IF_ERROR(CheckDistinctValues(
        "scenario '" + spec.name + "': sweep axis '" + axis.param + "'", axis.values));
  }

  return Status::Ok();
}

Result<Scenario> ScenarioBuilder::Build() const {
  if (Status status = ValidateSpec(spec_); !status.ok()) {
    return Result<Scenario>(status);
  }
  if (!run_) {
    return Result<Scenario>(ErrorCode::kInvalidArgument,
                            "scenario '" + spec_.name + "': no run function");
  }
  return Scenario(spec_, run_);
}

}  // namespace zombie::scenario
