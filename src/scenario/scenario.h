// The scenario API: Scenario (a validated spec plus its run function),
// ScenarioBuilder (fluent construction with validation), and RunContext (the
// composition surface a run function uses: profiles with smoke scaling
// applied, typed CLI parameters and sweep points).
//
// Registering a new experiment:
//
//   ZOMBIE_REGISTER_SCENARIO(
//       ScenarioBuilder("fig42")
//           .Title("Figure 42: ...")
//           .Param({.name = "local_fraction", .type = ParamType::kDouble,
//                   .description = "fraction of reserved memory kept local"})
//           .Sweep({.axes = {{"local_fraction", {"0.2", "0.5", "0.8"}}}})
//           .Runner([](const RunContext& ctx) { ... return report; }))
//
// and `zombieland run fig42 --format=json` works with no new binary.
#ifndef ZOMBIELAND_SRC_SCENARIO_SCENARIO_H_
#define ZOMBIELAND_SRC_SCENARIO_SCENARIO_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/report.h"
#include "src/common/result.h"
#include "src/scenario/spec.h"
#include "src/sim/dc_sim.h"

namespace zombie::cloud {
struct FaultPlan;
}  // namespace zombie::cloud

namespace zombie {
class WorkQueue;
}  // namespace zombie

namespace zombie::scenario {

// Smoke mode (--smoke) caps every access stream at this many accesses so a
// full catalog run stays executable in CI.
inline constexpr std::uint64_t kSmokeAccesses = 20'000;

struct RunOptions {
  bool smoke = false;
  report::Format format = report::Format::kTable;
  // CLI `--set key=value` overrides, read via RunContext::Param*().
  std::map<std::string, std::string, std::less<>> params;
  // CLI `--filter axis=v1[,v2...]` sweep subsets: the named axis keeps only
  // the listed values (validated as a strict subset of the effective axis,
  // i.e. after any `--set` axis replacement).
  std::map<std::string, std::string, std::less<>> filters;
  // The shared worker budget of a driver run (`run [--all] -j N`): when set,
  // ForEachSweepPoint submits its points to this queue, so scenarios and
  // sweep points draw from one budget; when null, points run serially in
  // grid order.  Borrowed, never owned; must outlive the run.
  WorkQueue* work_queue = nullptr;
  // Record per-point wall-clock into the report's points section (--timings).
  bool timings = false;
  // Fault-injection override for the faults_* scenario family: when set,
  // the scenario replays this plan instead of its built-in one.  Borrowed,
  // never owned; must outlive the run.
  const cloud::FaultPlan* fault_plan = nullptr;
};

// One point of an expanded sweep: a binding of every axis parameter to one
// of its values.  Run functions iterate RunContext::SweepPoints() instead of
// hand-writing nested loops over the axes.
class SweepPoint {
 public:
  // Flat index in expansion order (cross product: first axis outermost).
  std::size_t index() const { return index_; }

  // Index of this point's value within the named axis (useful as a
  // SweepTable row/column coordinate).  Aborts on an unknown axis.
  std::size_t AxisIndex(std::string_view param) const;

  // This point's value for the named axis, raw and typed.
  const std::string& Value(std::string_view param) const;
  std::uint64_t U64(std::string_view param) const;
  double Double(std::string_view param) const;

 private:
  friend class RunContext;
  const SweepSpec* sweep_ = nullptr;
  std::size_t index_ = 0;
  std::vector<std::string> values_;        // per axis, in axis order
  std::vector<std::size_t> axis_indices_;  // per axis, in axis order

  std::size_t Find(std::string_view param) const;  // aborts when missing
};

// Handed to a scenario's run function; owns nothing but views of the spec
// and options.
class RunContext {
 public:
  RunContext(const ScenarioSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options) {}

  const ScenarioSpec& spec() const { return spec_; }
  bool smoke() const { return options_.smoke; }
  // Fault-plan override injected through RunOptions (null = scenario default).
  const cloud::FaultPlan* fault_plan() const { return options_.fault_plan; }

  // A report pre-seeded with the scenario's name/title and smoke flag.
  report::Report MakeReport() const;

  // Smoke scaling: `full` accesses in a normal run, capped at
  // kSmokeAccesses under --smoke.  The one implementation of what every
  // bench binary used to re-implement via ZOMBIE_BENCH_SMOKE.
  std::uint64_t ScaledAccesses(std::uint64_t full) const;

  // The calibrated profile for `app` with smoke scaling applied.
  workloads::AppProfile Profile(workloads::App app) const;

  // CLI parameter values.  HasParam is true only for keys set on the CLI.
  // The Param* getters return the CLI value, else the declared default, and
  // abort when the parameter has neither: read a parameter that declares no
  // default only behind HasParam.
  bool HasParam(std::string_view key) const;
  std::string Param(std::string_view key) const;
  std::uint64_t ParamU64(std::string_view key) const;
  double ParamDouble(std::string_view key) const;

  // -------------------------------------------------------------------------
  // Sweep expansion (the combinator behind declarative parameter grids).
  // -------------------------------------------------------------------------

  // The effective values of one sweep axis: the spec's list, unless a CLI
  // `--set <param>=v1,v2,...` override replaced it, further narrowed by a
  // `--filter <param>=v1[,v2...]` subset.  Aborts on a parameter that is not
  // a sweep axis (a programming error; the driver validates CLI overrides
  // and filters before the run starts).
  std::vector<std::string> Axis(std::string_view param) const;
  // Typed forms of Axis() for building row/column labels.
  std::vector<double> AxisDoubles(std::string_view param) const;
  std::vector<std::uint64_t> AxisU64s(std::string_view param) const;

  // The expanded grid: cross product (first axis outermost), honouring CLI
  // axis overrides and filters.  Empty when the spec declares no sweep.
  std::vector<SweepPoint> SweepPoints() const;

  // Runs `fn` over every sweep point, on RunOptions::work_queue when one is
  // shared (points are independent by construction) and serially in grid
  // order otherwise, and records one report::SweepPointRecord per point in
  // grid order: axis bindings up front, `fn`-recorded metrics and wall-clock
  // as each point completes.  Each invocation owns its record slot, and all
  // report writes a point makes must be index-addressed (SweepTable::Set,
  // distinct cells per point) — ordered emission (Text / Metric / AddTable)
  // belongs before or after the loop.  The rendered report is byte-identical
  // whatever the scheduling.
  using PointFn = std::function<void(const SweepPoint&, report::SweepPointRecord&)>;
  void ForEachSweepPoint(report::Report& report, const PointFn& fn) const;

 private:
  const ScenarioSpec& spec_;
  const RunOptions& options_;
};

class Scenario {
 public:
  // Run functions return Result so a failing scenario (allocation failure,
  // broken invariant mid-demo) surfaces as a non-zero driver exit instead of
  // a green report; plain `return report;` converts implicitly on success.
  using RunFn = std::function<Result<report::Report>(const RunContext&)>;

  const ScenarioSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // Runs the scenario: composes the testbed/workload/dc-sim layers through
  // the RunContext and returns the structured report.
  [[nodiscard]] Result<report::Report> Run(const RunOptions& options = {}) const;

 private:
  friend class ScenarioBuilder;
  Scenario(ScenarioSpec spec, RunFn run) : spec_(std::move(spec)), run_(std::move(run)) {}

  ScenarioSpec spec_;
  RunFn run_;
};

// Fluent builder; Build() validates the assembled spec and returns either
// the scenario or an explanatory kInvalidArgument status.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name) { spec_.name = std::move(name); }

  ScenarioBuilder& Title(std::string title) {
    spec_.title = std::move(title);
    return *this;
  }
  ScenarioBuilder& Description(std::string description) {
    spec_.description = std::move(description);
    return *this;
  }
  // Declares a `--set` parameter (validated key, typed value, introspectable
  // via `zombieland params <name>`).
  ScenarioBuilder& Param(ParamSpec param) {
    spec_.params.push_back(std::move(param));
    return *this;
  }
  ScenarioBuilder& Param(std::string name, ParamType type, std::string default_value,
                         std::string description) {
    spec_.params.push_back({std::move(name), type, std::move(default_value),
                            std::move(description), /*choices=*/{},
                            /*range=*/{}});
    return *this;
  }
  // Declares the sweep grid; every axis must name a declared parameter.
  ScenarioBuilder& Sweep(SweepSpec sweep) {
    spec_.sweep = std::move(sweep);
    return *this;
  }
  ScenarioBuilder& Runner(Scenario::RunFn run) {
    run_ = std::move(run);
    return *this;
  }

  [[nodiscard]] Result<Scenario> Build() const;

 private:
  ScenarioSpec spec_;
  Scenario::RunFn run_;
};

// Spec validation, exposed for tests: OK or the first problem found.
[[nodiscard]] Status ValidateSpec(const ScenarioSpec& spec);

// Checks one rendered parameter value against a declared parameter's type.
[[nodiscard]] Status CheckParamValue(const ParamSpec& param, std::string_view value);

// Validates CLI `--set` overrides and `--filter` subsets against a spec:
// every `--set` key must name a declared parameter, values must parse as the
// declared type, and comma lists (axis replacement) are only allowed on
// sweep-axis parameters — a list on a scalar parameter gets a dedicated
// axis-vs-scalar diagnostic.  Every `--filter` key must name a sweep axis
// and every filter value must be on the effective axis (strict subset).
[[nodiscard]] Status ValidateRunParams(const ScenarioSpec& spec, const RunOptions& options);

// Per-scenario RunOptions for a (possibly multi-scenario) run, validated.
// Single-scenario runs validate strictly.  Multi-scenario runs (`run --all`)
// route every key to the scenarios that understand it: a `--set` key is kept
// only where it is declared, an axis-list value (v1,v2,...) is additionally
// dropped where the key is a scalar parameter (so `--set local_fraction=
// 0.3,0.5` reshapes the scenarios sweeping that axis without aborting those
// that declare it as a plain param), and a `--filter` is kept only where it
// names a sweep axis, narrowed to the values that scenario's axis actually
// has (a scenario matching none runs its full sweep).  A `--set` key no
// scenario declares, a filter axis no scenario sweeps, or filter values on
// no target axis at all are errors.
[[nodiscard]] Result<std::vector<RunOptions>> PerScenarioRunOptions(
    const std::vector<const Scenario*>& scenarios, const RunOptions& options);

// Records a datacenter-simulation policy's consolidation decisions as
// metrics named `<counter>_<policy>` (e.g. `migrations_neat`) on a Report or
// a sweep point, so the diff gate pins what the planner decided and not only
// the energy it saved.
template <typename MetricSink>
void RecordDecisionMetrics(MetricSink& sink, const sim::DcResult& result) {
  std::string policy(sim::PolicyName(result.policy));
  std::transform(policy.begin(), policy.end(), policy.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  sink.Metric("migrations_" + policy, static_cast<double>(result.migrations));
  sink.Metric("wakeups_" + policy, static_cast<double>(result.wakeups));
  sink.Metric("delayed_placements_" + policy, static_cast<double>(result.delayed_placements));
  sink.Metric("suspended_peak_" + policy, static_cast<double>(result.suspended_peak));
}

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_SCENARIO_H_
