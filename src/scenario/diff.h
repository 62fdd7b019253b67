// Cross-run diffing of scenario report documents: `zombieland diff
// <old.json> <new.json>` compares two rendered JSON documents — either a
// single report (zombieland.scenario.report/v1) or the combined
// `run --all` / BENCH_scenarios.json form (zombieland.scenario.reports/v1) —
// and reports per-scenario and per-sweep-point metric deltas.
//
// Since PR 6 the diff is a *gate*, not just a viewer: every compared metric
// is judged against a per-metric tolerance (default: exact match), and the
// result carries a violation count that `zombieland diff --fail-on-delta`
// turns into exit code 3.  Gate policy, in full:
//
//   * a changed metric within its tolerance        -> row, gate "ok"
//   * a changed metric beyond its tolerance        -> row, gate "FAIL"
//   * old == 0, new != 0 under a percent tolerance -> gate "FAIL" (a relative
//     bound cannot excuse a change from zero; use an absolute tolerance)
//   * metric added / removed                       -> note, counts as FAIL
//   * scenario or sweep point added / removed      -> note, counts as FAIL
//   * duplicate scenario names in either document  -> note, counts as FAIL
//     (the diff would silently pair the first occurrences)
//   * a point key repeated within one scenario     -> note, counts as FAIL
//   * a metric with tolerance "ignore"             -> never compared, its
//     add/remove excused (for metrics known to be run-dependent)
//
// Intentional changes are handled by re-baselining (scripts/bench.sh), not
// by loosening the gate — see BUILDING.md.
#ifndef ZOMBIELAND_SRC_SCENARIO_DIFF_H_
#define ZOMBIELAND_SRC_SCENARIO_DIFF_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "src/common/report.h"
#include "src/common/result.h"

namespace zombie::scenario {

// How far one metric may move before the gate fails.
struct Tolerance {
  enum class Kind {
    kAbsolute,  // |new - old| <= value      (value 0: exact match)
    kPercent,   // |new - old| <= value% of |old|; old == 0 -> any change fails
    kIgnore,    // metric excluded from comparison entirely
  };
  Kind kind = Kind::kAbsolute;
  double value = 0.0;
  std::string text = "0";  // as written ("5%", "0.01", "ignore"), for display
};

// Parses one tolerance spec: "5%" | "0.01" | "ignore".  Numbers must be
// finite and >= 0.  kInvalidArgument (naming the bad spec) otherwise.
[[nodiscard]] Result<Tolerance> ParseTolerance(std::string_view text);

struct DiffOptions {
  // Applied to metrics without an explicit entry.  Exact match by default:
  // simulated metrics are deterministic, so any unexplained delta fails.
  Tolerance default_tolerance;
  // Metric name -> tolerance (`--tolerance METRIC=SPEC`, or the "metrics"
  // object of a tolerances file).
  std::map<std::string, Tolerance, std::less<>> metric_tolerances;
};

// Parses a tolerances file (the checked-in bench/tolerances.json):
//
//   {
//     "schema": "zombieland.diff.tolerances/v1",
//     "default": "0",
//     "metrics": {"exec_seconds": "2%", "wall_seconds": "ignore"}
//   }
//
// "schema" (if present) must match, "default" and every "metrics" value are
// ParseTolerance specs, and unknown top-level keys are rejected so typos
// cannot silently weaken the gate.  `label` names the file in errors.
[[nodiscard]] Result<DiffOptions> ParseToleranceFile(std::string_view json,
                                       std::string_view label);

// A diff's rendered report plus its gate verdict.
struct DiffResult {
  report::Report report;
  // Beyond-tolerance metrics plus structural gate failures (see the policy
  // table above).  `diff --fail-on-delta` exits 3 when this is nonzero.
  std::size_t violations = 0;
};

// Parses both documents and builds the delta report: one row per changed
// metric (scenario, sweep point, metric, old, new, delta, delta %, the
// tolerance applied, gate verdict), notes for structural changes, and
// headline metrics (`metrics_compared`, `metrics_changed`,
// `gate_violations`).  Wall-clock fields ("timings", "wall_seconds") are
// ignored — they are noise between runs.  kInvalidArgument when either
// document does not parse or has no recognizable report schema.
[[nodiscard]] Result<DiffResult> DiffReportDocs(std::string_view old_json,
                                  std::string_view new_json,
                                  const DiffOptions& options = {});

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_DIFF_H_
