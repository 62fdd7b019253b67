// ScenarioSpec: the declarative experiment description of the scenario API.
//
// A spec is pure data — a name and title, the typed `--set` parameters a
// run reads and the cross-product sweep grid built from them — validated by
// ScenarioBuilder and interpreted by a Scenario's run function.  Constants
// a scenario does not expose as parameters, its rack shape included, live in
// its run function.  New NituTTIH18 configurations are registry entries
// built from these values, not new binaries.
#ifndef ZOMBIELAND_SRC_SCENARIO_SPEC_H_
#define ZOMBIELAND_SRC_SCENARIO_SPEC_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/hv/replacement.h"
#include "src/workloads/app_models.h"

namespace zombie::scenario {

// Lookups from sweep-axis values to what the run functions need ("hp" /
// "dell" Table-3 machine keys, PolicyKindName / AppName strings).  They
// abort on unknown names — axis values are validated against the
// parameter's choices before a run starts, so reaching one with a bad name
// is a programming error.
acpi::MachineProfile MachineProfileFromKey(std::string_view key);
hv::PolicyKind PolicyKindFromName(std::string_view name);
workloads::App AppFromName(std::string_view name);

// ---------------------------------------------------------------------------
// Typed parameters and sweeps.
//
// A scenario declares its tunable parameters as ParamSpec entries; every
// CLI `--set key=value` must name a declared parameter and parse as its
// type (`zombieland params <name>` lists them).  A SweepSpec turns declared
// parameters into axes of a parameter grid: the framework expands the grid
// (cross product, first axis outermost) and the run function iterates the
// resulting SweepPoints instead of hand-writing nested loops.
// ---------------------------------------------------------------------------

enum class ParamType : std::uint8_t { kU64 = 0, kDouble, kString };

std::string_view ParamTypeName(ParamType type);

// Numeric validity window for a kU64/kDouble parameter.  Bounds are
// inclusive unless min_exclusive is set — the paper's fraction parameters
// live in (0, 1].
struct ParamRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
};

struct ParamSpec {
  std::string name;           // the `--set` key and sweep-axis handle
  ParamType type = ParamType::kString;
  std::string default_value;  // rendered form; must parse as `type`
  std::string description;    // one line for `zombieland params`
  // Non-empty = closed set: every value (default, sweep axis, --set) must be
  // one of these.  The enum-backed string parameters (policy, app, machine)
  // use this so a typo fails validation instead of aborting mid-run.
  std::vector<std::string> choices;
  // Optional numeric window; every value (default, sweep axis, --set) must
  // land inside it.  Non-finite doubles (nan/inf) are always rejected.
  std::optional<ParamRange> range;
};

// One axis of the grid: a declared parameter plus the distinct values it
// takes.  Values are in rendered form and validated against the parameter's
// type; `--set <param>=v1,v2,...` replaces them at run time.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
};

struct SweepSpec {
  std::vector<SweepAxis> axes;

  bool empty() const { return axes.empty(); }
};

struct ScenarioSpec {
  std::string name;         // registry key, e.g. "fig08"
  std::string title;        // one-line human title
  std::string description;  // a sentence for `zombieland list`

  // Declared `--set` parameters (validated, introspectable) and the sweep
  // grid built from them (empty = not a swept scenario).
  std::vector<ParamSpec> params;
  SweepSpec sweep;
};

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_SPEC_H_
