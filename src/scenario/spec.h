// ScenarioSpec: the declarative experiment description of the scenario API.
//
// A spec is pure data — topology (rack shape, zombie count, buffer size),
// workload (application profiles + overrides), memory configuration
// (local-only / RAM-Ext / Explicit-SD, replacement policy sweep, local
// fractions) and energy study (machine profiles, dc-sim trace) — validated
// by ScenarioBuilder and interpreted by a Scenario's run function.  New
// NituTTIH18 configurations are registry entries built from these values,
// not new binaries.
#ifndef ZOMBIELAND_SRC_SCENARIO_SPEC_H_
#define ZOMBIELAND_SRC_SCENARIO_SPEC_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/common/units.h"
#include "src/hv/replacement.h"
#include "src/sim/trace.h"
#include "src/workloads/app_models.h"

namespace zombie::scenario {

// The memory configurations of Section 6 (plus the baseline).
enum class MemoryMode : std::uint8_t {
  kLocalOnly = 0,  // all reserved memory resident (the Table-1 reference)
  kRamExt,         // hypervisor paging into remote buffers (v1)
  kExplicitSd,     // guest-visible swap device (v2)
};

std::string_view MemoryModeName(MemoryMode mode);

// The two Table-3 testbed machines.
enum class MachineKind : std::uint8_t {
  kHpCompaqElite8300 = 0,
  kDellPrecisionT5810,
};

acpi::MachineProfile MachineProfileFor(MachineKind kind);
std::string_view MachineKindName(MachineKind kind);

// Lookups from sweep-axis values to the enums the run functions need
// ("hp" / "dell" machine keys, PolicyKindName / AppName strings).  They
// abort on unknown names — axis values are validated against the
// parameter's choices before a run starts, so reaching one with a bad name
// is a programming error.
MachineKind MachineKindFromKey(std::string_view key);
hv::PolicyKind PolicyKindFromName(std::string_view name);
workloads::App AppFromName(std::string_view name);

// Rack shape for scenarios that instantiate the Section 6.1 testbed.
struct TopologySpec {
  std::size_t zombies = 1;          // servers pushed to Sz lending their RAM
  MachineKind machine = MachineKind::kHpCompaqElite8300;
  std::uint32_t server_cpus = 8;
  Bytes server_memory = 16 * kGiB;
  Bytes buff_size = 4 * kMiB;       // the rack-uniform BUFF_SIZE
  bool materialize_memory = false;  // real bytes vs accounting-only
};

// Application side: which calibrated profiles run, with optional overrides.
struct WorkloadSpec {
  std::vector<workloads::App> apps;
  // Use the Fig. 8 iteration order for the micro-benchmark (random-entry
  // with a hot subset) instead of the Table-1 sequential pass.
  bool fig8_micro = false;
  // Optional overrides of the calibrated profile (unset = profile value).
  std::optional<Bytes> reserved_memory;
  std::optional<Bytes> working_set;
  std::optional<std::uint64_t> accesses;
};

// Memory configuration under test.
struct MemorySpec {
  MemoryMode mode = MemoryMode::kRamExt;
  // The replacement-policy sweep; empty means {kMixed}.
  std::vector<hv::PolicyKind> policies;
  // Fractions of reserved memory kept in local RAM, each in (0, 1].
  std::vector<double> local_fractions = {0.5};
  std::size_t mixed_depth = 5;  // the Mixed policy's Clock-prefix x
};

// Datacenter energy study (Fig. 10 family).
struct EnergySpec {
  std::vector<MachineKind> machines = {MachineKind::kHpCompaqElite8300};
  sim::TraceConfig trace;
  // Also run the modified-trace transform (memory demand = ratio x CPU).
  double modified_mem_ratio = 0.0;  // 0 = original shape only
};

// ---------------------------------------------------------------------------
// Typed parameters and sweeps.
//
// A scenario declares its tunable parameters as ParamSpec entries; every
// CLI `--set key=value` must name a declared parameter and parse as its
// type (`zombieland params <name>` lists them).  A SweepSpec turns declared
// parameters into axes of a parameter grid: the framework expands the grid
// (cross product or zipped) and the run function iterates the resulting
// SweepPoints instead of hand-writing nested loops.
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

// How a multi-axis sweep combines its axes.
enum class SweepMode : std::uint8_t {
  kCross = 0,  // cartesian product, first axis outermost
  kZip,        // axes advance in lockstep (all must have equal length)
};

std::string_view SweepModeName(SweepMode mode);

// One axis of the grid: a declared parameter plus the values it takes.
// Values are in rendered form and validated against the parameter's type;
// `--set <param>=v1,v2,...` replaces them at run time.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
};

struct SweepSpec {
  SweepMode mode = SweepMode::kCross;
  std::vector<SweepAxis> axes;

  bool empty() const { return axes.empty(); }
};

struct ScenarioSpec {
  std::string name;         // registry key, e.g. "fig08"
  std::string title;        // one-line human title
  std::string description;  // a sentence for `zombieland list`

  // Smoke mode (--smoke) caps every access stream at
  // this many accesses so a full catalog run stays executable in CI.
  std::uint64_t smoke_scale = 20'000;

  TopologySpec topology;
  WorkloadSpec workload;
  MemorySpec memory;
  EnergySpec energy;

  // Declared `--set` parameters (validated, introspectable) and the sweep
  // grid built from them (empty = not a swept scenario).
  std::vector<ParamSpec> params;
  SweepSpec sweep;

};

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_SPEC_H_
