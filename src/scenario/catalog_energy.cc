// Registry entries for the energy studies: Table 3 (machine energy per
// configuration and the Sz estimate), Fig. 10 (datacenter energy saving of
// Neat/Oasis/ZombieStack) and the footnote-1 cooling extension.  Ports of
// the historical bench binaries; table-mode output is byte-identical.
#include <string>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/acpi/machine.h"
#include "src/acpi/power_meter.h"
#include "src/common/report.h"
#include "src/scenario/registry.h"
#include "src/sim/cooling.h"
#include "src/sim/dc_sim.h"
#include "src/sim/trace.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;
using sim::DcResult;
using sim::GenerateTrace;
using sim::RunAllPolicies;
using sim::Trace;
using sim::WithMemoryRatio;

// ---------------------------------------------------------------------------
// Table 3: energy consumption of the two testbed machines in the seven
// measured configurations (percent of each machine's maximum), plus the Sz
// estimate computed with equation (1):
//   E(Sz) = (E(S0WIBOn) - E(S0WIBOff)) + (E(S3WIB) - E(S3WOIB)) + E(S3WOIB)
// ---------------------------------------------------------------------------

Report RunTable3(const RunContext& ctx) {
  using acpi::Machine;
  using acpi::MachineProfile;
  using acpi::MeasuredConfig;
  using acpi::MeasuredConfigName;
  using acpi::PowerMeter;
  using acpi::SleepState;

  Report r = ctx.MakeReport();
  r.Text("== Table 3: machine energy per configuration (% of max) ==\n\n");

  const std::vector<MachineProfile> machines = {
      MachineProfile::HpCompaqElite8300(), MachineProfile::DellPrecisionT5810()};

  std::vector<std::string> header = {"machine"};
  for (std::size_t c = 0; c < acpi::kMeasuredConfigCount; ++c) {
    header.emplace_back(MeasuredConfigName(static_cast<MeasuredConfig>(c)));
  }
  header.emplace_back("Sz (eq.1)");
  header.emplace_back("Sz (model)");

  auto& table = r.AddTable("configs", "", header);
  for (const auto& m : machines) {
    std::vector<std::string> row = {m.name()};
    for (std::size_t c = 0; c < acpi::kMeasuredConfigCount; ++c) {
      row.push_back(Report::Num(m.ConfigPercent(static_cast<MeasuredConfig>(c)), 2));
    }
    row.push_back(Report::Num(m.SzPercent(), 2));
    row.push_back(Report::Num(m.SzModelPercent(), 2));
    table.Row(row);
    r.Metric("sz_percent_" + m.name(), m.SzPercent());
  }

  r.Text("\nPaper Sz estimates: HP 12.67%, Dell 11.15% — reproduced by eq. (1).\n");

  // Cross-check with the simulated PowerSpy2: integrate a zombie machine
  // for one hour and compare the average draw with the analytic estimate.
  r.Text("\nPowerMeter cross-check (1h in Sz):\n");
  auto& meter_table =
      r.AddTable("power_meter", "", {"machine", "avg draw %", "energy (Wh)"});
  for (const auto& profile : machines) {
    Machine machine(profile.name(), profile, /*sz_capable=*/true);
    if (!machine.Suspend(SleepState::kSz).ok()) {
      continue;
    }
    PowerMeter meter(&machine);
    meter.Sample(kHour);
    meter_table.Row({profile.name(), Report::Num(meter.average_percent(), 2),
                     Report::Num(meter.energy_joules() / 3600.0, 1)});
  }
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("table3")
        .Title("Table 3: machine energy per configuration (% of max)")
        .Description("The seven measured power configurations plus the "
                     "eq. (1) Sz estimate and a PowerMeter cross-check")
        .Runner(RunTable3));

// ---------------------------------------------------------------------------
// Figure 10: datacenter energy saving of Neat, Oasis and ZombieStack versus
// a no-consolidation baseline, on both machine profiles (HP, Dell), with the
// original trace shape (top) and the modified traces where memory demand is
// twice the CPU demand (bottom).
// ---------------------------------------------------------------------------

sim::TraceConfig Fig10Trace() {
  sim::TraceConfig config;
  config.seed = 2018;
  config.servers = 200;
  config.tasks = 4000;
  config.horizon = 2 * kDay;
  config.target_cpu_load = 0.35;
  return config;
}

Report RunFig10(const RunContext& ctx) {
  using acpi::MachineProfile;

  Report r = ctx.MakeReport();
  r.Text("== Figure 10: % energy saving vs no-consolidation baseline ==\n\n");

  const Trace original = GenerateTrace(Fig10Trace());
  const Trace modified = WithMemoryRatio(original, 2.0);

  // trace_shape (outer axis) groups the grid into the paper's (top)/(bottom)
  // tables; machine is the row axis.
  const std::vector<std::string> machines = ctx.Axis("machine");
  std::vector<std::string> machine_rows;
  for (const std::string& key : machines) {
    machine_rows.push_back(MachineProfileFromKey(key).name());
  }

  // One table per trace shape, created up front in shape-axis order (the
  // shape axis is outermost, so this matches the old per-point creation
  // order byte for byte) — the points are then independent and -j N can
  // schedule them across workers.
  const std::vector<std::string> shapes = ctx.Axis("trace_shape");
  std::vector<report::SweepTable> tables;
  tables.reserve(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    if (s > 0) {  // blank line between consecutive shape tables
      r.Text("\n");
    }
    const bool modified_shape = shapes[s] == "modified";
    tables.push_back(r.AddSweepTable(
        modified_shape ? "modified" : "original",
        modified_shape ? "(bottom) Modified traces (memory demand = 2x CPU demand):"
                       : "(top) Original trace shape:",
        "machine", machine_rows, {"Neat", "Oasis", "ZombieStack"}));
  }
  std::vector<DcResult> dell_modified;  // written by at most one point
  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    const bool modified_shape = pt.Value("trace_shape") == "modified";
    report::SweepTable& table = tables[pt.AxisIndex("trace_shape")];
    const std::vector<DcResult> results = RunAllPolicies(
        modified_shape ? modified : original, MachineProfileFromKey(pt.Value("machine")));
    const std::size_t row = pt.AxisIndex("machine");
    for (std::size_t p = 0; p < 3; ++p) {
      table.Set(row, p, Report::Num(results[p + 1].saving_percent, 0) + "%");
    }
    rec.Metric("saving_percent_neat", results[1].saving_percent);
    rec.Metric("saving_percent_oasis", results[2].saving_percent);
    rec.Metric("saving_percent_zombiestack", results[3].saving_percent);
    for (std::size_t p = 1; p < results.size(); ++p) {
      RecordDecisionMetrics(rec, results[p]);
    }
    if (modified_shape && pt.Value("machine") == "dell") {
      dell_modified = results;
    }
  });

  r.Text(
      "\nPaper: (top) Neat 36/36, Oasis 40/40, ZombieStack 54/56;\n"
      "       (bottom) Neat 36/36, Oasis 42/42, ZombieStack 65/67.\n"
      "Shape: ZombieStack > Oasis > Neat, with the gap widening on the\n"
      "memory-heavy traces (ZombieStack up to ~86% better than Neat).\n");

  // The headline relative improvements of the abstract, from the Dell run of
  // the modified-trace table (re-simulated only if the sweep dropped Dell).
  std::vector<DcResult> results = std::move(dell_modified);
  if (results.empty()) {
    results = RunAllPolicies(modified, MachineProfile::DellPrecisionT5810());
  }
  const double vs_neat =
      100.0 * (results[3].saving_percent - results[1].saving_percent) /
      results[1].saving_percent;
  const double vs_oasis =
      100.0 * (results[3].saving_percent - results[2].saving_percent) /
      results[2].saving_percent;
  r.Metric("zombiestack_saving_percent_dell_modified", results[3].saving_percent);
  r.Metric("relative_improvement_vs_neat_percent", vs_neat);
  r.Metric("relative_improvement_vs_oasis_percent", vs_oasis);
  r.Text(StrPrintf(
      "\nMeasured (Dell, modified traces): ZombieStack saves %.0f%%; relative\n"
      "improvement %.0f%% over Neat (paper ~86%%) and %.0f%% over Oasis (paper ~59%%).\n",
      results[3].saving_percent, vs_neat, vs_oasis));
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("fig10")
        .Title("Figure 10: % energy saving vs no-consolidation baseline")
        .Description("Neat vs Oasis vs ZombieStack on both machines, original "
                     "and memory-heavy traces")
        .Param({.name = "trace_shape",
                .description = "trace transform axis",
                .choices = {"original", "modified"}})
        .Param({.name = "machine",
                .description = "Table-3 machine profile axis",
                .choices = {"hp", "dell"}})
        .Sweep({.axes = {{"trace_shape", {"original", "modified"}},
                         {"machine", {"hp", "dell"}}}})
        .Runner(RunFig10));

// ---------------------------------------------------------------------------
// Extension: facility-level savings including cooling (paper footnote 1),
// quantified with a load-dependent partial-PUE model, plus the consolidation
// cost metrics (wake-ups, delayed placements).
// ---------------------------------------------------------------------------

sim::TraceConfig ExtCoolingTrace() {
  sim::TraceConfig config;
  config.seed = 2018;
  config.servers = 200;
  config.tasks = 4000;
  config.horizon = 2 * kDay;
  return config;
}

Report RunExtCooling(const RunContext& ctx) {
  using sim::PueAt;

  Report r = ctx.MakeReport();
  r.Text("== Extension: cooling-inclusive facility savings (footnote 1) ==\n\n");
  r.Text(StrPrintf("Partial PUE model: %.2f at full IT load, %.2f near idle.\n\n",
                   PueAt(1.0), PueAt(0.0)));

  const Trace trace = WithMemoryRatio(GenerateTrace(ExtCoolingTrace()), 2.0);

  const auto profile = acpi::MachineProfile::DellPrecisionT5810();
  auto& table = r.AddTable("facility", "",
                           {"policy", "IT saving", "facility saving", "wake-ups",
                            "delayed placements"});
  for (const DcResult& result : RunAllPolicies(trace, profile)) {
    table.Row({std::string(PolicyName(result.policy)),
               Report::Num(result.saving_percent, 1) + "%",
               Report::Num(result.facility_saving_percent, 1) + "%",
               std::to_string(result.wakeups),
               std::to_string(result.delayed_placements)});
    RecordDecisionMetrics(r, result);
  }

  r.Text(
      "\nFacility savings exceed IT savings: consolidated load runs the cooling\n"
      "plant closer to its efficient point while zombies dissipate almost no\n"
      "heat — the footnote-1 effect.  Wake-ups and delayed placements are the\n"
      "price consolidation pays on arrival bursts.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ext_cooling")
        .Title("Extension: cooling-inclusive facility savings (footnote 1)")
        .Description("IT vs facility-level savings under a load-dependent "
                     "partial-PUE model, with consolidation costs")
        .Runner(RunExtCooling));

}  // namespace
}  // namespace zombie::scenario
