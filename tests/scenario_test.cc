// Tests for the scenario subsystem (PR 3): ScenarioBuilder validation,
// registry lookup/listing, the Report JSON/CSV emitters (round-trip), the
// hardened Result<T> helpers, centralized smoke scaling, and golden
// byte-compares of the fig08/table1 table-mode smoke output against the
// pre-port bench binaries.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/report.h"
#include "src/common/result.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"

#include "tests/golden/ablation_mixed_depth_smoke_table.inc"
#include "tests/golden/fig08_smoke_table.inc"
#include "tests/golden/table1_smoke_table.inc"

namespace zombie::scenario {
namespace {

using report::Format;
using report::Report;

Scenario::RunFn NopRunner() {
  return [](const RunContext& ctx) { return ctx.MakeReport(); };
}

// ---------------------------------------------------------------------------
// Builder validation.
// ---------------------------------------------------------------------------

TEST(ScenarioBuilderTest, MinimalSpecBuilds) {
  auto scenario = ScenarioBuilder("t").Title("a title").Runner(NopRunner()).Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario.value().name(), "t");
}

TEST(ScenarioBuilderTest, RejectsEmptyName) {
  auto scenario = ScenarioBuilder("").Title("t").Runner(NopRunner()).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ScenarioBuilderTest, RejectsWhitespaceName) {
  auto scenario = ScenarioBuilder("bad name").Title("t").Runner(NopRunner()).Build();
  EXPECT_FALSE(scenario.ok());
}

TEST(ScenarioBuilderTest, RejectsMissingTitle) {
  auto scenario = ScenarioBuilder("t").Runner(NopRunner()).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("title"), std::string::npos);
}

TEST(ScenarioBuilderTest, RejectsMissingRunner) {
  auto scenario = ScenarioBuilder("t").Title("t").Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("run function"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sweep combinator: builder validation.
// ---------------------------------------------------------------------------

ScenarioBuilder SweptBuilder() {
  return std::move(ScenarioBuilder("swept")
                       .Title("t")
                       .Param("policy", ParamType::kString, "", "")
                       .Param("fraction", ParamType::kDouble, "", "")
                       .Runner(NopRunner()));
}

TEST(SweepSpecTest, CrossSweepBuilds) {
  auto scenario = SweptBuilder()
                      .Sweep({.axes = {{"policy", {"FIFO", "Mixed"}},
                                       {"fraction", {"0.2", "0.5"}}}})
                      .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
}

TEST(SweepSpecTest, RejectsUndeclaredAxisParameter) {
  auto scenario = SweptBuilder().Sweep({.axes = {{"nope", {"1"}}}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("not a declared parameter"),
            std::string::npos);
}

TEST(SweepSpecTest, RejectsEmptyAxis) {
  auto scenario = SweptBuilder().Sweep({.axes = {{"policy", {}}}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("no values"), std::string::npos);
}

TEST(SweepSpecTest, RejectsDuplicateAxis) {
  auto scenario = SweptBuilder()
                      .Sweep({.axes = {{"policy", {"FIFO"}}, {"policy", {"Mixed"}}}})
                      .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("duplicate sweep axis"),
            std::string::npos);
}

TEST(SweepSpecTest, RejectsRepeatedAxisValue) {
  auto scenario =
      SweptBuilder().Sweep({.axes = {{"fraction", {"0.2", "0.5", "0.2"}}}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find(
                "sweep axis 'fraction': value '0.2' is listed twice"),
            std::string::npos)
      << scenario.status().message();
}

TEST(SweepSpecTest, RejectsMistypedAxisValue) {
  auto scenario =
      SweptBuilder().Sweep({.axes = {{"fraction", {"0.2", "lots"}}}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("not a finite number"),
            std::string::npos);
}

TEST(SweepSpecTest, RejectsValueOutsideChoices) {
  auto scenario = ScenarioBuilder("t")
                      .Title("t")
                      .Param({.name = "policy", .choices = {"FIFO", "Clock"}})
                      .Sweep({.axes = {{"policy", {"FIFO", "Mixed"}}}})
                      .Runner(NopRunner())
                      .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("not one of"), std::string::npos);
}

TEST(SweepSpecTest, RejectsDuplicateAndMistypedParams) {
  auto dup = ScenarioBuilder("t")
                 .Title("t")
                 .Param("x", ParamType::kU64, "", "")
                 .Param("x", ParamType::kU64, "", "")
                 .Runner(NopRunner())
                 .Build();
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate parameter"), std::string::npos);
  auto bad_default = ScenarioBuilder("t")
                         .Title("t")
                         .Param("x", ParamType::kU64, "-3", "")
                         .Runner(NopRunner())
                         .Build();
  ASSERT_FALSE(bad_default.ok());
  EXPECT_NE(bad_default.status().message().find("unsigned 64-bit integer"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Sweep combinator: expansion.
// ---------------------------------------------------------------------------

ScenarioSpec SweptSpec() {
  ScenarioSpec spec;
  spec.name = "swept";
  spec.title = "t";
  spec.params = {{"policy", ParamType::kString, "", "", {}},
                 {"fraction", ParamType::kDouble, "", "", {}}};
  spec.sweep = {{{"policy", {"FIFO", "Clock", "Mixed"}},
                 {"fraction", {"0.2", "0.5", "0.8"}}}};
  return spec;
}

TEST(SweepExpansionTest, CrossProductCountAndOrder) {
  const ScenarioSpec spec = SweptSpec();
  RunOptions options;
  RunContext ctx(spec, options);
  const auto points = ctx.SweepPoints();
  ASSERT_EQ(points.size(), 9u);  // 3 policies x 3 fractions
  // First axis outermost: policy changes every 3 points.
  EXPECT_EQ(points[0].Value("policy"), "FIFO");
  EXPECT_EQ(points[0].Value("fraction"), "0.2");
  EXPECT_EQ(points[2].Value("fraction"), "0.8");
  EXPECT_EQ(points[3].Value("policy"), "Clock");
  EXPECT_EQ(points[8].Value("policy"), "Mixed");
  EXPECT_EQ(points[8].AxisIndex("policy"), 2u);
  EXPECT_EQ(points[8].AxisIndex("fraction"), 2u);
  EXPECT_EQ(points[4].index(), 4u);
  EXPECT_EQ(points[4].Double("fraction"), 0.5);
}

TEST(SweepExpansionTest, NoSweepMeansNoPoints) {
  ScenarioSpec spec;
  RunOptions options;
  EXPECT_TRUE(RunContext(spec, options).SweepPoints().empty());
}

TEST(SweepExpansionTest, SetOverrideReplacesAxisValues) {
  const ScenarioSpec spec = SweptSpec();
  RunOptions options;
  options.params["fraction"] = "0.1,0.9";
  RunContext ctx(spec, options);
  EXPECT_EQ(ctx.Axis("fraction"), (std::vector<std::string>{"0.1", "0.9"}));
  const auto doubles = ctx.AxisDoubles("fraction");
  ASSERT_EQ(doubles.size(), 2u);
  EXPECT_EQ(doubles[1], 0.9);
  EXPECT_EQ(ctx.SweepPoints().size(), 6u);  // 3 policies x 2 fractions
}

TEST(SweepExpansionTest, U64AxisParses) {
  ScenarioSpec spec;
  spec.name = "t";
  spec.title = "t";
  spec.params = {{"depth", ParamType::kU64, "", "", {}}};
  spec.sweep = {{{"depth", {"1", "16", "256"}}}};
  RunOptions options;
  RunContext ctx(spec, options);
  EXPECT_EQ(ctx.AxisU64s("depth"), (std::vector<std::uint64_t>{1, 16, 256}));
  EXPECT_EQ(ctx.SweepPoints()[2].U64("depth"), 256u);
}

// ---------------------------------------------------------------------------
// CLI --set validation against the declared parameter table.
// ---------------------------------------------------------------------------

TEST(RunParamsTest, RejectsUndeclaredKeyNamingDeclaredOnes) {
  const ScenarioSpec spec = SweptSpec();
  RunOptions options;
  options.params["polcy"] = "FIFO";
  const Status status = ValidateRunParams(spec, options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no parameter 'polcy'"), std::string::npos);
  EXPECT_NE(status.message().find("policy"), std::string::npos);
}

TEST(RunParamsTest, RejectsNonFiniteOverflowAndOutOfRangeValues) {
  ParamSpec fraction{"f", ParamType::kDouble, "", "", {},
                     ParamRange{0.0, 1.0, /*min_exclusive=*/true}};
  EXPECT_FALSE(CheckParamValue(fraction, "nan").ok());
  EXPECT_FALSE(CheckParamValue(fraction, "inf").ok());
  EXPECT_FALSE(CheckParamValue(fraction, "0").ok());     // exclusive min
  EXPECT_FALSE(CheckParamValue(fraction, "1.5").ok());
  EXPECT_TRUE(CheckParamValue(fraction, "1").ok());      // inclusive max
  EXPECT_TRUE(CheckParamValue(fraction, "0.25").ok());
  EXPECT_TRUE(CheckParamValue(fraction, ".5").ok());
  EXPECT_TRUE(CheckParamValue(fraction, "5e-1").ok());
  // strtod would take these, and they would render as point keys that no
  // --filter value matches.
  EXPECT_FALSE(CheckParamValue(fraction, " 0.5").ok());  // leading whitespace
  EXPECT_FALSE(CheckParamValue(fraction, "0x1p-1").ok());  // hex float
  EXPECT_NE(CheckParamValue(fraction, "0x1p-1").message().find("is not a finite number"),
            std::string::npos);
  ParamSpec depth{"d", ParamType::kU64, "", "", {}, ParamRange{.min = 1}};
  EXPECT_FALSE(CheckParamValue(depth, "0").ok());
  EXPECT_FALSE(CheckParamValue(depth, "18446744073709551617").ok());  // > 2^64-1
  EXPECT_TRUE(CheckParamValue(depth, "18446744073709551615").ok());
}

TEST(RunParamsTest, RejectsMistypedValueAndAcceptsAxisList) {
  const ScenarioSpec spec = SweptSpec();
  RunOptions bad;
  bad.params["fraction"] = "0.2,zero";
  EXPECT_FALSE(ValidateRunParams(spec, bad).ok());
  RunOptions good;
  good.params["fraction"] = "0.25,0.75";
  EXPECT_TRUE(ValidateRunParams(spec, good).ok());
}

TEST(RunParamsTest, RunFailsCleanlyOnUnknownSetKey) {
  auto found = ScenarioRegistry::Instance().Find("fig08");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.smoke = true;
  options.params["bogus"] = "1";
  auto report = found.value()->Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST(RunParamsTest, DeclaredDefaultBacksParamGetters) {
  ScenarioSpec spec;
  spec.params = {{"ratio", ParamType::kDouble, "2.5", "", {}},
                 {"count", ParamType::kU64, "7", "", {}}};
  RunOptions options;
  RunContext ctx(spec, options);
  EXPECT_FALSE(ctx.HasParam("ratio"));  // HasParam stays CLI-only
  EXPECT_EQ(ctx.ParamDouble("ratio"), 2.5);
  EXPECT_EQ(ctx.ParamU64("count"), 7u);
  options.params["ratio"] = "4.0";
  EXPECT_EQ(RunContext(spec, options).ParamDouble("ratio"), 4.0);
}

// A run function reads the one declared default, in full and smoke runs
// alike: no second default can hide in the run function.
TEST(RunParamsTest, RunFunctionSeesDeclaredDefaultInSmokeAndFullRuns) {
  std::uint64_t seen = 0;
  auto scenario = ScenarioBuilder("t")
                      .Title("t")
                      .Param({.name = "horizon_ms", .type = ParamType::kU64,
                              .default_value = "10000"})
                      .Runner([&seen](const RunContext& ctx) {
                        seen = ctx.ParamU64("horizon_ms");
                        return ctx.MakeReport();
                      })
                      .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (const bool smoke : {false, true}) {
    seen = 0;
    RunOptions options;
    options.smoke = smoke;
    ASSERT_TRUE(scenario.value().Run(options).ok());
    EXPECT_EQ(seen, 10000u) << "smoke=" << smoke;
  }
}

// ---------------------------------------------------------------------------
// The sweep-aware report section.
// ---------------------------------------------------------------------------

TEST(SweepTableTest, FillsPivotCellsInAnyOrder) {
  Report r("s", "t");
  auto grid = r.AddSweepTable("g", "", "row", {"a", "b"}, {"x", "y"});
  grid.Set(1, 1, "b-y");
  grid.Set(0, 0, "a-x");
  grid.Set(0, 1, "a-y");
  grid.Set(1, 0, "b-x");
  ASSERT_EQ(r.tables().size(), 1u);
  const auto& table = r.tables()[0];
  EXPECT_EQ(table.columns(), (std::vector<std::string>{"row", "x", "y"}));
  EXPECT_EQ(table.rows()[0], (std::vector<std::string>{"a", "a-x", "a-y"}));
  EXPECT_EQ(table.rows()[1], (std::vector<std::string>{"b", "b-x", "b-y"}));
}

TEST(SweepTableTest, HandleSurvivesLaterTableAdditions) {
  Report r("s", "t");
  auto first = r.AddSweepTable("g1", "", "row", {"a"}, {"x"});
  // Force tables_ growth: the handle must keep addressing its own table.
  for (int i = 0; i < 16; ++i) {
    r.AddTable("t" + std::to_string(i), "", {"c"});
  }
  first.Set(0, 0, "value");
  EXPECT_EQ(r.tables()[0].rows()[0],
            (std::vector<std::string>{"a", "value"}));
}

// ---------------------------------------------------------------------------
// Smoke scaling (the centralized ZOMBIE_BENCH_SMOKE replacement).
// ---------------------------------------------------------------------------

TEST(RunContextTest, ScaledAccessesCapsOnlyInSmokeMode) {
  ScenarioSpec spec;
  RunOptions full;
  EXPECT_EQ(RunContext(spec, full).ScaledAccesses(5'000'000), 5'000'000u);
  RunOptions smoke;
  smoke.smoke = true;
  EXPECT_EQ(kSmokeAccesses, 20'000u);
  EXPECT_EQ(RunContext(spec, smoke).ScaledAccesses(5'000'000), kSmokeAccesses);
  EXPECT_EQ(RunContext(spec, smoke).ScaledAccesses(500), 500u);
}

TEST(RunContextTest, ProfileAppliesOverridesAndSmoke) {
  // The calibrated profile, with only the smoke cap applied.
  ScenarioSpec spec;
  const auto calibrated = workloads::ProfileFor(workloads::App::kElasticsearch);
  ASSERT_GT(calibrated.accesses, kSmokeAccesses);
  RunOptions full;
  EXPECT_EQ(RunContext(spec, full).Profile(workloads::App::kElasticsearch).accesses,
            calibrated.accesses);
  RunOptions smoke;
  smoke.smoke = true;
  const auto profile =
      RunContext(spec, smoke).Profile(workloads::App::kElasticsearch);
  EXPECT_EQ(profile.reserved_memory, calibrated.reserved_memory);
  EXPECT_EQ(profile.working_set, calibrated.working_set);
  EXPECT_EQ(profile.accesses, kSmokeAccesses);
}

TEST(RunContextTest, ParamsParseAndFallBack) {
  ScenarioSpec spec;
  spec.params = {{"tasks", ParamType::kU64, "7", "", {}},
                 {"policy", ParamType::kString, "Mixed", "", {}}};
  RunOptions options;
  options.params["servers"] = "42";
  options.params["ratio"] = "2.5";
  RunContext ctx(spec, options);
  EXPECT_TRUE(ctx.HasParam("servers"));
  EXPECT_FALSE(ctx.HasParam("tasks"));
  EXPECT_EQ(ctx.ParamU64("servers"), 42u);
  EXPECT_EQ(ctx.ParamU64("tasks"), 7u);  // falls back to the declared default
  EXPECT_EQ(ctx.ParamDouble("ratio"), 2.5);
  EXPECT_EQ(ctx.Param("policy"), "Mixed");
  // A parameter with neither a CLI value nor a declared default aborts.
  EXPECT_DEATH(ctx.Param("missing"), "declares no default");
}

// ---------------------------------------------------------------------------
// Registry lookup / listing.
// ---------------------------------------------------------------------------

TEST(ScenarioRegistryTest, CatalogHasAtLeastFifteenScenarios) {
  EXPECT_GE(ScenarioRegistry::Instance().size(), 15u);
}

TEST(ScenarioRegistryTest, FindsEveryListedScenarioByName) {
  const auto all = ScenarioRegistry::Instance().List();
  ASSERT_FALSE(all.empty());
  for (const Scenario* scenario : all) {
    auto found = ScenarioRegistry::Instance().Find(scenario->name());
    ASSERT_TRUE(found.ok()) << scenario->name();
    EXPECT_EQ(found.value(), scenario);
  }
}

TEST(ScenarioRegistryTest, ListIsNameSorted) {
  const auto all = ScenarioRegistry::Instance().List();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());
  }
}

TEST(ScenarioRegistryTest, UnknownNameIsNotFoundWithHint) {
  auto found = ScenarioRegistry::Instance().Find("fig0");
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), ErrorCode::kNotFound);
  // Prefix hint: fig01..fig10 all match.
  EXPECT_NE(found.status().message().find("fig08"), std::string::npos);
}

TEST(ScenarioRegistryTest, SuggestsClosestNameByEditDistance) {
  // A transposition typo has edit distance 2 but no prefix relation.
  auto found = ScenarioRegistry::Instance().Find("tabel2");
  ASSERT_FALSE(found.ok());
  EXPECT_NE(found.status().message().find("did you mean"), std::string::npos);
  EXPECT_NE(found.status().message().find("table2"), std::string::npos);
  // The closest match leads the list.
  auto fig8 = ScenarioRegistry::Instance().Find("fig8");
  ASSERT_FALSE(fig8.ok());
  EXPECT_NE(fig8.status().message().find("did you mean: fig08"), std::string::npos);
  // Nothing close: no suggestion block at all.
  auto garbage = ScenarioRegistry::Instance().Find("qqqqqqqqqqqq");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().message().find("did you mean"), std::string::npos);
}

TEST(ScenarioRegistryTest, PaperFiguresAreRegistered) {
  for (const char* name : {"fig01", "fig02", "fig03", "fig04", "fig08", "fig09",
                           "fig10", "table1", "table2", "table2b", "table3",
                           "ablation_buff_size", "ablation_local_floor",
                           "ablation_mixed_depth", "ext_cooling", "ex_quickstart",
                           "ex_rack_consolidation", "ex_remote_swap",
                           "ex_vm_migration", "ex_datacenter_energy"}) {
    EXPECT_TRUE(ScenarioRegistry::Instance().Find(name).ok()) << name;
  }
}

TEST(ScenarioRegistryTest, DuplicateRegistrationConflicts) {
  ScenarioRegistry registry;
  auto scenario = ScenarioBuilder("dup").Title("t").Runner(NopRunner()).Build();
  ASSERT_TRUE(scenario.ok());
  EXPECT_TRUE(registry.Register(scenario.value()).ok());
  EXPECT_EQ(registry.Register(scenario.value()).code(), ErrorCode::kConflict);
}

// ---------------------------------------------------------------------------
// Report emitters.
// ---------------------------------------------------------------------------

Report SampleReport() {
  Report r("sample", "A \"quoted\" title\nwith newline");
  r.Text("== banner ==\n\n");
  auto& table = r.AddTable("t1", "first table:", {"name", "value"});
  table.Row({"plain", "1.00"});
  table.Row({"comma, cell", "2.50"});
  table.Row({"has \"quotes\"", "inf"});
  r.Text("\n");
  auto& second = r.AddTable("t2", "", {"x"});
  second.Row({"y"});
  r.Metric("best_percent", 12.5);
  r.Metric("not_finite", 1.0 / 0.0);
  r.Text("\ntrailing note\n");
  return r;
}

TEST(ReportTest, JsonIsSchemaValid) {
  const Report r = SampleReport();
  const std::string json = r.RenderJson();
  EXPECT_TRUE(report::ValidateJson(json).ok())
      << report::ValidateJson(json).ToString() << "\n" << json;
  EXPECT_TRUE(report::ValidateReportJson(json).ok());
  // Escaped title and non-finite metric handling.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"not_finite\": null"), std::string::npos);
  EXPECT_NE(json.find("\"best_percent\": 12.5"), std::string::npos);
}

TEST(ReportTest, JsonRoundTripsCellsAndColumns) {
  const std::string json = SampleReport().RenderJson();
  // Every cell value must survive into the document (with escaping).
  EXPECT_NE(json.find("\"comma, cell\""), std::string::npos);
  EXPECT_NE(json.find("has \\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"columns\": [\"name\", \"value\"]"), std::string::npos);
}

TEST(ReportTest, ValidatorRejectsMalformedJson) {
  EXPECT_FALSE(report::ValidateJson("{\"a\": }").ok());
  EXPECT_FALSE(report::ValidateJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(report::ValidateJson("{\"a\": \"unterminated}").ok());
  EXPECT_FALSE(report::ValidateJson("[1, 2").ok());
  EXPECT_FALSE(report::ValidateJson("{} trailing").ok());
  EXPECT_TRUE(report::ValidateJson("[1, 2.5, -3e4, true, null, \"s\"]").ok());
  EXPECT_TRUE(report::ValidateJson("{\"nested\": {\"a\": [{}]}}").ok());
  // Schema check needs the report keys.
  EXPECT_FALSE(report::ValidateReportJson("{\"schema\": 1}").ok());
}

// A tiny CSV reader for the round-trip check: splits `text` into rows of
// cells, honouring RFC-4180 quoting, skipping comment/blank lines.
std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '#') {  // comment line
      while (i < text.size() && text[i] != '\n') {
        ++i;
      }
      ++i;
      continue;
    }
    if (text[i] == '\n') {
      ++i;
      continue;
    }
    std::vector<std::string> row;
    std::string cell;
    while (i < text.size() && text[i] != '\n') {
      if (text[i] == '"') {
        ++i;
        while (i < text.size()) {
          if (text[i] == '"' && i + 1 < text.size() && text[i + 1] == '"') {
            cell += '"';
            i += 2;
          } else if (text[i] == '"') {
            ++i;
            break;
          } else {
            cell += text[i++];
          }
        }
      } else if (text[i] == ',') {
        row.push_back(cell);
        cell.clear();
        ++i;
      } else {
        cell += text[i++];
      }
    }
    row.push_back(cell);
    rows.push_back(row);
    ++i;
  }
  return rows;
}

TEST(ReportTest, CsvRoundTrip) {
  const Report r = SampleReport();
  const auto rows = ParseCsv(r.RenderCsv());
  // t1: header + 3 rows; t2: header + 1 row.
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "value"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"plain", "1.00"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"comma, cell", "2.50"}));
  EXPECT_EQ(rows[3], (std::vector<std::string>{"has \"quotes\"", "inf"}));
  EXPECT_EQ(rows[4], (std::vector<std::string>{"x"}));
  EXPECT_EQ(rows[5], (std::vector<std::string>{"y"}));
}

TEST(ReportTest, NumAndPenaltyFormatting) {
  EXPECT_EQ(Report::Num(12.345, 2), "12.35");
  EXPECT_EQ(Report::Num(7, 0), "7");
  EXPECT_EQ(Report::Penalty(8.0), "8.00%");
  EXPECT_EQ(Report::Penalty(42.25), "42.2%");
  EXPECT_EQ(Report::Penalty(9000.0), "9k%");
  EXPECT_EQ(Report::Penalty(1.0 / 0.0), "inf");
  EXPECT_EQ(Report::Int(123), "123");
}

TEST(ReportTest, TableTextAlignsColumns) {
  Report r("aligned", "");
  auto& table = r.AddTable("t", "", {"a", "bee"});
  table.Row({"1", "2"});
  table.Row({"333", "4"});
  EXPECT_EQ(r.RenderTableText(), "a    bee\n--------\n1    2\n333  4\n");
}

// Penalty cells of the text tables, formatted like the paper: "8.00%",
// "15.6%", "9k%", "inf".
TEST(TextTable, PenaltyFormatting) {
  EXPECT_EQ(Report::Penalty(8.0), "8.00%");
  EXPECT_EQ(Report::Penalty(15.6), "15.6%");
  EXPECT_EQ(Report::Penalty(9000.0), "9k%");
  EXPECT_EQ(Report::Penalty(2e7), "inf");
}

// ---------------------------------------------------------------------------
// Result<T> hardening helpers.
// ---------------------------------------------------------------------------

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return Result<int>(ErrorCode::kInvalidArgument, "not positive");
  }
  return v;
}

Status UseAssignOrReturn(int v, int* out) {
  ZOMBIE_ASSIGN_OR_RETURN(const int parsed, ParsePositive(v));
  ZOMBIE_RETURN_IF_ERROR(Status::Ok());
  *out = parsed * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagatesValueAndError) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  const Status failed = UseAssignOrReturn(-1, &out);
  EXPECT_EQ(failed.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(out, 42);  // untouched on the error path
}

TEST(ResultTest, ValueOrOnBothReferenceKinds) {
  const Result<std::string> good(std::string("yes"));
  const std::string fallback = "no";
  EXPECT_EQ(good.value_or(fallback), "yes");
  Result<std::string> bad(ErrorCode::kNotFound, "missing");
  EXPECT_EQ(bad.value_or(fallback), "no");
  EXPECT_EQ(Result<std::string>(std::string("moved")).value_or("no"), "moved");
  EXPECT_EQ(Result<std::string>(ErrorCode::kTimeout, "t").value_or("fb"), "fb");
}

// ---------------------------------------------------------------------------
// Golden byte-compares: fig08/table1 table output against the pre-port
// binaries' smoke-mode stdout.
// ---------------------------------------------------------------------------

std::string RunTableSmoke(const char* name) {
  auto found = ScenarioRegistry::Instance().Find(name);
  if (!found.ok()) {
    ADD_FAILURE() << found.status().ToString();
    return {};
  }
  RunOptions options;
  options.smoke = true;
  auto report = found.value()->Run(options);
  if (!report.ok()) {
    ADD_FAILURE() << report.status().ToString();
    return {};
  }
  return report.value().RenderTableText();
}

TEST(ScenarioGoldenTest, Fig08TableSmokeMatchesPrePortBinary) {
  // The .inc capture drops the trailing newline of the original stdout.
  EXPECT_EQ(RunTableSmoke("fig08"), std::string(kFig08SmokeGolden) + "\n");
}

TEST(ScenarioGoldenTest, Table1TableSmokeMatchesPrePortBinary) {
  EXPECT_EQ(RunTableSmoke("table1"), std::string(kTable1SmokeGolden) + "\n");
}

// fig08 (above) and this ablation are SweepSpec-driven since PR 4; their
// consolidated sweep tables must render byte-identically to the pre-port
// hand-written loops.
TEST(ScenarioGoldenTest, AblationMixedDepthSweepMatchesPrePortOutput) {
  EXPECT_EQ(RunTableSmoke("ablation_mixed_depth"),
            std::string(kAblationMixedDepthSmokeGolden) + "\n");
}

// Every registered scenario must produce a schema-valid JSON document in
// smoke mode (the ctest scenario_cli gate re-checks this through the CLI).
TEST(ScenarioGoldenTest, EveryScenarioEmitsSchemaValidJsonInSmokeMode) {
  RunOptions options;
  options.smoke = true;
  for (const Scenario* scenario : ScenarioRegistry::Instance().List()) {
    SCOPED_TRACE(scenario->name());
    auto report = scenario->Run(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string json = report.value().RenderJson();
    EXPECT_TRUE(report::ValidateReportJson(json).ok())
        << report::ValidateReportJson(json).ToString();
    EXPECT_TRUE(report.value().smoke());
  }
}

}  // namespace
}  // namespace zombie::scenario
