// Tests for sweep points as first-class runs (PR 5): ForEachSweepPoint
// scheduling and per-point records, the --filter sweep subsets, the --set
// axis-vs-scalar diagnostic (the err.txt regression), per-scenario option
// routing for mixed axis/scalar declarations, shortest round-trip JSON
// numbers, the JSON document model, and cross-run diffing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/report.h"
#include "src/common/result.h"
#include "src/scenario/diff.h"
#include "src/scenario/driver.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/common/work_queue.h"

namespace zombie::scenario {
namespace {

using report::Report;

// ---------------------------------------------------------------------------
// ForEachSweepPoint: per-point records and point-level parallelism.
// ---------------------------------------------------------------------------

ScenarioSpec TwoAxisSpec() {
  ScenarioSpec spec;
  spec.name = "swept";
  spec.title = "t";
  spec.params = {{"policy", ParamType::kString, "", "", {}},
                 {"fraction", ParamType::kDouble, "", "", {}}};
  spec.sweep = {{{"policy", {"FIFO", "Clock", "Mixed"}},
                 {"fraction", {"0.2", "0.5", "0.8"}}}};
  return spec;
}

TEST(ForEachSweepPointTest, RecordsAxesMetricsInGridOrder) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  RunContext ctx(spec, options);
  Report r("s", "t");
  ctx.ForEachSweepPoint(r, [](const SweepPoint& pt, report::SweepPointRecord& rec) {
    rec.Metric("index", static_cast<double>(pt.index()));
  });
  ASSERT_EQ(r.points().size(), 9u);
  for (std::size_t i = 0; i < r.points().size(); ++i) {
    const report::SweepPointRecord& rec = r.points()[i];
    ASSERT_EQ(rec.axes.size(), 2u);
    EXPECT_EQ(rec.axes[0].first, "policy");
    EXPECT_EQ(rec.axes[1].first, "fraction");
    ASSERT_EQ(rec.metrics.size(), 1u);
    EXPECT_EQ(rec.metrics[0].second, static_cast<double>(i));
  }
  EXPECT_EQ(r.points()[0].axes[0].second, "FIFO");
  EXPECT_EQ(r.points()[0].axes[1].second, "0.2");
  EXPECT_EQ(r.points()[8].axes[0].second, "Mixed");
  EXPECT_EQ(r.points()[8].axes[1].second, "0.8");
}

TEST(ForEachSweepPointTest, ParallelSchedulingMatchesSerialByteForByte) {
  const ScenarioSpec spec = TwoAxisSpec();
  // budget 0 renders without a queue: the serial, grid-order path.
  auto render = [&](int budget) {
    RunOptions options;
    std::unique_ptr<WorkQueue> queue;
    if (budget > 0) {
      queue = std::make_unique<WorkQueue>(budget);
      options.work_queue = queue.get();
    }
    RunContext ctx(spec, options);
    Report r("s", "t");
    auto grid = r.AddSweepTable("g", "", "fraction", {"0.2", "0.5", "0.8"},
                                {"FIFO", "Clock", "Mixed"});
    ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
      grid.Set(pt.AxisIndex("fraction"), pt.AxisIndex("policy"),
               pt.Value("policy") + "@" + pt.Value("fraction"));
      rec.Metric("fraction", pt.Double("fraction"));
    });
    return r.RenderJson();
  };
  const std::string serial = render(0);
  EXPECT_EQ(serial, render(1));
  EXPECT_EQ(serial, render(4));
  EXPECT_EQ(serial, render(16));  // more workers than points
  EXPECT_NE(serial.find("\"points\""), std::string::npos);
}

TEST(ForEachSweepPointTest, WallSecondsOnlyEmittedUnderTimings) {
  const ScenarioSpec spec = TwoAxisSpec();
  for (const bool timings : {false, true}) {
    SCOPED_TRACE(timings);
    RunOptions options;
    options.timings = timings;
    RunContext ctx(spec, options);
    Report r("s", "t");
    ctx.ForEachSweepPoint(r, [](const SweepPoint&, report::SweepPointRecord&) {});
    const std::string json = r.RenderJson();
    EXPECT_TRUE(report::ValidateJson(json).ok());
    EXPECT_EQ(json.find("wall_seconds") != std::string::npos, timings);
  }
}

TEST(ForEachSweepPointTest, NoSweepMeansNoPointsSection) {
  ScenarioSpec spec;
  RunOptions options;
  RunContext ctx(spec, options);
  Report r("s", "t");
  ctx.ForEachSweepPoint(r, [](const SweepPoint&, report::SweepPointRecord&) {
    FAIL() << "no points expected";
  });
  EXPECT_TRUE(r.points().empty());
  EXPECT_EQ(r.RenderJson().find("\"points\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// --filter: validated sweep subsets.
// ---------------------------------------------------------------------------

TEST(FilterTest, SubsetKeepsAxisOrderAndShrinksGrid) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  options.filters["fraction"] = "0.8,0.2";  // CLI order != axis order
  RunContext ctx(spec, options);
  EXPECT_TRUE(ValidateRunParams(spec, options).ok());
  // The subset keeps the axis's own order: a filter never reorders the grid.
  EXPECT_EQ(ctx.Axis("fraction"), (std::vector<std::string>{"0.2", "0.8"}));
  EXPECT_EQ(ctx.SweepPoints().size(), 6u);  // 3 policies x 2 fractions
}

TEST(FilterTest, AppliesOnTopOfSetAxisReplacement) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  options.params["fraction"] = "0.1,0.9";  // axis replacement first
  options.filters["fraction"] = "0.9";     // then the subset
  EXPECT_TRUE(ValidateRunParams(spec, options).ok());
  RunContext ctx(spec, options);
  EXPECT_EQ(ctx.Axis("fraction"), (std::vector<std::string>{"0.9"}));
}

TEST(FilterTest, RejectsUnknownAxisNamingTheRealOnes) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  options.filters["nope"] = "1";
  const Status status = ValidateRunParams(spec, options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not a sweep axis"), std::string::npos);
  EXPECT_NE(status.message().find("policy, fraction"), std::string::npos);
}

TEST(FilterTest, RejectsScalarParameterAsFilterKey) {
  ScenarioSpec spec = TwoAxisSpec();
  spec.params.push_back({"ratio", ParamType::kDouble, "1.0", "", {}});
  RunOptions options;
  options.filters["ratio"] = "1.0";
  const Status status = ValidateRunParams(spec, options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("scalar parameter, not a sweep axis"),
            std::string::npos);
}

TEST(FilterTest, RejectsValueNotOnTheAxis) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  options.filters["fraction"] = "0.2,0.3";
  const Status status = ValidateRunParams(spec, options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'0.3' is not on axis 'fraction'"),
            std::string::npos);
  EXPECT_NE(status.message().find("0.2, 0.5, 0.8"), std::string::npos);
}

TEST(FilterTest, ValidatesAgainstTheReplacedAxis) {
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions options;
  options.params["fraction"] = "0.1,0.9";
  options.filters["fraction"] = "0.5";  // on the spec axis, not the override
  EXPECT_FALSE(ValidateRunParams(spec, options).ok());
}

TEST(FilterTest, RejectsRepeatedValuesOnSetAndFilterLists) {
  // A repeated axis value would run its points twice under one point key.
  const ScenarioSpec spec = TwoAxisSpec();
  RunOptions set;
  set.params["fraction"] = "0.1,0.9,0.1";
  Status status = ValidateRunParams(spec, set);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--set fraction (an axis of scenario 'swept'): "
                                  "value '0.1' is listed twice"),
            std::string::npos)
      << status.message();
  RunOptions filter;
  filter.filters["policy"] = "Clock,Clock";
  status = ValidateRunParams(spec, filter);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--filter policy (an axis of scenario 'swept'): "
                                  "value 'Clock' is listed twice"),
            std::string::npos)
      << status.message();
}

TEST(FilterTest, RegistryRunExecutesStrictSubset) {
  auto found = ScenarioRegistry::Instance().Find("fig08");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.smoke = true;
  options.filters["local_fraction"] = "0.4";
  auto report = found.value()->Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 3 policies x 1 fraction, and each pivot table has exactly one row.
  EXPECT_EQ(report.value().points().size(), 3u);
  for (const auto& table : report.value().tables()) {
    EXPECT_EQ(table.rows().size(), 1u) << table.id();
  }
}

// ---------------------------------------------------------------------------
// The --set axis-vs-scalar diagnostic (the err.txt regression).
// ---------------------------------------------------------------------------

TEST(SetListOnScalarTest, DedicatedDiagnosticInsteadOfTypeError) {
  auto found = ScenarioRegistry::Instance().Find("table2b");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.smoke = true;
  options.params["local_fraction"] = "0.3,0.5";
  auto report = found.value()->Run(options);
  ASSERT_FALSE(report.ok());
  const std::string message = report.status().message();  // status() is by-value
  EXPECT_NE(message.find("'local_fraction' is a scalar parameter"), std::string::npos)
      << message;
  EXPECT_NE(message.find("only replaces sweep axes"), std::string::npos);
  EXPECT_NE(message.find("axes: app"), std::string::npos);
  // The misleading pre-fix message must be gone.
  EXPECT_EQ(message.find("is not a finite number"), std::string::npos);
}

TEST(SetListOnScalarTest, SingleScalarValueStillOverrides) {
  auto found = ScenarioRegistry::Instance().Find("table2b");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.smoke = true;
  options.params["local_fraction"] = "0.4";
  EXPECT_TRUE(found.value()->Run(options).ok());
}

TEST(SetListOnScalarTest, GenuinelyBadScalarKeepsTypeError) {
  auto found = ScenarioRegistry::Instance().Find("table2b");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.params["local_fraction"] = "lots";
  auto report = found.value()->Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("not a finite number"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-scenario option routing (run --all with mixed declarations).
// ---------------------------------------------------------------------------

std::vector<const Scenario*> Lookup(const std::vector<const char*>& names) {
  std::vector<const Scenario*> out;
  for (const char* name : names) {
    auto found = ScenarioRegistry::Instance().Find(name);
    EXPECT_TRUE(found.ok()) << name;
    out.push_back(found.value());
  }
  return out;
}

TEST(PerScenarioRunOptionsTest, AxisListRoutesPastScalarDeclarations) {
  // local_fraction is a sweep axis of fig08/table1 but a scalar parameter of
  // table2b: the axis list must reshape the sweeps and be dropped for the
  // scalar declaration instead of aborting the run (the err.txt bug).
  const auto scenarios = Lookup({"fig08", "table1", "table2b"});
  RunOptions options;
  options.params["local_fraction"] = "0.3,0.5";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_TRUE(per_scenario.ok()) << per_scenario.status().ToString();
  ASSERT_EQ(per_scenario.value().size(), 3u);
  EXPECT_EQ(per_scenario.value()[0].params.count("local_fraction"), 1u);  // fig08
  EXPECT_EQ(per_scenario.value()[1].params.count("local_fraction"), 1u);  // table1
  EXPECT_EQ(per_scenario.value()[2].params.count("local_fraction"), 0u);  // table2b
}

TEST(PerScenarioRunOptionsTest, ScalarValueStillReachesEveryDeclaration) {
  const auto scenarios = Lookup({"fig08", "table2b"});
  RunOptions options;
  options.params["local_fraction"] = "0.5";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_TRUE(per_scenario.ok()) << per_scenario.status().ToString();
  EXPECT_EQ(per_scenario.value()[0].params.count("local_fraction"), 1u);
  EXPECT_EQ(per_scenario.value()[1].params.count("local_fraction"), 1u);
}

TEST(PerScenarioRunOptionsTest, ListOnScalarEverywhereKeepsDiagnostic) {
  // No target scenario sweeps the key: surface the axis-vs-scalar
  // diagnostic rather than silently dropping the flag.
  const auto scenarios = Lookup({"table2b", "ablation_mixed_depth"});
  RunOptions options;
  options.params["local_fraction"] = "0.3,0.5";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_FALSE(per_scenario.ok());
  EXPECT_NE(per_scenario.status().message().find("scalar parameter"),
            std::string::npos);
}

TEST(PerScenarioRunOptionsTest, FiltersRouteToScenariosSweepingTheAxis) {
  const auto scenarios = Lookup({"fig08", "table2b"});
  RunOptions options;
  options.filters["local_fraction"] = "0.4";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_TRUE(per_scenario.ok()) << per_scenario.status().ToString();
  EXPECT_EQ(per_scenario.value()[0].filters.count("local_fraction"), 1u);  // axis
  EXPECT_EQ(per_scenario.value()[1].filters.count("local_fraction"), 0u);  // scalar
}

TEST(PerScenarioRunOptionsTest, FilterValuesIntersectEachScenariosAxis) {
  // fig08 sweeps local_fraction over {0.2,0.4,0.6,0.8,1.0}, table1 over
  // {0.2,0.4,0.5,0.6,0.8}: a cross-catalog filter keeps the values each
  // axis actually has, and a scenario matching none runs unfiltered.
  const auto scenarios = Lookup({"fig08", "table1"});
  RunOptions options;
  options.filters["local_fraction"] = "0.5,0.6";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_TRUE(per_scenario.ok()) << per_scenario.status().ToString();
  EXPECT_EQ(per_scenario.value()[0].filters.at("local_fraction"), "0.6");
  EXPECT_EQ(per_scenario.value()[1].filters.at("local_fraction"), "0.5,0.6");
  // 0.5 only: fig08 has no match and drops the filter (full sweep).
  options.filters["local_fraction"] = "0.5";
  per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_TRUE(per_scenario.ok()) << per_scenario.status().ToString();
  EXPECT_EQ(per_scenario.value()[0].filters.count("local_fraction"), 0u);
  EXPECT_EQ(per_scenario.value()[1].filters.at("local_fraction"), "0.5");
  // A value on no target axis at all is a run-level error.
  options.filters["local_fraction"] = "0.55";
  auto bad = PerScenarioRunOptions(scenarios, options);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("has any of those values"),
            std::string::npos);
}

TEST(PerScenarioRunOptionsTest, FilterAxisNowhereIsARunLevelError) {
  const auto scenarios = Lookup({"table2b", "fig10"});
  RunOptions options;
  options.filters["local_fraction"] = "0.4";
  auto per_scenario = PerScenarioRunOptions(scenarios, options);
  ASSERT_FALSE(per_scenario.ok());
  EXPECT_NE(per_scenario.status().message().find("no scenario in this run sweeps"),
            std::string::npos);
}

TEST(PerScenarioRunOptionsTest, SingleScenarioValidatesStrictly) {
  const auto scenarios = Lookup({"fig08"});
  RunOptions options;
  options.params["bogus"] = "1";
  EXPECT_FALSE(PerScenarioRunOptions(scenarios, options).ok());
}

// ---------------------------------------------------------------------------
// Shortest round-trip JSON numbers.
// ---------------------------------------------------------------------------

TEST(JsonNumberTest, ShortestRoundTrip) {
  EXPECT_EQ(report::JsonNumber(0.0), "0");
  EXPECT_EQ(report::JsonNumber(12.5), "12.5");
  EXPECT_EQ(report::JsonNumber(53.84), "53.84");
  EXPECT_EQ(report::JsonNumber(0.1), "0.1");
  EXPECT_EQ(report::JsonNumber(-3.25), "-3.25");
  EXPECT_EQ(report::JsonNumber(1e300), "1e+300");
  EXPECT_EQ(report::JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(report::JsonNumber(0.0 / 0.0), "null");
}

TEST(JsonNumberTest, IntegralValuesRenderPlain) {
  // Fault counts and percents are integral doubles; they must not pick up
  // %g exponent notation (5060 -> "5.06e+03").
  EXPECT_EQ(report::JsonNumber(150.0), "150");
  EXPECT_EQ(report::JsonNumber(5060.0), "5060");
  EXPECT_EQ(report::JsonNumber(-8241.0), "-8241");
  EXPECT_EQ(report::JsonNumber(100.0), "100");
  EXPECT_EQ(report::JsonNumber(9007199254740991.0), "9007199254740991");  // 2^53-1
}

TEST(JsonNumberTest, EveryRenderingParsesBackExactly) {
  for (const double v : {53.84, 1.0 / 3.0, 2.0 / 3.0, 1e-17, 123456.789,
                         100.0 - 46.16, 0.30000000000000004}) {
    SCOPED_TRACE(v);
    const std::string rendered = report::JsonNumber(v);
    EXPECT_EQ(std::stod(rendered), v) << rendered;
    auto parsed = report::ParseJson(rendered);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().number, v);
  }
}

TEST(JsonNumberTest, MetricEmissionUsesShortestForm) {
  Report r("s", "t");
  r.Metric("noisy", 100.0 - 46.16);  // != the double nearest to "53.84"
  r.Metric("clean", 53.84);
  const std::string json = r.RenderJson();
  EXPECT_NE(json.find("\"clean\": 53.84"), std::string::npos) << json;
  // The noisy value renders as *its* shortest exact form, not a truncation.
  const double noisy = 100.0 - 46.16;
  EXPECT_NE(json.find("\"noisy\": " + report::JsonNumber(noisy)), std::string::npos);
}

// ---------------------------------------------------------------------------
// The JSON document model.
// ---------------------------------------------------------------------------

TEST(ParseJsonTest, BuildsTheDocumentModel) {
  auto parsed = report::ParseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"nested\": \"x\\ny\"}, "
      "\"t\": true, \"n\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const report::JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  const report::JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300.0);
  const report::JsonValue* nested = doc.Find("b")->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->string, "x\ny");
  EXPECT_TRUE(doc.Find("t")->boolean);
  EXPECT_EQ(doc.Find("n")->kind, report::JsonValue::Kind::kNull);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(report::ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(report::ParseJson("[1, 2").ok());
  EXPECT_FALSE(report::ParseJson("{} trailing").ok());
  EXPECT_FALSE(report::ParseJson("\"unterminated").ok());
  // A repeated key, a number beyond double range and a leading zero.
  for (const char* bad : {"{\"a\": 1, \"a\": 2}", "{\"o\": {\"k\": 1, \"k\": 1}}",
                          "1e999", "-1e999", "01", "-01"}) {
    EXPECT_FALSE(report::ParseJson(bad).ok()) << bad;
  }
  // Their legal neighbours still parse.
  for (const char* good : {"[{\"a\": 1}, {\"a\": 2}]", "0", "-0", "0.5", "1e308"}) {
    EXPECT_TRUE(report::ParseJson(good).ok()) << good;
  }
}

TEST(ParseJsonTest, RoundTripsARenderedReport) {
  Report r("sample", "title");
  auto& table = r.AddTable("t", "", {"a", "b"});
  table.Row({"x", "y"});
  r.Metric("m", 1.25);
  auto parsed = report::ParseJson(r.RenderJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("scenario")->string, "sample");
  EXPECT_EQ(parsed.value().Find("metrics")->Find("m")->number, 1.25);
}

// ---------------------------------------------------------------------------
// Cross-run diffing.
// ---------------------------------------------------------------------------

std::string DocWithPoints(double exec_at_02, double scenario_metric) {
  Report r("fig_x", "t");
  r.Metric("headline", scenario_metric);
  auto& points = r.MutablePoints();
  points.resize(2);
  points[0].axes = {{"policy", "FIFO"}, {"fraction", "0.2"}};
  points[0].Metric("exec_seconds", exec_at_02);
  points[1].axes = {{"policy", "FIFO"}, {"fraction", "0.5"}};
  points[1].Metric("exec_seconds", 2.0);
  return r.RenderJson();
}

TEST(DiffReportDocsTest, ReportsPerPointAndScenarioDeltas) {
  auto diff = DiffReportDocs(DocWithPoints(1.0, 10.0), DocWithPoints(1.5, 10.0));
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  const Report& r = diff.value().report;
  ASSERT_EQ(r.tables().size(), 1u);
  ASSERT_EQ(r.tables()[0].rows().size(), 1u);  // only the changed metric
  const auto& row = r.tables()[0].rows()[0];
  EXPECT_EQ(row[0], "fig_x");
  EXPECT_EQ(row[1], "policy=FIFO,fraction=0.2");
  EXPECT_EQ(row[2], "exec_seconds");
  EXPECT_EQ(row[3], "1");
  EXPECT_EQ(row[4], "1.5");
  EXPECT_EQ(row[6], "+50.00%");
  EXPECT_EQ(row[7], "0");       // default tolerance: exact match
  EXPECT_EQ(row[8], "FAIL");    // an unexcused delta is a gate violation
  EXPECT_EQ(diff.value().violations, 1u);
}

TEST(DiffReportDocsTest, IdenticalDocsDiffClean) {
  const std::string doc = DocWithPoints(1.0, 10.0);
  auto diff = DiffReportDocs(doc, doc);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value().report.tables()[0].rows().empty());
  EXPECT_EQ(diff.value().violations, 0u);
}

TEST(DiffReportDocsTest, HandlesCombinedDocumentsAndStructuralChanges) {
  auto render = [](bool with_extra) {
    std::string out = "{\"schema\": \"zombieland.scenario.reports/v1\", \"reports\": [";
    out += DocWithPoints(1.0, 10.0);
    if (with_extra) {
      Report extra("other", "t");
      extra.Metric("m", 1.0);
      out += "," + extra.RenderJson();
    }
    out += "]}";
    return out;
  };
  auto diff = DiffReportDocs(render(false), render(true));
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  const std::string text = diff.value().report.RenderTableText();
  EXPECT_NE(text.find("scenario added: other"), std::string::npos) << text;
  EXPECT_EQ(diff.value().violations, 1u);  // structural change = gate FAIL
  auto reverse = DiffReportDocs(render(true), render(false));
  ASSERT_TRUE(reverse.ok());
  EXPECT_NE(reverse.value().report.RenderTableText().find("scenario removed: other"),
            std::string::npos);
  EXPECT_EQ(reverse.value().violations, 1u);
}

TEST(DiffReportDocsTest, RejectsGarbage) {
  EXPECT_FALSE(DiffReportDocs("not json", DocWithPoints(1, 1)).ok());
  EXPECT_FALSE(DiffReportDocs(DocWithPoints(1, 1), "{\"no\": \"reports\"}").ok());
}

// End-to-end: a registry scenario's rendered JSON diffs against itself
// cleanly, and against a --filter subset with point changes flagged.
TEST(DiffReportDocsTest, RegistryScenarioDiffsAgainstItsOwnSubset) {
  auto found = ScenarioRegistry::Instance().Find("ablation_mixed_depth");
  ASSERT_TRUE(found.ok());
  RunOptions options;
  options.smoke = true;
  auto full = found.value()->Run(options);
  ASSERT_TRUE(full.ok());
  options.filters["depth"] = "1,2,5";
  auto subset = found.value()->Run(options);
  ASSERT_TRUE(subset.ok());
  auto diff = DiffReportDocs(full.value().RenderJson(), subset.value().RenderJson());
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  // Shared points are byte-equal (no metric rows); dropped points are notes
  // (and gate violations: a vanished point fails --fail-on-delta).
  EXPECT_TRUE(diff.value().report.tables()[0].rows().empty());
  EXPECT_NE(diff.value().report.RenderTableText().find("point removed"),
            std::string::npos);
  EXPECT_GT(diff.value().violations, 0u);
}

// ---------------------------------------------------------------------------
// The shared -j N worker budget (WorkQueue + `run --all`).
// ---------------------------------------------------------------------------

TEST(WorkQueueTest, BudgetOneRunsUnitsInIndexOrder) {
  // The -j 1 path must be the historical serial loop, exactly.
  WorkQueue queue(1);
  std::vector<std::size_t> order;
  queue.RunBatch(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkQueueTest, NestedBatchesShareTheBudgetWithoutDeadlock) {
  // The driver shape: an outer batch of scenarios, each submitting an inner
  // batch of sweep points to the same queue from a worker thread.
  WorkQueue queue(4);
  std::atomic<int> total{0};
  queue.RunBatch(3, [&](std::size_t) {
    queue.RunBatch(7, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 21);
}

TEST(WorkQueueTest, EveryUnitOfALargeBatchRunsExactlyOnce) {
  WorkQueue queue(4);
  std::vector<int> hits(997, 0);  // index-addressed slots: no locking needed
  queue.RunBatch(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "unit " << i;
  }
}

// In-process CLI run writing to --out; returns the exit code and the file.
int RunCli(std::vector<std::string> args, const std::string& out_path,
           std::string& out_text) {
  args.push_back("--out=" + out_path);
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  const int rc = ZombielandMain(static_cast<int>(argv.size()), argv.data());
  out_text.clear();
  if (std::FILE* f = std::fopen(out_path.c_str(), "rb")) {
    char buf[1 << 12];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out_text.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(out_path.c_str());
  return rc;
}

TEST(SharedBudgetTest, RunAllParallelIsByteIdenticalToSerial) {
  // `run --all -j 4` schedules every scenario AND every sweep point from one
  // shared budget; the rendered document must still match -j 1 byte for
  // byte.  (No --timings: wall-clock is legitimately run-dependent.)
  std::string serial;
  std::string parallel;
  ASSERT_EQ(RunCli({"zombieland", "run", "--all", "--smoke", "--format=json",
                    "-j", "1"},
                   "/tmp/zombieland_budget_j1.json", serial),
            0);
  ASSERT_EQ(RunCli({"zombieland", "run", "--all", "--smoke", "--format=json",
                    "-j", "4"},
                   "/tmp/zombieland_budget_j4.json", parallel),
            0);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace zombie::scenario
