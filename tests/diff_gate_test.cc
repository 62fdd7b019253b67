// Tests for the diff regression gate (PR 6): tolerance parsing (CLI specs
// and the tolerances file), violation counting in DiffReportDocs (absolute /
// percent / ignore tolerances, the old=0 percent policy, structural changes,
// duplicate scenario names, repeated point keys, non-string axis values), and
// the zombieland CLI exit-code contract — including the `run` satellites
// (duplicate names and repeated axis values rejected, all failures reported
// while successful reports still emit).
//
// This TU registers its own gate_ok / gate_fail scenarios; registration is
// per-binary, so they exist only here and `run --all` in other suites is
// unaffected.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/report.h"
#include "src/common/result.h"
#include "src/scenario/diff.h"
#include "src/scenario/driver.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"

namespace zombie::scenario {
namespace {

using report::Report;

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("gate_ok").Title("always succeeds").Runner(
        [](const RunContext& ctx) -> Result<Report> {
          Report r = ctx.MakeReport();
          r.Metric("m", 1.0);
          return r;
        }));

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("gate_fail").Title("always fails").Runner(
        [](const RunContext&) -> Result<Report> {
          return Result<Report>(ErrorCode::kUnavailable, "deliberate test failure");
        }));

// ---------------------------------------------------------------------------
// Tolerance specs.
// ---------------------------------------------------------------------------

TEST(ParseToleranceTest, ParsesTheThreeKinds) {
  auto absolute = ParseTolerance("0.01");
  ASSERT_TRUE(absolute.ok());
  EXPECT_EQ(absolute.value().kind, Tolerance::Kind::kAbsolute);
  EXPECT_EQ(absolute.value().value, 0.01);
  EXPECT_EQ(absolute.value().text, "0.01");

  auto exact = ParseTolerance("0");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().kind, Tolerance::Kind::kAbsolute);
  EXPECT_EQ(exact.value().value, 0.0);

  auto percent = ParseTolerance("5%");
  ASSERT_TRUE(percent.ok());
  EXPECT_EQ(percent.value().kind, Tolerance::Kind::kPercent);
  EXPECT_EQ(percent.value().value, 5.0);

  auto ignore = ParseTolerance("ignore");
  ASSERT_TRUE(ignore.ok());
  EXPECT_EQ(ignore.value().kind, Tolerance::Kind::kIgnore);
}

TEST(ParseToleranceTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "%", "5%%", "abc", "-1", "-2%", "nan", "inf",
                          "1e999", "0.5 ", " 0.5"}) {
    EXPECT_FALSE(ParseTolerance(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseToleranceFileTest, ParsesAFullFile) {
  auto options = ParseToleranceFile(
      "{\"schema\": \"zombieland.diff.tolerances/v1\", \"default\": \"1%\", "
      "\"metrics\": {\"wall_seconds\": \"ignore\", \"joules\": \"0.5\"}}",
      "tolerances.json");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().default_tolerance.kind, Tolerance::Kind::kPercent);
  ASSERT_EQ(options.value().metric_tolerances.size(), 2u);
  EXPECT_EQ(options.value().metric_tolerances.at("wall_seconds").kind,
            Tolerance::Kind::kIgnore);
  EXPECT_EQ(options.value().metric_tolerances.at("joules").value, 0.5);
}

TEST(ParseToleranceFileTest, EmptyObjectMeansExactMatch) {
  auto options = ParseToleranceFile("{}", "f");
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options.value().default_tolerance.kind, Tolerance::Kind::kAbsolute);
  EXPECT_EQ(options.value().default_tolerance.value, 0.0);
  EXPECT_TRUE(options.value().metric_tolerances.empty());
}

TEST(ParseToleranceFileTest, RejectsBadFiles) {
  // Malformed JSON, wrong shape, wrong schema, unknown keys (typo defence),
  // and bad specs inside — all errors, all naming the file.
  for (const char* bad :
       {"not json", "[1]", "{\"schema\": \"something/else\"}",
        "{\"defualt\": \"5%\"}", "{\"default\": 5}",
        "{\"metrics\": [\"m\"]}", "{\"metrics\": {\"m\": 1}}",
        "{\"metrics\": {\"m\": \"bogus\"}}"}) {
    auto options = ParseToleranceFile(bad, "tolerances.json");
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_NE(options.status().ToString().find("tolerances.json"),
              std::string::npos)
        << options.status().ToString();
  }
}

// A repeated key used to be read last-wins, so a trailing "ignore" silently
// disarmed the gate.  Each repeat is an error naming the key and the file.
TEST(ParseToleranceFileTest, RejectsRepeatedKeys) {
  const std::pair<const char*, const char*> cases[] = {
      {"{\"schema\": \"zombieland.diff.tolerances/v1\", \"default\": \"0\", "
       "\"default\": \"ignore\"}",
       "default"},
      {"{\"metrics\": {\"joules\": \"0\"}, \"metrics\": {\"joules\": \"ignore\"}}",
       "metrics"},
      {"{\"metrics\": {\"joules\": \"0\", \"wall_seconds\": \"ignore\", "
       "\"joules\": \"ignore\"}}",
       "joules"},
  };
  for (const auto& [json, key] : cases) {
    auto options = ParseToleranceFile(json, "tolerances.json");
    ASSERT_FALSE(options.ok()) << json;
    const std::string message = options.status().ToString();
    EXPECT_NE(message.find("tolerances.json"), std::string::npos) << message;
    EXPECT_NE(message.find("duplicate object key \"" + std::string(key) + "\""),
              std::string::npos)
        << message;
  }
}

// ---------------------------------------------------------------------------
// Violation counting.
// ---------------------------------------------------------------------------

// A single-report document with one scenario-level metric.
std::string Doc(const std::string& metrics) {
  return "{\"scenario\": \"s\", \"metrics\": {" + metrics + "}}";
}

DiffOptions WithTolerance(const std::string& metric, const std::string& spec) {
  DiffOptions options;
  options.metric_tolerances[metric] = ParseTolerance(spec).value();
  return options;
}

TEST(DiffGateTest, WithinAbsoluteToleranceIsOk) {
  auto diff = DiffReportDocs(Doc("\"m\": 100"), Doc("\"m\": 100.005"),
                             WithTolerance("m", "0.01"));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 0u);
  ASSERT_EQ(diff.value().report.tables()[0].rows().size(), 1u);
  EXPECT_EQ(diff.value().report.tables()[0].rows()[0][8], "ok");
}

TEST(DiffGateTest, BeyondAbsoluteToleranceFails) {
  auto diff = DiffReportDocs(Doc("\"m\": 100"), Doc("\"m\": 100.02"),
                             WithTolerance("m", "0.01"));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 1u);
  EXPECT_EQ(diff.value().report.tables()[0].rows()[0][8], "FAIL");
}

TEST(DiffGateTest, PercentToleranceBoundsRelativeMovement) {
  auto within = DiffReportDocs(Doc("\"m\": 100"), Doc("\"m\": 104"),
                               WithTolerance("m", "5%"));
  ASSERT_TRUE(within.ok());
  EXPECT_EQ(within.value().violations, 0u);
  auto beyond = DiffReportDocs(Doc("\"m\": 100"), Doc("\"m\": 106"),
                               WithTolerance("m", "5%"));
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond.value().violations, 1u);
}

TEST(DiffGateTest, PercentToleranceCannotExcuseAChangeFromZero) {
  // old == 0 has no base for a relative bound: any movement fails, and the
  // delta % column shows "n/a" rather than a made-up number.
  auto diff = DiffReportDocs(Doc("\"m\": 0"), Doc("\"m\": 0.001"),
                             WithTolerance("m", "50%"));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 1u);
  const auto& row = diff.value().report.tables()[0].rows()[0];
  EXPECT_EQ(row[6], "n/a");
  EXPECT_EQ(row[8], "FAIL");
}

TEST(DiffGateTest, IgnoredMetricsAreNeverComparedAndTheirRemovalIsExcused) {
  auto diff = DiffReportDocs(Doc("\"m\": 1, \"noise\": 7"),
                             Doc("\"m\": 1, \"noise\": 9"),
                             WithTolerance("noise", "ignore"));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 0u);
  EXPECT_TRUE(diff.value().report.tables()[0].rows().empty());
  auto removed = DiffReportDocs(Doc("\"m\": 1, \"noise\": 7"), Doc("\"m\": 1"),
                                WithTolerance("noise", "ignore"));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().violations, 0u);
}

TEST(DiffGateTest, MetricAddedAndRemovedAreGateViolations) {
  auto diff = DiffReportDocs(Doc("\"m\": 1, \"gone\": 2"),
                             Doc("\"m\": 1, \"fresh\": 3"));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 2u);
  const std::string text = diff.value().report.RenderTableText();
  EXPECT_NE(text.find("metric added: s fresh"), std::string::npos) << text;
  EXPECT_NE(text.find("metric removed: s gone"), std::string::npos) << text;
}

TEST(DiffGateTest, DuplicateScenarioNamesAreNotedAndFail) {
  const std::string combined =
      "{\"schema\": \"zombieland.scenario.reports/v1\", \"reports\": [" +
      Doc("\"m\": 1") + "," + Doc("\"m\": 2") + "]}";
  auto diff = DiffReportDocs(combined, combined);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 2u);  // one per document
  EXPECT_NE(
      diff.value().report.RenderTableText().find("duplicate scenario 's'"),
      std::string::npos);
}

// A document of one swept scenario whose points carry the given keys (rate
// values) and metric values, in order.
std::string PointsDoc(const std::vector<std::pair<int, double>>& points) {
  std::string items;
  for (const auto& [rate, value] : points) {
    items += std::string(items.empty() ? "" : ",") + "{\"axes\": {\"rate\": \"" +
             std::to_string(rate) + "\"}, \"metrics\": {\"adm_p50_ms\": " +
             report::JsonNumber(value) + "}}";
  }
  return "{\"scenario\": \"s\", \"metrics\": {}, \"points\": [" + items + "]}";
}

TEST(DiffGateTest, RepeatedPointKeysAreNotedAndFail) {
  // Both documents repeat the key rate=5; only the repeat moved.  Pairing
  // every repeat with the first old point would hide that change.
  const std::string old_doc = PointsDoc({{5, 10}, {15, 20}, {5, 1010}, {15, 20}});
  const std::string new_doc = PointsDoc({{5, 10}, {15, 20}, {5, 10}, {15, 20}});
  auto diff = DiffReportDocs(old_doc, new_doc);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 4u);  // two repeated keys per document
  const std::string text = diff.value().report.RenderTableText();
  EXPECT_NE(text.find("repeated point key in old document: s [rate=5]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("repeated point key in new document: s [rate=15]"),
            std::string::npos)
      << text;
}

TEST(DiffGateTest, NumericAndBooleanAxisValuesKeyPoints) {
  // Other producers may emit numeric axes; they must key distinctly, not
  // collapse onto one key (the empty-key collision regression).
  auto point_doc = [](double value) {
    return "{\"scenario\": \"s\", \"metrics\": {}, \"points\": ["
           "{\"axes\": {\"depth\": 3, \"pinned\": true}, \"metrics\": {\"m\": " +
           report::JsonNumber(value) + "}}]}";
  };
  auto diff = DiffReportDocs(point_doc(1.0), point_doc(2.0));
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff.value().report.tables()[0].rows().size(), 1u);
  EXPECT_EQ(diff.value().report.tables()[0].rows()[0][1], "depth=3,pinned=true");
  EXPECT_EQ(diff.value().violations, 1u);
}

TEST(DiffGateTest, UnrenderableAxisValuesSkipThePointLoudly) {
  const std::string doc =
      "{\"scenario\": \"s\", \"metrics\": {}, \"points\": ["
      "{\"axes\": {\"shape\": {\"x\": 1}}, \"metrics\": {\"m\": 1}}]}";
  auto diff = DiffReportDocs(doc, doc);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().violations, 2u);  // one skipped point per document
  EXPECT_NE(diff.value().report.RenderTableText().find("no stable rendering"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The CLI exit-code contract, in process via ZombielandMain.
// ---------------------------------------------------------------------------

int RunCli(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ZombielandMain(static_cast<int>(argv.size()), argv.data());
}

// Writes `text` to /tmp and returns the path; tests overwrite freely.
std::string TempFile(const std::string& name, const std::string& text) {
  const std::string path = "/tmp/zombieland_diff_gate_" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

std::string ReadAll(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 12];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
  }
  return out;
}

// ctest may run the tests of this binary as concurrent processes, so every
// test tags its temp files with a unique prefix — a shared path would be
// truncated by one test while another reads it.
struct GateFiles {
  explicit GateFiles(const std::string& tag)
      : old_doc(TempFile(tag + "_old.json", Doc("\"m\": 100, \"gone\": 1"))),
        same_doc(TempFile(tag + "_same.json", Doc("\"m\": 100, \"gone\": 1"))),
        moved_doc(TempFile(tag + "_moved.json", Doc("\"m\": 104, \"gone\": 1"))),
        out("/tmp/zombieland_diff_gate_" + tag + "_out.txt") {}
  std::string old_doc;
  std::string same_doc;
  std::string moved_doc;
  std::string out;
};

TEST(CliExitCodeTest, SelfDiffIsCleanUnderTheGate) {
  GateFiles files("selfdiff");
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta", files.old_doc,
                    files.same_doc, "--out=" + files.out}),
            0);
  EXPECT_NE(ReadAll(files.out).find("0 changed"), std::string::npos);
}

TEST(CliExitCodeTest, WithinToleranceExitsZeroBeyondExitsThree) {
  GateFiles files("within");
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta", "--tolerance",
                    "m=5%", files.old_doc, files.moved_doc,
                    "--out=" + files.out}),
            0);
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta", files.old_doc,
                    files.moved_doc, "--out=" + files.out}),
            3);
  // Without --fail-on-delta the same delta stays informational.
  EXPECT_EQ(RunCli({"zombieland", "diff", files.old_doc, files.moved_doc,
                    "--out=" + files.out}),
            0);
}

TEST(CliExitCodeTest, MetricRemovalFailsTheGate) {
  GateFiles files("removal");
  const std::string shrunk = TempFile("shrunk.json", Doc("\"m\": 100"));
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta", files.old_doc,
                    shrunk, "--out=" + files.out}),
            3);
  // ...unless the vanished metric is explicitly ignored.
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta", "--tolerance",
                    "gone=ignore", files.old_doc, shrunk,
                    "--out=" + files.out}),
            0);
}

TEST(CliExitCodeTest, ToleranceSpecErrorsAreUsageErrors) {
  GateFiles files("specerr");
  EXPECT_EQ(RunCli({"zombieland", "diff", "--tolerance", "m=bogus",
                    files.old_doc, files.same_doc}),
            2);
  EXPECT_EQ(RunCli({"zombieland", "diff", "--tolerance", "no-equals-sign",
                    files.old_doc, files.same_doc}),
            2);
  const std::string bad_file = TempFile("bad_tol.json", "{\"oops\": 1}");
  EXPECT_EQ(RunCli({"zombieland", "diff", "--tolerances=" + bad_file,
                    files.old_doc, files.same_doc}),
            2);
  // A well-formed file loads fine.
  const std::string good_file = TempFile(
      "good_tol.json",
      "{\"schema\": \"zombieland.diff.tolerances/v1\", \"default\": \"0\", "
      "\"metrics\": {\"m\": \"5%\"}}");
  EXPECT_EQ(RunCli({"zombieland", "diff", "--fail-on-delta",
                    "--tolerances=" + good_file, files.old_doc, files.moved_doc,
                    "--out=" + files.out}),
            0);
}

TEST(CliExitCodeTest, FileAndParseErrorsExitOne) {
  GateFiles files("fileerr");
  EXPECT_EQ(RunCli({"zombieland", "diff", "/no/such/file.json", files.same_doc}),
            1);
  const std::string garbage = TempFile("garbage.json", "not json at all");
  EXPECT_EQ(RunCli({"zombieland", "diff", garbage, files.same_doc}), 1);
}

TEST(CliExitCodeTest, DiffOnlyFlagsAreRejectedElsewhere) {
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "--fail-on-delta"}), 2);
  EXPECT_EQ(RunCli({"zombieland", "list", "--tolerance", "m=5%"}), 2);
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "--tolerances=x.json"}), 2);
}

// ---------------------------------------------------------------------------
// The `run` satellites: duplicate names, failure aggregation.
// ---------------------------------------------------------------------------

TEST(CliRunTest, DuplicateScenarioNamesAreAUsageError) {
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "gate_ok", "--smoke"}), 2);
}

TEST(CliRunTest, RepeatedAxisValuesAreAUsageError) {
  // Each would run serve_steady's rate=5 points twice under one point key.
  EXPECT_EQ(RunCli({"zombieland", "run", "serve_steady", "--smoke", "--set",
                    "rate=5,5"}),
            2);
  EXPECT_EQ(RunCli({"zombieland", "run", "serve_steady", "--smoke", "--filter",
                    "rate=5,5"}),
            2);
}

TEST(CliRunTest, AllFailuresReportedAndSuccessfulReportsStillEmitted) {
  // gate_fail first: the old first-failure-wins loop would have returned
  // before writing anything.  The run must exit non-zero AND the gate_ok
  // report must land in --out.
  const std::string out = "/tmp/zombieland_diff_gate_run_out.json";
  std::remove(out.c_str());
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_fail", "gate_ok", "--smoke",
                    "--format=json", "--out=" + out}),
            1);
  const std::string doc = ReadAll(out);
  EXPECT_NE(doc.find("\"scenario\": \"gate_ok\""), std::string::npos) << doc;
  std::remove(out.c_str());
}

TEST(CliRunTest, AllScenariosFailingEmitsNothingAndExitsOne) {
  const std::string out = "/tmp/zombieland_diff_gate_run_empty.json";
  std::remove(out.c_str());
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_fail", "--smoke",
                    "--format=json", "--out=" + out}),
            1);
  EXPECT_TRUE(ReadAll(out).empty());
}

TEST(CliRunTest, OutOfRangeJobCountsAndEmptyOutAreUsageErrors) {
  for (const char* jobs : {"4294967297", "200000", "1025"}) {
    SCOPED_TRACE(jobs);
    EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "--smoke", "-j", jobs}), 2);
  }
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "--smoke", "--out="}), 2);
}

TEST(CliRunTest, OutFileOpenErrorsAreDiagnosedAndExitOne) {
  EXPECT_EQ(RunCli({"zombieland", "run", "gate_ok", "--smoke",
                    "--out=/no/such/dir/x.json"}),
            1);
}

}  // namespace
}  // namespace zombie::scenario
