// Unit tests for the zombie-lint engine (tools/lint/lint.h): the rule
// registry, the comment/string scrubber, the suppression grammar, and
// RunLint over the fixture mini-trees in tests/lint_fixtures/.
//
// Every lint-sensitive token in this file (suppression markers, violation
// shapes) lives inside string literals: the scrubber blanks literals before
// any rule or the suppression parser runs, so this file stays clean when the
// real tree is scanned — and that property is itself pinned below.
#include "tools/lint/lint.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef ZOMBIE_LINT_FIXTURES
#error "the build must define ZOMBIE_LINT_FIXTURES=<path to tests/lint_fixtures>"
#endif

namespace zombie::lint {
namespace {

LintResult LintFixtureTree(const std::string& tree,
                           const Options& extra = Options{}) {
  Options options = extra;
  options.root = std::string(ZOMBIE_LINT_FIXTURES) + "/" + tree;
  return RunLint(options);
}

bool HasFinding(const LintResult& result, std::string_view rule,
                std::string_view file) {
  return std::any_of(result.findings.begin(), result.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && (file.empty() || f.file == file);
                     });
}

// ---------------------------------------------------------------------------
// Rule registry.
// ---------------------------------------------------------------------------

TEST(LintRegistry, RulesAreUniquelyNamedWithRationales) {
  const auto& rules = Rules();
  ASSERT_FALSE(rules.empty());
  std::set<std::string_view> names;
  for (const RuleInfo& rule : rules) {
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate rule name: " << rule.name;
    EXPECT_FALSE(rule.rationale.empty()) << "rule without rationale: " << rule.name;
    // The tree is kept clean, so every rule defaults to blocking severity.
    EXPECT_EQ(rule.severity, Severity::kError) << "non-error default: " << rule.name;
  }
}

TEST(LintRegistry, FindRuleRoundTripsAndRejectsUnknown) {
  for (const RuleInfo& rule : Rules()) {
    const RuleInfo* found = FindRule(rule.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, rule.name);
  }
  EXPECT_EQ(FindRule("not-a-rule"), nullptr);
  EXPECT_EQ(FindRule(""), nullptr);
}

TEST(LintRegistry, SeverityNamesParseBothWays) {
  Severity severity = Severity::kError;
  EXPECT_TRUE(ParseSeverity("off", &severity));
  EXPECT_EQ(severity, Severity::kOff);
  EXPECT_TRUE(ParseSeverity("warning", &severity));
  EXPECT_EQ(severity, Severity::kWarning);
  EXPECT_TRUE(ParseSeverity("error", &severity));
  EXPECT_EQ(severity, Severity::kError);
  EXPECT_FALSE(ParseSeverity("fatal", &severity));
  EXPECT_EQ(SeverityName(Severity::kOff), "off");
  EXPECT_EQ(SeverityName(Severity::kWarning), "warning");
  EXPECT_EQ(SeverityName(Severity::kError), "error");
}

// ---------------------------------------------------------------------------
// Scrubber: literals and comments must be invisible to the rules.
// ---------------------------------------------------------------------------

TEST(LintScrubber, BlanksCommentsIntoTheCommentStream) {
  const SourceFile file =
      ScrubSource("src/f.cc", "int a;  // trailing rand() bait\nint b;\n");
  ASSERT_EQ(file.code.size(), 3u);  // two lines + empty tail after final \n
  EXPECT_EQ(file.code[0].find("rand"), std::string::npos);
  EXPECT_NE(file.code[0].find("int a;"), std::string::npos);
  EXPECT_NE(file.comments[0].find("rand() bait"), std::string::npos);
}

TEST(LintScrubber, BlanksStringAndCharLiterals) {
  const SourceFile file = ScrubSource(
      "src/f.cc", "const char* s = \"new int rand( steady_clock\";\nchar c = 'n';\n");
  EXPECT_EQ(file.code[0].find("new"), std::string::npos);
  EXPECT_EQ(file.code[0].find("rand"), std::string::npos);
  EXPECT_EQ(file.code[0].find("steady_clock"), std::string::npos);
  // The delimiters survive so column positions stay stable.
  EXPECT_NE(file.code[0].find('"'), std::string::npos);
  EXPECT_EQ(file.code[1].find('n'), std::string::npos);
}

TEST(LintScrubber, BlanksRawStringsAcrossLines) {
  const std::string text =
      "auto s = R\"(line one new int(3)\nline two rand()\n)\";\nint tail;\n";
  const SourceFile file = ScrubSource("src/f.cc", text);
  EXPECT_EQ(file.code[0].find("new"), std::string::npos);
  EXPECT_EQ(file.code[1].find("rand"), std::string::npos);
  EXPECT_NE(file.code[3].find("int tail;"), std::string::npos);
}

TEST(LintScrubber, EscapedQuoteDoesNotEndTheLiteral) {
  const SourceFile file =
      ScrubSource("src/f.cc", "const char* s = \"a \\\" rand( b\"; int x;\n");
  EXPECT_EQ(file.code[0].find("rand"), std::string::npos);
  EXPECT_NE(file.code[0].find("int x;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Suppression grammar.
// ---------------------------------------------------------------------------

TEST(LintSuppressions, MarkerOnOwnLineCoversTheNextLine) {
  const SourceFile file = ScrubSource(
      "src/f.cc", "// ZLINT-ALLOW(naked-new): fixture reason\nint* p = new int(1);\n");
  EXPECT_TRUE(file.LineAllowed("naked-new", 1));
  EXPECT_TRUE(file.LineAllowed("naked-new", 2));
  EXPECT_FALSE(file.LineAllowed("naked-new", 3));
  EXPECT_FALSE(file.LineAllowed("printf-family", 2));
  EXPECT_TRUE(file.allow_findings.empty());
}

TEST(LintSuppressions, SameLineMarkerCoversOnlyThatLine) {
  const SourceFile file = ScrubSource(
      "src/f.cc",
      "int* p = new int(1);  // ZLINT-ALLOW(naked-new): fixture reason\nint* q = new int(2);\n");
  EXPECT_TRUE(file.LineAllowed("naked-new", 1));
  EXPECT_FALSE(file.LineAllowed("naked-new", 2));
}

TEST(LintSuppressions, FileWideMarkerCoversEveryLine) {
  const SourceFile file = ScrubSource(
      "src/f.cc",
      "// ZLINT-ALLOW-FILE(printf-family): fixture reason\nvoid f();\nvoid g();\n");
  EXPECT_TRUE(file.LineAllowed("printf-family", 1));
  EXPECT_TRUE(file.LineAllowed("printf-family", 42));
  EXPECT_FALSE(file.LineAllowed("naked-new", 2));
}

TEST(LintSuppressions, MissingReasonIsItselfAFinding) {
  const SourceFile no_colon =
      ScrubSource("src/f.cc", "// ZLINT-ALLOW(naked-new)\nint* p = new int(1);\n");
  ASSERT_EQ(no_colon.allow_findings.size(), 1u);
  EXPECT_EQ(no_colon.allow_findings[0].rule, "allow-missing-reason");
  EXPECT_FALSE(no_colon.LineAllowed("naked-new", 2));  // not registered

  const SourceFile blank_reason =
      ScrubSource("src/f.cc", "// ZLINT-ALLOW(naked-new):   \nint* p = new int(1);\n");
  ASSERT_EQ(blank_reason.allow_findings.size(), 1u);
  EXPECT_EQ(blank_reason.allow_findings[0].rule, "allow-missing-reason");
}

TEST(LintSuppressions, UnknownRuleIsItselfAFinding) {
  const SourceFile file =
      ScrubSource("src/f.cc", "// ZLINT-ALLOW(not-a-rule): some reason\n");
  ASSERT_EQ(file.allow_findings.size(), 1u);
  EXPECT_EQ(file.allow_findings[0].rule, "allow-unknown-rule");
  EXPECT_EQ(file.allow_findings[0].line, 1u);
}

TEST(LintSuppressions, MarkerInsideStringLiteralIsIgnored) {
  // This is the property that lets this very file talk about suppressions:
  // a marker inside a string literal is scrubbed before parsing.
  const SourceFile file = ScrubSource(
      "src/f.cc", "const char* s = \"// ZLINT-ALLOW(naked-new): nope\";\n");
  EXPECT_TRUE(file.allow_lines.empty());
  EXPECT_TRUE(file.allow_findings.empty());
}

// ---------------------------------------------------------------------------
// Formatting.
// ---------------------------------------------------------------------------

TEST(LintFormat, FindingRendersAsFileLineSeverityRule) {
  const Finding finding{"src/a.cc", 3, "naked-new", Severity::kError, "boom"};
  EXPECT_EQ(FormatFinding(finding), "src/a.cc:3: error[naked-new]: boom");
}

// ---------------------------------------------------------------------------
// RunLint over the fixture mini-trees.
// ---------------------------------------------------------------------------

TEST(LintFixtures, ViolationsTreeHitsEveryRegisteredRule) {
  const LintResult result = LintFixtureTree("violations");
  EXPECT_TRUE(result.io_errors.empty());
  for (const RuleInfo& rule : Rules()) {
    EXPECT_TRUE(HasFinding(result, rule.name, ""))
        << "no fixture finding for rule: " << rule.name;
  }
}

TEST(LintFixtures, ViolationFilesAreNamedAfterTheirRule) {
  const LintResult result = LintFixtureTree("violations");
  EXPECT_TRUE(HasFinding(result, "wall-clock", "src/wall_clock.cc"));
  EXPECT_TRUE(HasFinding(result, "libc-rand", "src/libc_rand.cc"));
  EXPECT_TRUE(HasFinding(result, "unseeded-mt19937", "src/unseeded_mt19937.cc"));
  EXPECT_TRUE(HasFinding(result, "unordered-iter", "src/unordered_iter.cc"));
  EXPECT_TRUE(HasFinding(result, "nodiscard-fallible", "src/fallible.h"));
  EXPECT_TRUE(HasFinding(result, "scenario-registration",
                         "src/scenario_registration.cc"));
  EXPECT_TRUE(HasFinding(result, "naked-new", "src/naked_new.cc"));
  EXPECT_TRUE(HasFinding(result, "printf-family", "src/printf_family.cc"));
  EXPECT_TRUE(HasFinding(result, "allow-missing-reason",
                         "src/allow_missing_reason.cc"));
  EXPECT_TRUE(HasFinding(result, "allow-unknown-rule",
                         "src/allow_unknown_rule.cc"));
  EXPECT_TRUE(HasFinding(result, "test-only-header", "src/test_only_header.h"));
}

TEST(LintFixtures, IncludeSelfcheckNamesTheMissingHeader) {
  const LintResult result = LintFixtureTree("violations");
  const auto it = std::find_if(
      result.findings.begin(), result.findings.end(),
      [](const Finding& f) { return f.rule == "include-selfcheck"; });
  ASSERT_NE(it, result.findings.end());
  // Anchored on the selfcheck TU as a whole-file finding, naming the header.
  EXPECT_EQ(it->file, "tests/include_selfcheck.cc");
  EXPECT_EQ(it->line, 0u);
  EXPECT_NE(it->message.find("src/missing.h"), std::string::npos);
}

TEST(LintFixtures, TestOnlyHeaderIgnoresTestIncluders) {
  const LintResult result = LintFixtureTree("violations");
  const auto it = std::find_if(
      result.findings.begin(), result.findings.end(), [](const Finding& f) {
        return f.rule == "test-only-header" && f.file == "src/test_only_header.h";
      });
  // tests/test_only_header_test.cc includes it, but only src/, tools/ and
  // bench/ includers count; the finding anchors on the header as a whole.
  ASSERT_NE(it, result.findings.end());
  EXPECT_EQ(it->line, 0u);
  EXPECT_EQ(it->severity, Severity::kError);
  EXPECT_NE(it->message.find("src/test_only_header.h"), std::string::npos);
}

TEST(LintFixtures, FindingsAreSortedByFileLineRule) {
  const LintResult result = LintFixtureTree("violations");
  const bool sorted = std::is_sorted(
      result.findings.begin(), result.findings.end(),
      [](const Finding& a, const Finding& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        return a.rule < b.rule;
      });
  EXPECT_TRUE(sorted);
}

TEST(LintFixtures, CleanTreeHasNoFindings) {
  const LintResult result = LintFixtureTree("clean");
  EXPECT_TRUE(result.io_errors.empty());
  // clean.h, clean.cc, its tools/ consumer clean_main.cc, include_selfcheck.cc
  EXPECT_EQ(result.files_scanned, 4u);
  EXPECT_TRUE(result.findings.empty())
      << "unexpected finding: "
      << (result.findings.empty() ? "" : FormatFinding(result.findings[0]));
}

TEST(LintFixtures, SuppressedTreeHasNoFindings) {
  const LintResult result = LintFixtureTree("suppressed");
  EXPECT_TRUE(result.io_errors.empty());
  EXPECT_TRUE(result.findings.empty())
      << "unexpected finding: "
      << (result.findings.empty() ? "" : FormatFinding(result.findings[0]));
}

TEST(LintFixtures, SeverityOverrideOffDropsTheRule) {
  Options options;
  options.severity_overrides["naked-new"] = Severity::kOff;
  const LintResult result = LintFixtureTree("violations", options);
  EXPECT_FALSE(HasFinding(result, "naked-new", ""));
  EXPECT_TRUE(HasFinding(result, "printf-family", ""));  // others unaffected
}

TEST(LintFixtures, SeverityOverrideWarningDemotesTheRule) {
  Options options;
  options.severity_overrides["naked-new"] = Severity::kWarning;
  const LintResult result = LintFixtureTree("violations", options);
  bool saw = false;
  for (const Finding& f : result.findings) {
    if (f.rule == "naked-new") {
      saw = true;
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(LintFixtures, ExplicitFilePathScansJustThatFile) {
  Options options;
  options.paths = {"src/naked_new.cc"};
  const LintResult result = LintFixtureTree("violations", options);
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(HasFinding(result, "naked-new", "src/naked_new.cc"));
  // Partial scans must not fabricate include-selfcheck or test-only-header
  // noise: both rules need the whole tree in view.
  EXPECT_FALSE(HasFinding(result, "include-selfcheck", ""));
  EXPECT_FALSE(HasFinding(result, "test-only-header", ""));
}

TEST(LintFixtures, BadRootIsAnIoErrorNotAFinding) {
  Options options;
  options.root = std::string(ZOMBIE_LINT_FIXTURES) + "/no-such-tree";
  const LintResult result = RunLint(options);
  EXPECT_FALSE(result.io_errors.empty());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.files_scanned, 0u);
}

TEST(LintFixtures, MissingPathUnderGoodRootIsAnIoError) {
  Options options;
  options.paths = {"src/does_not_exist.cc"};
  const LintResult result = LintFixtureTree("violations", options);
  EXPECT_FALSE(result.io_errors.empty());
}

}  // namespace
}  // namespace zombie::lint
