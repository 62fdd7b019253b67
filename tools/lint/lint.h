// zombie-lint: project-invariant static analysis for the zombieland tree.
//
// The repo's gates (golden victim sequences, byte-identical -j N runs, the
// blocking diff gate) all rest on invariants that the compiler and
// sanitizers cannot check: seeded determinism, non-discardable fallibles,
// and a handful of header/registry conventions.  zombie-lint is a
// dependency-free lexical/heuristic pass that encodes those invariants as a
// typed rule registry with per-rule severity and path scope.
//
// Suppressions (every one must carry a written reason):
//   // ZLINT-ALLOW(rule-name): reason            — this line (or, when the
//                                                  comment stands alone, the
//                                                  next line)
//   // ZLINT-ALLOW-FILE(rule-name): reason       — the whole file
//
// Exit-code contract (pinned by cmake/lint_contract.cmake):
//   0  clean (no findings at error severity)
//   1  findings at error severity (or warnings under --werror)
//   2  usage error or IO error (unreadable path, unknown rule name, ...)
#ifndef ZOMBIELAND_TOOLS_LINT_LINT_H_
#define ZOMBIELAND_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zombie::lint {

enum class Severity { kOff, kWarning, kError };

std::string_view SeverityName(Severity severity);
// Parses "off" / "warning" / "error"; returns false on anything else.
bool ParseSeverity(std::string_view text, Severity* out);

// One rule in the registry.  `name` is the id used in diagnostics and in
// ZLINT-ALLOW(...) suppressions.
struct RuleInfo {
  std::string_view name;
  Severity severity;
  std::string_view rationale;
};

// The full rule catalog, in reporting order.
const std::vector<RuleInfo>& Rules();
// nullptr when `name` is not a registered rule.
const RuleInfo* FindRule(std::string_view name);

struct Finding {
  std::string file;   // root-relative path
  std::size_t line;   // 1-based; 0 anchors a whole-file finding
  std::string rule;
  Severity severity;  // effective severity (after --severity overrides)
  std::string message;
};

struct Options {
  // Repo root; scanned paths and reported file names are relative to it.
  std::string root = ".";
  // Files or directories to scan, relative to root.  Empty means the default
  // roots: src, tools, bench, tests.
  std::vector<std::string> paths;
  // Per-rule severity overrides (--severity RULE=off|warning|error).
  std::map<std::string, Severity, std::less<>> severity_overrides;
};

struct LintResult {
  std::vector<Finding> findings;   // sorted by (file, line, rule)
  std::vector<std::string> io_errors;
  std::size_t files_scanned = 0;
};

// Runs every registered rule over the tree described by `options`.
LintResult RunLint(const Options& options);

// Renders one finding as "file:line: severity[rule]: message".
std::string FormatFinding(const Finding& finding);

// A loaded source file with comment/string-scrubbed lines and parsed
// suppressions.  Exposed so tests/lint_test.cc can pin the scrubber and the
// suppression grammar directly.
struct SourceFile {
  std::string path;                    // root-relative
  std::vector<std::string> raw;        // original lines
  std::vector<std::string> code;       // literals and comments blanked out
  std::vector<std::string> comments;   // comment text per line (for ALLOWs)
  // rule name -> 1-based lines suppressed by ZLINT-ALLOW.
  std::map<std::string, std::vector<std::size_t>, std::less<>> allow_lines;
  // rules suppressed file-wide by ZLINT-ALLOW-FILE.
  std::vector<std::string> allow_file_rules;
  // Malformed suppressions found while parsing (already Finding-shaped).
  std::vector<Finding> allow_findings;

  bool LineAllowed(std::string_view rule, std::size_t line) const;
};

// Splits `text` into scrubbed lines + suppression tables.  Exposed for tests.
SourceFile ScrubSource(std::string path, std::string_view text);

}  // namespace zombie::lint

#endif  // ZOMBIELAND_TOOLS_LINT_LINT_H_
