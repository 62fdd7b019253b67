#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace zombie::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule registry.
// ---------------------------------------------------------------------------

// Reporting order.  Every rule is error severity by default: the tree is kept
// clean (exit 0) and CI blocks on any new finding; --severity can demote a
// rule while a cleanup is staged.
const std::vector<RuleInfo>& RuleTable() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock", Severity::kError,
       "real clocks (time/system_clock/steady_clock/...) outside "
       "src/common/sim_clock.h break seeded determinism; simulated results "
       "must be a pure function of the seed"},
      {"libc-rand", Severity::kError,
       "rand()/srand()/random_device et al. are unseeded or globally seeded; "
       "use zombie::Rng with an explicit seed"},
      {"unseeded-mt19937", Severity::kError,
       "a default-constructed std::mt19937 has a fixed-but-implicit seed; "
       "thread an explicit seed through (prefer zombie::Rng)"},
      {"unordered-iter", Severity::kError,
       "iteration order of unordered containers is implementation-defined; "
       "feeding it into reports or RNG draws breaks byte-identical gates"},
      {"nodiscard-fallible", Severity::kError,
       "functions returning Status/Result<T> in src/ headers must be "
       "[[nodiscard]] so discarded failures fail the build"},
      {"include-selfcheck", Severity::kError,
       "every header under src/ must appear in tests/include_selfcheck.cc "
       "(also enforced at configure time by cmake/include_selfcheck.cmake)"},
      {"scenario-registration", Severity::kError,
       "ZOMBIE_REGISTER_SCENARIO entries in src/ belong in "
       "src/scenario/catalog_*.cc so the catalog stays discoverable"},
      {"naked-new", Severity::kError,
       "naked `new` in src/ leaks on every early return; use "
       "std::make_unique/std::make_shared or a container"},
      {"printf-family", Severity::kError,
       "printf/fprintf/puts in library code bypasses common/logging.h and "
       "pollutes machine-read report streams"},
      {"allow-missing-reason", Severity::kError,
       "every ZLINT suppression must carry a written reason after the colon"},
      {"allow-unknown-rule", Severity::kError,
       "a ZLINT suppression naming an unregistered rule is a typo that "
       "silently suppresses nothing"},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsSourceFileName(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

// Directories never scanned: vendored code, deliberate-violation fixtures,
// build trees, and the linter's own sources (whose comments and test vectors
// are made of the very tokens the rules match).
bool IsExcludedDir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "third_party" || name == "lint_fixtures" || name == ".git" ||
         name == ".ccache" || StartsWith(name, "build") ||
         EndsWith(p.generic_string(), "tools/lint");
}

std::string Relative(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

}  // namespace

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kOff:
      return "off";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

bool ParseSeverity(std::string_view text, Severity* out) {
  if (text == "off") {
    *out = Severity::kOff;
  } else if (text == "warning") {
    *out = Severity::kWarning;
  } else if (text == "error") {
    *out = Severity::kError;
  } else {
    return false;
  }
  return true;
}

const std::vector<RuleInfo>& Rules() { return RuleTable(); }

const RuleInfo* FindRule(std::string_view name) {
  for (const RuleInfo& rule : RuleTable()) {
    if (rule.name == name) {
      return &rule;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Scrubber: blank out comments and string/char literals from `code`, collect
// comment text into `comments` (for suppression scanning).
// ---------------------------------------------------------------------------

SourceFile ScrubSource(std::string path, std::string_view text) {
  SourceFile file;
  file.path = std::move(path);

  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kNormal;
  std::string raw_delim;  // the )delim" terminator of an in-flight raw string

  std::string code_text;
  std::string comment_text;
  code_text.reserve(text.size());
  comment_text.reserve(text.size());

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        state = State::kNormal;
      }
      code_text += '\n';
      comment_text += '\n';
      continue;
    }
    switch (state) {
      case State::kNormal:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_text += "  ";
          comment_text += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_text += "  ";
          comment_text += "/*";
          ++i;
        } else if (c == '"') {
          const bool raw_prefix =
              i > 0 && text[i - 1] == 'R' &&
              (i < 2 || (!std::isalnum(static_cast<unsigned char>(text[i - 2])) &&
                         text[i - 2] != '_'));
          if (raw_prefix) {
            raw_delim = ")";
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') {
              raw_delim += text[j];
              ++j;
            }
            raw_delim += '"';
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          code_text += '"';
          comment_text += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code_text += '\'';
          comment_text += ' ';
        } else {
          code_text += c;
          comment_text += ' ';
        }
        break;
      case State::kLineComment:
        code_text += ' ';
        comment_text += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kNormal;
          code_text += "  ";
          comment_text += "*/";
          ++i;
        } else {
          code_text += ' ';
          comment_text += c;
        }
        break;
      case State::kString:
      case State::kChar: {
        comment_text += ' ';
        if (c == '\\') {
          code_text += ' ';
          if (next != '\0' && next != '\n') {
            code_text += ' ';
            comment_text += ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          code_text += c;
          state = State::kNormal;
        } else {
          code_text += ' ';
        }
        break;
      }
      case State::kRawString:
        // Raw strings may span lines; blank everything until )delim".
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) {
            if (text[i + k] == '\n') {
              code_text += '\n';
              comment_text += '\n';
            } else {
              code_text += ' ';
              comment_text += ' ';
            }
          }
          code_text.back() = '"';
          i += raw_delim.size() - 1;
          state = State::kNormal;
        } else {
          code_text += ' ';
          comment_text += ' ';
        }
        break;
    }
  }

  auto split_lines = [](const std::string& s) {
    std::vector<std::string> lines;
    std::string current;
    for (char c : s) {
      if (c == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    lines.push_back(current);
    return lines;
  };
  {
    std::vector<std::string> raw_lines;
    std::string current;
    for (char c : text) {
      if (c == '\n') {
        raw_lines.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    raw_lines.push_back(current);
    file.raw = std::move(raw_lines);
  }
  file.code = split_lines(code_text);
  file.comments = split_lines(comment_text);

  // Parse suppressions out of the comment stream.
  static const std::regex kAllowRe(
      R"(ZLINT-ALLOW(-FILE)?\(([^)]*)\)(:?)[ \t]*(.*))");
  for (std::size_t i = 0; i < file.comments.size(); ++i) {
    const std::string& comment = file.comments[i];
    if (comment.find("ZLINT-ALLOW") == std::string::npos) {
      continue;
    }
    const std::size_t line_no = i + 1;
    std::smatch m;
    if (!std::regex_search(comment, m, kAllowRe)) {
      file.allow_findings.push_back(
          {file.path, line_no, "allow-missing-reason", Severity::kError,
           "malformed ZLINT suppression (want rule name in parentheses, then "
           "a colon and a reason)"});
      continue;
    }
    const bool file_wide = m[1].matched;
    const std::string rule = m[2].str();
    const std::string reason = m[4].str();
    if (FindRule(rule) == nullptr) {
      file.allow_findings.push_back(
          {file.path, line_no, "allow-unknown-rule", Severity::kError,
           "suppression names unknown rule '" + rule +
               "' (see zombie-lint --list-rules)"});
      continue;
    }
    if (m[3].str().empty() || reason.find_first_not_of(" \t") == std::string::npos) {
      file.allow_findings.push_back(
          {file.path, line_no, "allow-missing-reason", Severity::kError,
           "suppression of '" + rule + "' has no written reason"});
      continue;
    }
    if (file_wide) {
      file.allow_file_rules.push_back(rule);
    } else {
      file.allow_lines[rule].push_back(line_no);
      // A comment standing on its own line suppresses the next line too.
      const std::string& code = file.code[i];
      if (code.find_first_not_of(" \t") == std::string::npos) {
        file.allow_lines[rule].push_back(line_no + 1);
      }
    }
  }
  return file;
}

bool SourceFile::LineAllowed(std::string_view rule, std::size_t line) const {
  for (const std::string& r : allow_file_rules) {
    if (r == rule) {
      return true;
    }
  }
  auto it = allow_lines.find(rule);
  if (it == allow_lines.end()) {
    return false;
  }
  return std::find(it->second.begin(), it->second.end(), line) != it->second.end();
}

// ---------------------------------------------------------------------------
// Rule implementations.  Each returns findings at the rule's default
// severity; effective severity is applied by RunLint.
// ---------------------------------------------------------------------------

namespace {

void Emit(std::vector<Finding>* out, const SourceFile& file, std::size_t line,
          std::string_view rule, std::string message) {
  if (file.LineAllowed(rule, line)) {
    return;
  }
  out->push_back({file.path, line, std::string(rule), FindRule(rule)->severity,
                  std::move(message)});
}

bool InSrc(const SourceFile& f) { return StartsWith(f.path, "src/"); }
bool InSrcOrTools(const SourceFile& f) {
  return StartsWith(f.path, "src/") || StartsWith(f.path, "tools/");
}

// wall-clock: real clocks outside src/common/sim_clock.h (src/ and tools/;
// bench/ and tests/ legitimately measure wall time).
void CheckWallClock(const SourceFile& file, std::vector<Finding>* out) {
  if (!InSrcOrTools(file) || file.path == "src/common/sim_clock.h") {
    return;
  }
  static const std::regex kClockRe(
      // Bare `clock(` is deliberately absent: accessors named clock() are a
      // common simulated-time idiom here (EventQueue::clock()); the libc
      // version is still caught as std::clock(.
      R"((\b(system_clock|steady_clock|high_resolution_clock)\b)|(\b(clock_gettime|gettimeofday|localtime|gmtime|mktime)\s*\()|((^|[^\w.:>])time\s*\()|(std::(time|clock)\s*\())");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], kClockRe)) {
      Emit(out, file, i + 1, "wall-clock",
           "real clock source in deterministic code (simulated time lives in "
           "src/common/sim_clock.h; wall-clock belongs only in explicitly "
           "non-deterministic timing fields)");
    }
  }
}

// libc-rand: global/unseeded randomness (all roots).
void CheckLibcRand(const SourceFile& file, std::vector<Finding>* out) {
  static const std::regex kRandRe(
      R"(((^|[^\w.>])(rand|srand|srandom|drand48|lrand48|mrand48|rand_r)\s*\()|(\brandom_device\b))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], kRandRe)) {
      Emit(out, file, i + 1, "libc-rand",
           "libc/global randomness is not seed-reproducible; use zombie::Rng "
           "with an explicit seed");
    }
  }
}

// unseeded-mt19937: a default-constructed engine (all roots).
void CheckUnseededMt19937(const SourceFile& file, std::vector<Finding>* out) {
  static const std::regex kMtRe(R"(\bmt19937(_64)?\s+\w+\s*(;|\{\s*\}))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], kMtRe)) {
      Emit(out, file, i + 1, "unseeded-mt19937",
           "std::mt19937 without an explicit seed; thread the scenario seed "
           "through (prefer zombie::Rng)");
    }
  }
}

// unordered-iter: range-for / begin() over a container declared
// unordered_map/unordered_set in this file or its sibling header (src/ only).
void CheckUnorderedIter(const SourceFile& file, const SourceFile* sibling,
                        std::vector<Finding>* out) {
  if (!InSrc(file)) {
    return;
  }
  static const std::regex kDeclRe(R"(unordered_(map|set)\s*<)");
  std::set<std::string> names;
  auto collect = [&](const SourceFile& f) {
    for (const std::string& line : f.code) {
      auto begin = std::sregex_iterator(line.begin(), line.end(), kDeclRe);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        // Walk the balanced template argument list, then take the identifier.
        std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
        int depth = 1;
        while (pos < line.size() && depth > 0) {
          if (line[pos] == '<') {
            ++depth;
          } else if (line[pos] == '>') {
            --depth;
          }
          ++pos;
        }
        if (depth != 0) {
          continue;  // declaration continues on the next line: heuristic pass
        }
        std::smatch name;
        const std::string rest = line.substr(pos);
        static const std::regex kNameRe(R"(^\s*([A-Za-z_]\w*))");
        if (std::regex_search(rest, name, kNameRe)) {
          names.insert(name[1].str());
        }
      }
    }
  };
  collect(file);
  if (sibling != nullptr) {
    collect(*sibling);
  }
  if (names.empty()) {
    return;
  }
  static const std::regex kRangeForRe(R"(\bfor\s*\(.*\s:\s*(.*))");
  static const std::regex kBeginRe(R"(([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::smatch m;
    std::string hit;
    if (std::regex_search(line, m, kRangeForRe)) {
      const std::string range = m[1].str();
      for (const std::string& name : names) {
        if (std::regex_search(range, std::regex("\\b" + name + "\\b"))) {
          hit = name;
          break;
        }
      }
    }
    if (hit.empty() && std::regex_search(line, m, kBeginRe) &&
        names.count(m[1].str()) > 0) {
      hit = m[1].str();
    }
    if (!hit.empty()) {
      Emit(out, file, i + 1, "unordered-iter",
           "iteration over unordered container '" + hit +
               "' is implementation-defined order; sort first, switch to an "
               "ordered container, or suppress with a written "
               "order-independence argument");
    }
  }
}

// nodiscard-fallible: Status/Result-returning declarations in src/ headers
// must be [[nodiscard]] (mirrors the annotation pass; the class-level
// [[nodiscard]] in result.h makes call sites fail under -Werror=unused-result,
// this rule keeps the per-API documentation in place for new surfaces).
void CheckNodiscardFallible(const SourceFile& file, std::vector<Finding>* out) {
  if (!InSrc(file) || !EndsWith(file.path, ".h")) {
    return;
  }
  static const std::regex kHeadRe(
      R"(^(\s*)((?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+|friend\s+)*)((?:zombie::)?(?:Status|Result<)))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::smatch m;
    if (!std::regex_search(line, m, kHeadRe)) {
      continue;
    }
    std::size_t pos = static_cast<std::size_t>(m.position(3)) + m[3].length();
    if (EndsWith(m[3].str(), "<")) {
      int depth = 1;
      while (pos < line.size() && depth > 0) {
        if (line[pos] == '<') {
          ++depth;
        } else if (line[pos] == '>') {
          --depth;
        }
        ++pos;
      }
      if (depth != 0) {
        continue;  // template args span lines: out of lexical reach
      }
    }
    static const std::regex kFnRe(R"(^\s+[A-Za-z_]\w*\s*\()");
    if (!std::regex_search(line.substr(pos), kFnRe)) {
      continue;  // member variable, constructor, or qualified definition
    }
    const bool annotated =
        line.find("[[nodiscard]]") != std::string::npos ||
        (i > 0 && file.code[i - 1].find("[[nodiscard]]") != std::string::npos);
    if (!annotated) {
      Emit(out, file, i + 1, "nodiscard-fallible",
           "fallible API returns Status/Result<T> without [[nodiscard]]");
    }
  }
}

// scenario-registration: catalog entries only in src/scenario/catalog_*.cc.
void CheckScenarioRegistration(const SourceFile& file, std::vector<Finding>* out) {
  if (!InSrc(file) || !EndsWith(file.path, ".cc") ||
      StartsWith(file.path, "src/scenario/catalog_")) {
    return;
  }
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (file.code[i].find("ZOMBIE_REGISTER_SCENARIO") != std::string::npos) {
      Emit(out, file, i + 1, "scenario-registration",
           "ZOMBIE_REGISTER_SCENARIO outside src/scenario/catalog_*.cc; move "
           "the registration into the catalog so `zombieland list` stays the "
           "single source of truth");
    }
  }
}

// naked-new: no raw `new` expressions in src/.
void CheckNakedNew(const SourceFile& file, std::vector<Finding>* out) {
  if (!InSrc(file)) {
    return;
  }
  static const std::regex kNewRe(R"(\bnew\b\s*[\w:(<])");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], kNewRe)) {
      Emit(out, file, i + 1, "naked-new",
           "naked `new`; use std::make_unique/std::make_shared or a "
           "container (suppress only for intentionally-leaked singletons)");
    }
  }
}

// printf-family: stdout/stderr emission in library code (src/ only; the
// formatting-only snprintf family is fine).
void CheckPrintfFamily(const SourceFile& file, std::vector<Finding>* out) {
  if (!InSrc(file)) {
    return;
  }
  static const std::regex kPrintfRe(
      R"(\b(printf|fprintf|vprintf|vfprintf|puts|fputs|putchar|fputc|putc|perror)\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], kPrintfRe)) {
      Emit(out, file, i + 1, "printf-family",
           "printf-family emission in library code; route diagnostics "
           "through src/common/logging.h (LogMessage / FatalMessage)");
    }
  }
}

// include-selfcheck: every src/**/*.h appears in tests/include_selfcheck.cc.
void CheckIncludeSelfcheck(const std::vector<SourceFile>& files,
                           std::vector<Finding>* out) {
  const SourceFile* selfcheck = nullptr;
  std::vector<const SourceFile*> headers;
  for (const SourceFile& f : files) {
    if (f.path == "tests/include_selfcheck.cc") {
      selfcheck = &f;
    } else if (InSrc(f) && EndsWith(f.path, ".h")) {
      headers.push_back(&f);
    }
  }
  if (selfcheck == nullptr || headers.empty()) {
    return;  // partial scan (explicit path arguments): nothing to compare
  }
  std::set<std::string> included;
  static const std::regex kIncludeRe(R"(^#include\s+"(src/[^"]+\.h)\")");
  for (const std::string& line : selfcheck->raw) {
    std::smatch m;
    if (std::regex_search(line, m, kIncludeRe)) {
      included.insert(m[1].str());
    }
  }
  for (const SourceFile* header : headers) {
    if (included.count(header->path) == 0) {
      Emit(out, *selfcheck, 0, "include-selfcheck",
           "header '" + header->path +
               "' is not included by tests/include_selfcheck.cc; add it (in "
               "alphabetical order) so its self-containment stays checked");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

std::string FormatFinding(const Finding& finding) {
  std::ostringstream os;
  os << finding.file << ":" << finding.line << ": "
     << SeverityName(finding.severity) << "[" << finding.rule
     << "]: " << finding.message;
  return os.str();
}

LintResult RunLint(const Options& options) {
  LintResult result;
  const fs::path root = options.root.empty() ? fs::path(".") : fs::path(options.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    result.io_errors.push_back("root '" + options.root + "' is not a directory");
    return result;
  }

  std::vector<std::string> roots = options.paths;
  if (roots.empty()) {
    for (const char* d : {"src", "tools", "bench", "tests"}) {
      if (fs::is_directory(root / d, ec)) {
        roots.push_back(d);
      }
    }
  }

  // Discover files (deterministic order: the set below is sorted).
  std::set<std::string> discovered;
  for (const std::string& rel : roots) {
    const fs::path p = root / rel;
    if (fs::is_regular_file(p, ec)) {
      discovered.insert(Relative(p, root));
    } else if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(
               p, fs::directory_options::skip_permission_denied, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) {
          result.io_errors.push_back("walking '" + rel + "': " + ec.message());
          break;
        }
        if (it->is_directory() && IsExcludedDir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsSourceFileName(it->path())) {
          discovered.insert(Relative(it->path(), root));
        }
      }
    } else {
      result.io_errors.push_back("path '" + rel + "' does not exist under '" +
                                 root.string() + "'");
    }
  }

  std::vector<SourceFile> files;
  files.reserve(discovered.size());
  for (const std::string& rel : discovered) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) {
      result.io_errors.push_back("cannot read '" + rel + "'");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(ScrubSource(rel, buf.str()));
  }
  result.files_scanned = files.size();

  // Sibling lookup for .cc -> .h pairing (unordered-iter).
  auto sibling_header = [&](const SourceFile& f) -> const SourceFile* {
    if (!EndsWith(f.path, ".cc")) {
      return nullptr;
    }
    const std::string want = f.path.substr(0, f.path.size() - 3) + ".h";
    for (const SourceFile& g : files) {
      if (g.path == want) {
        return &g;
      }
    }
    return nullptr;
  };

  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    for (const Finding& f : file.allow_findings) {
      findings.push_back(f);
    }
    CheckWallClock(file, &findings);
    CheckLibcRand(file, &findings);
    CheckUnseededMt19937(file, &findings);
    CheckUnorderedIter(file, sibling_header(file), &findings);
    CheckNodiscardFallible(file, &findings);
    CheckScenarioRegistration(file, &findings);
    CheckNakedNew(file, &findings);
    CheckPrintfFamily(file, &findings);
  }
  CheckIncludeSelfcheck(files, &findings);

  // Apply severity overrides, drop rules forced off.
  for (Finding& f : findings) {
    auto it = options.severity_overrides.find(f.rule);
    if (it != options.severity_overrides.end()) {
      f.severity = it->second;
    }
  }
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [](const Finding& f) {
                                  return f.severity == Severity::kOff;
                                }),
                 findings.end());

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });
  result.findings = std::move(findings);
  return result;
}

}  // namespace zombie::lint
