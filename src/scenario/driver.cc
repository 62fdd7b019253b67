// ZLINT-ALLOW-FILE(printf-family): this file is the zombieland CLI front end;
// usage errors and per-run diagnostics go straight to stderr by design (the
// 0/1/2/3 exit-code contract is exercised by tests that match this output).
#include "src/scenario/driver.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/work_queue.h"
#include "src/scenario/diff.h"
#include "src/scenario/registry.h"

namespace zombie::scenario {

namespace {

constexpr std::string_view kUsage =
    "zombieland — the NituTTIH18 scenario driver\n"
    "\n"
    "  zombieland list [--format=table|csv|json]\n"
    "      Show every registered scenario.\n"
    "  zombieland params <name>...\n"
    "      Show a scenario's declared --set parameters and sweep axes.\n"
    "  zombieland run <name>... [options]\n"
    "  zombieland run --all [options]\n"
    "      Run scenarios and print their reports.\n"
    "  zombieland diff <old.json> <new.json> [options]\n"
    "      Per-scenario and per-sweep-point metric deltas between two\n"
    "      rendered JSON documents (the cross-run regression gate).\n"
    "\n"
    "run options:\n"
    "  --smoke             tiny access budgets\n"
    "  --format=FORMAT     table (default), csv, or json\n"
    "  --out=FILE          write the rendered output to FILE instead of stdout\n"
    "  --set KEY=VALUE     scenario parameter override (repeatable); on a\n"
    "                      sweep-axis parameter, VALUE may be a v1,v2,...\n"
    "                      list replacing the axis\n"
    "  --filter KEY=V1[,V2...]\n"
    "                      run only the listed values of sweep axis KEY (a\n"
    "                      strict subset of the axis; repeatable)\n"
    "  -j N, --jobs=N      schedule scenarios AND their sweep points across\n"
    "                      up to N workers (1..1024) drawing from one shared\n"
    "                      budget (output is byte-identical to -j 1 either way)\n"
    "  --timings           (json) add per-scenario wall-clock seconds to the\n"
    "                      combined document and per-point wall_seconds to\n"
    "                      each report's points section\n"
    "\n"
    "diff options:\n"
    "  --fail-on-delta     exit 3 when any compared metric moves beyond its\n"
    "                      tolerance or the documents differ structurally\n"
    "                      (scenario/point/metric added or removed)\n"
    "  --tolerance METRIC=SPEC\n"
    "                      per-metric tolerance: absolute ('0.01'), percent\n"
    "                      ('5%'), or 'ignore' (repeatable; overrides the\n"
    "                      tolerances file; default tolerance is 0 = exact)\n"
    "  --tolerances=FILE   load per-metric tolerances from a JSON file (the\n"
    "                      checked-in bench/tolerances.json)\n"
    "\n"
    "exit codes: 0 success (diff: no delta beyond tolerance), 1 runtime or\n"
    "file errors, 2 usage errors, 3 diff gate failure (--fail-on-delta).\n";

// Upper bound on -j: each job is a WorkQueue thread, and a count far beyond
// any machine's cores only fails later, inside thread creation.
constexpr int kMaxJobs = 1024;

struct ParsedArgs {
  bool all = false;
  RunOptions options;
  std::string out_path;
  std::vector<std::string> names;
  int jobs = 1;
  bool timings = false;
  // diff-only flags (rejected with exit 2 on other commands).
  bool fail_on_delta = false;
  std::vector<std::string> tolerance_flags;  // raw METRIC=SPEC, in CLI order
  std::string tolerances_path;
};

void PrintRunError(std::string_view name, const Status& status) {
  std::fprintf(stderr, "zombieland: scenario '%s' failed: %s\n",
               std::string(name).c_str(), status.ToString().c_str());
}

// Parses one --set / --filter payload ("KEY=VALUE") into the given map.
bool ParseKeyValue(std::string_view flag, std::string_view kv,
                   std::map<std::string, std::string, std::less<>>& into) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    std::fprintf(stderr, "zombieland: malformed %s '%s' (want %s KEY=VALUE)\n",
                 std::string(flag).c_str(), std::string(kv).c_str(),
                 std::string(flag).c_str());
    return false;
  }
  into[std::string(kv.substr(0, eq))] = std::string(kv.substr(eq + 1));
  return true;
}

// Parses the shared run/list flags; returns false (after printing the
// problem) on a malformed flag.
bool ParseFlags(int argc, char** argv, int first, ParsedArgs& parsed) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--all") {
      parsed.all = true;
    } else if (arg == "--smoke") {
      parsed.options.smoke = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      auto format = report::ParseFormat(arg.substr(std::strlen("--format=")));
      if (!format.ok()) {
        std::fprintf(stderr, "zombieland: %s\n", format.status().ToString().c_str());
        return false;
      }
      parsed.options.format = format.value();
    } else if (arg.rfind("--out=", 0) == 0) {
      parsed.out_path = arg.substr(std::strlen("--out="));
      if (parsed.out_path.empty()) {
        std::fprintf(stderr, "zombieland: --out= needs a file path\n");
        return false;
      }
    } else if (arg == "--set") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "zombieland: --set needs a KEY=VALUE argument\n");
        return false;
      }
      if (!ParseKeyValue("--set", argv[++i], parsed.options.params)) {
        return false;
      }
    } else if (arg.rfind("--set=", 0) == 0) {
      if (!ParseKeyValue("--set", arg.substr(std::strlen("--set=")),
                         parsed.options.params)) {
        return false;
      }
    } else if (arg == "--filter") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "zombieland: --filter needs an AXIS=V1[,V2...] argument\n");
        return false;
      }
      if (!ParseKeyValue("--filter", argv[++i], parsed.options.filters)) {
        return false;
      }
    } else if (arg.rfind("--filter=", 0) == 0) {
      if (!ParseKeyValue("--filter", arg.substr(std::strlen("--filter=")),
                         parsed.options.filters)) {
        return false;
      }
    } else if (arg == "-j" || arg == "--jobs" || arg.rfind("-j=", 0) == 0 ||
               arg.rfind("--jobs=", 0) == 0 ||
               (arg.rfind("-j", 0) == 0 && arg.rfind("--", 0) != 0)) {
      // Accepted spellings: -j N, -jN, -j=N, --jobs N, --jobs=N.
      std::string_view value;
      if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (arg.size() > 2 && arg.rfind("-j", 0) == 0 && arg[1] == 'j') {
        value = arg.substr(2);
      } else {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "zombieland: %s needs a job count\n",
                       std::string(arg).c_str());
          return false;
        }
        value = argv[++i];
      }
      char* end = nullptr;
      const std::string owned(value);
      // strtol saturates out-of-range input, which the cap then rejects.
      const long jobs = std::strtol(owned.c_str(), &end, 10);
      if (end != owned.c_str() + owned.size() || jobs < 1 || jobs > kMaxJobs) {
        std::fprintf(stderr,
                     "zombieland: bad job count '%s' (want an integer in 1..%d)\n",
                     owned.c_str(), kMaxJobs);
        return false;
      }
      parsed.jobs = static_cast<int>(jobs);
    } else if (arg == "--timings") {
      parsed.timings = true;
    } else if (arg == "--fail-on-delta") {
      parsed.fail_on_delta = true;
    } else if (arg == "--tolerance") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "zombieland: --tolerance needs a METRIC=SPEC argument\n");
        return false;
      }
      parsed.tolerance_flags.emplace_back(argv[++i]);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      parsed.tolerance_flags.emplace_back(arg.substr(std::strlen("--tolerance=")));
    } else if (arg.rfind("--tolerances=", 0) == 0) {
      parsed.tolerances_path = arg.substr(std::strlen("--tolerances="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "zombieland: unknown option '%s'\n%s", argv[i],
                   std::string(kUsage).c_str());
      return false;
    } else {
      parsed.names.emplace_back(arg);
    }
  }
  return true;
}

bool WriteOutput(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "zombieland: cannot open '%s' for writing: %s\n",
                 out_path.c_str(), std::strerror(errno));
    return false;
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (!wrote) {
    std::fprintf(stderr, "zombieland: short write to '%s': %s\n", out_path.c_str(),
                 std::strerror(errno));
  }
  // fclose flushes the stdio buffer: on a full disk the fwrite above can
  // "succeed" into the buffer and this flush is where the data is lost.
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "zombieland: error writing '%s': %s\n", out_path.c_str(),
                 std::strerror(errno));
    return false;
  }
  return wrote;
}

// Renders reports for several scenarios into one document.  When `timings`
// is non-null (--timings, JSON only) the combined document gains a
// "timings" object mapping scenario name -> wall-clock seconds, so the CI
// artifact doubles as a perf trajectory.
std::string Combine(const std::vector<report::Report>& reports,
                    const RunOptions& options,
                    const std::vector<double>* timings = nullptr) {
  if (options.format == report::Format::kJson) {
    if (reports.size() == 1 && timings == nullptr) {
      return reports[0].RenderJson();
    }
    std::string out = "{\n  \"schema\": \"zombieland.scenario.reports/v1\",\n";
    out += std::string("  \"smoke\": ") + (options.smoke ? "true" : "false") + ",\n";
    if (timings != nullptr) {
      out += "  \"timings\": {";
      for (std::size_t i = 0; i < reports.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    \"" + report::JsonEscape(reports[i].scenario()) +
               "\": " + report::StrPrintf("%.3f", (*timings)[i]);
      }
      out += reports.empty() ? "},\n" : "\n  },\n";
    }
    out += "  \"reports\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += reports[i].RenderJson();
    }
    out += "\n  ]\n}\n";
    return out;
  }
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i != 0) {
      out += '\n';
    }
    out += reports[i].Render(options.format);
  }
  return out;
}

int CmdList(const ParsedArgs& parsed) {
  report::Report report("list", "Registered scenarios");
  auto& table = report.AddTable("scenarios", "", {"name", "title", "description"});
  for (const Scenario* scenario : ScenarioRegistry::Instance().List()) {
    table.Row({scenario->name(), scenario->spec().title, scenario->spec().description});
  }
  report.Text(report::StrPrintf(
      "\n%zu scenarios; `zombieland run <name>` runs one, `zombieland run --all` "
      "runs everything.\n",
      ScenarioRegistry::Instance().size()));
  const std::string text = report.Render(parsed.options.format);
  return WriteOutput(text, parsed.out_path) ? 0 : 1;
}

int CmdRun(ParsedArgs& parsed) {
  if (parsed.all) {
    if (!parsed.names.empty()) {
      std::fprintf(stderr, "zombieland: --all does not take scenario names\n");
      return 2;
    }
    for (const Scenario* scenario : ScenarioRegistry::Instance().List()) {
      parsed.names.push_back(scenario->name());
    }
  }
  if (parsed.names.empty()) {
    std::fprintf(stderr, "zombieland: run needs scenario names or --all\n%s",
                 std::string(kUsage).c_str());
    return 2;
  }

  // A repeated name would render a duplicate-key "timings" object and an
  // ambiguous combined document; refuse it as a usage error.
  std::set<std::string_view> unique_names;
  for (const std::string& name : parsed.names) {
    if (!unique_names.insert(name).second) {
      std::fprintf(stderr,
                   "zombieland: duplicate scenario name '%s' in the run list\n",
                   name.c_str());
      return 2;
    }
  }

  // Resolve every name up front so an unknown scenario (with its "did you
  // mean" hint) fails before any work starts.
  std::vector<const Scenario*> scenarios;
  scenarios.reserve(parsed.names.size());
  for (const std::string& name : parsed.names) {
    auto found = ScenarioRegistry::Instance().Find(name);
    if (!found.ok()) {
      PrintRunError(name, found.status());
      return 1;
    }
    scenarios.push_back(found.value());
  }
  // --timings also enables per-point wall_seconds in each report's points
  // section.
  parsed.options.timings = parsed.timings;
  auto per_scenario = PerScenarioRunOptions(scenarios, parsed.options);
  if (!per_scenario.ok()) {
    std::fprintf(stderr, "zombieland: %s\n", per_scenario.status().ToString().c_str());
    return 2;
  }
  std::vector<RunOptions> options = std::move(per_scenario).take();

  // Run.  Scenarios and their sweep points draw workers from ONE shared
  // -j N budget: each scenario is a unit of the outer batch, and a swept
  // scenario's ForEachSweepPoint submits its points back to the same queue
  // (RunOptions::work_queue), so a finished scenario's workers drain into
  // whatever sweep is still running instead of idling.  Results land in a
  // slot per scenario and all point writes are index-addressed, so reports
  // are collected (validated, rendered, combined) in registration order no
  // matter which worker finished what: the -j 4 document is byte-identical
  // to the -j 1 one.
  std::vector<Result<report::Report>> results(
      scenarios.size(), Result<report::Report>(ErrorCode::kUnavailable, "not run"));
  std::vector<double> seconds(scenarios.size(), 0.0);
  {
    WorkQueue queue(parsed.jobs);
    for (RunOptions& scenario_options : options) {
      scenario_options.work_queue = &queue;
    }
    queue.RunBatch(scenarios.size(), [&](std::size_t i) {
      // Feeds only the --timings wall-clock table, which is excluded from
      // the byte-identical and diff gates.
      // ZLINT-ALLOW(wall-clock): timing report only, never in gated output.
      const auto start = std::chrono::steady_clock::now();
      results[i] = scenarios[i]->Run(options[i]);
      // ZLINT-ALLOW(wall-clock): see `start` above — timing report only.
      seconds[i] = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 start)
                       .count();
    });
  }

  // Collect.  A failed scenario must not hide later failures or discard the
  // reports that did succeed: report every failure, still emit the combined
  // document for the successful scenarios, and exit non-zero.
  std::vector<report::Report> reports;
  std::vector<double> report_seconds;
  reports.reserve(scenarios.size());
  report_seconds.reserve(scenarios.size());
  std::size_t failures = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!results[i].ok()) {
      PrintRunError(parsed.names[i], results[i].status());
      ++failures;
      continue;
    }
    if (parsed.options.format == report::Format::kJson) {
      const std::string doc = results[i].value().RenderJson();
      if (Status status = report::ValidateReportJson(doc); !status.ok()) {
        std::fprintf(stderr, "zombieland: scenario '%s' emitted invalid JSON: %s\n",
                     parsed.names[i].c_str(), status.ToString().c_str());
        ++failures;
        continue;
      }
    }
    reports.push_back(std::move(results[i]).take());
    report_seconds.push_back(seconds[i]);
  }
  if (failures > 0) {
    std::fprintf(stderr, "zombieland: %zu of %zu scenarios failed\n", failures,
                 scenarios.size());
  }
  if (reports.empty()) {
    return 1;
  }

  std::string out = Combine(reports, parsed.options,
                            parsed.timings ? &report_seconds : nullptr);
  if (parsed.options.format == report::Format::kJson) {
    if (Status status = report::ValidateJson(out); !status.ok()) {
      std::fprintf(stderr, "zombieland: combined JSON invalid: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  if (!WriteOutput(out, parsed.out_path)) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "zombieland: cannot open '%s' for reading\n", path.c_str());
    return false;
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "zombieland: error reading '%s'\n", path.c_str());
  }
  return ok;
}

// Builds the diff's tolerance set: the --tolerances=FILE base (if any), then
// --tolerance METRIC=SPEC flags layered on top (later flags win).  A
// malformed spec — in the file or on the CLI — is a usage error (exit 2),
// not a runtime one: a gate with a half-applied tolerance set must not run.
Result<DiffOptions> BuildDiffOptions(const ParsedArgs& parsed) {
  DiffOptions options;
  if (!parsed.tolerances_path.empty()) {
    std::string json;
    if (!ReadFile(parsed.tolerances_path, json)) {
      return Result<DiffOptions>(ErrorCode::kInvalidArgument,
                                 "cannot read tolerances file");
    }
    ZOMBIE_ASSIGN_OR_RETURN(options,
                            ParseToleranceFile(json, parsed.tolerances_path));
  }
  for (const std::string& kv : parsed.tolerance_flags) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Result<DiffOptions>(
          ErrorCode::kInvalidArgument,
          "malformed --tolerance '" + kv + "' (want --tolerance METRIC=SPEC)");
    }
    ZOMBIE_ASSIGN_OR_RETURN(Tolerance tolerance, ParseTolerance(kv.substr(eq + 1)));
    options.metric_tolerances[kv.substr(0, eq)] = std::move(tolerance);
  }
  return options;
}

// `zombieland diff <old.json> <new.json>`: per-scenario / per-point metric
// deltas between two rendered report documents.  With --fail-on-delta this
// is the regression gate: any metric beyond its tolerance (or any
// structural change) exits 3, so CI can block on it; without the flag the
// diff stays informational and exits 0 whenever both documents parse.
int CmdDiff(const ParsedArgs& parsed) {
  if (parsed.names.size() != 2) {
    std::fprintf(stderr, "zombieland: diff needs exactly two JSON files\n%s",
                 std::string(kUsage).c_str());
    return 2;
  }
  auto diff_options = BuildDiffOptions(parsed);
  if (!diff_options.ok()) {
    std::fprintf(stderr, "zombieland: %s\n", diff_options.status().ToString().c_str());
    return 2;
  }
  std::string old_json;
  std::string new_json;
  if (!ReadFile(parsed.names[0], old_json) || !ReadFile(parsed.names[1], new_json)) {
    return 1;
  }
  auto diff = DiffReportDocs(old_json, new_json, diff_options.value());
  if (!diff.ok()) {
    std::fprintf(stderr, "zombieland: diff failed: %s\n",
                 diff.status().ToString().c_str());
    return 1;
  }
  const std::string out = diff.value().report.Render(parsed.options.format);
  if (!WriteOutput(out, parsed.out_path)) {
    return 1;
  }
  if (parsed.fail_on_delta && diff.value().violations > 0) {
    std::fprintf(stderr,
                 "zombieland: diff gate FAILED: %zu violation%s beyond tolerance "
                 "(re-baseline deliberate changes via scripts/bench.sh)\n",
                 diff.value().violations,
                 diff.value().violations == 1 ? "" : "s");
    return 3;
  }
  return 0;
}

// `zombieland params <name>`: the declared --set parameters and sweep axes
// of a scenario — the introspection surface of the typed parameter table.
int CmdParams(const ParsedArgs& parsed) {
  if (parsed.names.empty()) {
    std::fprintf(stderr, "zombieland: params needs at least one scenario name\n%s",
                 std::string(kUsage).c_str());
    return 2;
  }
  std::vector<report::Report> reports;
  for (const std::string& name : parsed.names) {
    auto found = ScenarioRegistry::Instance().Find(name);
    if (!found.ok()) {
      PrintRunError(name, found.status());
      return 1;
    }
    const ScenarioSpec& spec = found.value()->spec();
    report::Report report("params_" + spec.name, "Parameters of '" + spec.name + "'");
    if (spec.params.empty()) {
      report.Text("scenario '" + spec.name + "' declares no --set parameters\n");
    } else {
      auto& table = report.AddTable("params", "",
                                    {"param", "type", "default", "description"});
      for (const ParamSpec& param : spec.params) {
        table.Row({param.name, std::string(ParamTypeName(param.type)),
                   param.default_value, param.description});
      }
    }
    if (!spec.sweep.empty()) {
      auto& axes = report.AddTable("sweep", "\nSweep axes (cross):", {"axis", "values"});
      for (const SweepAxis& axis : spec.sweep.axes) {
        std::string values;
        for (const std::string& value : axis.values) {
          values += values.empty() ? value : "," + value;
        }
        axes.Row({axis.param, values});
      }
      report.Text(
          "\n--set <axis>=v1,v2,... replaces an axis; --set <param>=value "
          "overrides a default.\n");
    }
    reports.push_back(std::move(report));
  }
  const std::string out = Combine(reports, parsed.options);
  return WriteOutput(out, parsed.out_path) ? 0 : 1;
}

}  // namespace

int ZombielandMain(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", std::string(kUsage).c_str());
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::printf("%s", std::string(kUsage).c_str());
    return 0;
  }

  ParsedArgs parsed;
  if (!ParseFlags(argc, argv, 2, parsed)) {
    return 2;
  }
  if (command != "diff" &&
      (parsed.fail_on_delta || !parsed.tolerance_flags.empty() ||
       !parsed.tolerances_path.empty())) {
    std::fprintf(stderr,
                 "zombieland: --fail-on-delta/--tolerance/--tolerances only "
                 "apply to diff\n");
    return 2;
  }
  if (command == "list") {
    if (!parsed.names.empty()) {
      std::fprintf(stderr, "zombieland: list does not take positional arguments\n");
      return 2;
    }
    return CmdList(parsed);
  }
  if (command == "run") {
    return CmdRun(parsed);
  }
  if (command == "params") {
    return CmdParams(parsed);
  }
  if (command == "diff") {
    return CmdDiff(parsed);
  }
  std::fprintf(stderr, "zombieland: unknown command '%s'\n%s", argv[1],
               std::string(kUsage).c_str());
  return 2;
}

}  // namespace zombie::scenario
