// zl_perfbench: the layered benchmark's measuring program.
//
//   zl_perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures W's end-to-end metrics: untraced passes on seed N
// repeat until S seconds have passed, and medians over the passes are
// reported.  --trace 1 is the separate traced run: it measures every
// per-layer metric, each on the workload whose layers it belongs to, so the
// metric set does not depend on W.  Both modes first run one pass of each
// workload they touch on the reference seed, whose fingerprint perfbench/
// run.py checks against perfbench/fingerprints.json.  S is at most 60, so
// a run ends well inside run.py's timeout.
//
// Prints progress to stderr and one JSON object on the last line of stdout.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// The seed perfbench/fingerprints.json was recorded on.
constexpr std::uint64_t kReferenceSeed = 42;
constexpr std::uint64_t kMaxSeconds = 60;
constexpr std::size_t kTracerRecords = 20'000;

struct Options {
  Workload workload = Workload::kRamextRemote;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::map<std::string, Fingerprint> reference;  // workload -> fingerprint on the reference seed
  std::map<std::string, Fingerprint> measured;   // workload -> fingerprint on --seed

  void Absorb(const PassResult& pass) {
    attempted += pass.ops;
    failed += pass.failed;
    problems.insert(problems.end(), pass.problems.begin(), pass.problems.end());
  }
  // Records `pass` as the fingerprint of `workload` on --seed, or checks it
  // against the one recorded by an earlier pass.
  void Match(Workload workload, const PassResult& pass, const char* what) {
    const std::string name = WorkloadName(workload);
    auto [it, inserted] = measured.emplace(name, pass.fingerprint);
    if (!inserted && it->second != pass.fingerprint) {
      problems.push_back(name + ": " + what + " fingerprint differs from the first pass on this seed");
    }
  }
  void Add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
};

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "zl_perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w.has_value()) {
        std::fprintf(stderr, "zl_perfbench: unknown workload '%s'\n", value);
        return false;
      }
      opt->workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      opt->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n >= 1 && n <= kMaxSeconds) {
      opt->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      opt->trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else {
      std::fprintf(stderr, "zl_perfbench: bad flag or value: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: zl_perfbench --workload W --seed N --seconds 1..60 --trace 0|1 "
                 "[--trace-out FILE]\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PerCall(const LayerTotals& t) {
  return Ratio(static_cast<double>(t.total_ns), static_cast<double>(t.calls));
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void RunReference(Workload workload, Outcome* out) {
  std::fprintf(stderr, "reference pass: %s seed %" PRIu64 "\n", WorkloadName(workload),
               kReferenceSeed);
  const PassResult ref = RunPass(workload, kReferenceSeed);
  out->reference[WorkloadName(workload)] = ref.fingerprint;
  out->problems.insert(out->problems.end(), ref.problems.begin(), ref.problems.end());
}

// --trace 0: untraced passes until the budget is spent.
void MeasureEndToEnd(const Options& opt, Outcome* out) {
  RunReference(opt.workload, out);
  std::vector<double> rates, setups;
  const std::int64_t start = NowNs();
  do {
    const PassResult pass = RunPass(opt.workload, opt.seed);
    out->Absorb(pass);
    out->Match(opt.workload, pass, "untraced");
    rates.push_back(pass.ops_per_s());
    setups.push_back(pass.setup_s);
    std::fprintf(stderr, "pass %zu: %.0f ops/s, setup %.4f s\n", rates.size(), rates.back(),
                 setups.back());
  } while (static_cast<double>(NowNs() - start) < opt.seconds * 1e9);
  out->Add("sim_ops_per_s", Median(rates), "1/s");
  out->Add("setup_s", Median(setups), "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// --trace 1: the per-layer metrics of every workload.
void MeasureLayers(const Options& opt, Outcome* out) {
  for (Workload w : kAllWorkloads) {
    RunReference(w, out);
  }
  const std::int64_t epoch = NowNs();
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);

  // ramext_remote: untraced and traced passes alternate, so the tracing
  // overhead compares like with like.
  Tracer ramext_tracer(1, epoch, kTracerRecords);
  RamextLayers ramext;
  std::vector<double> untraced_rates, traced_rates;
  const std::int64_t ramext_deadline = NowNs() + budget * 2 / 5;
  do {
    const PassResult plain = RunPass(Workload::kRamextRemote, opt.seed);
    RamextLayers layers;
    const PassResult traced = RamextPass(opt.seed, &ramext_tracer, &layers);
    for (const PassResult* pass : {&plain, &traced}) {
      out->Absorb(*pass);
      out->Match(Workload::kRamextRemote, *pass, pass == &plain ? "untraced" : "traced");
    }
    if (traced_rates.empty()) {
      ramext = layers;
    }
    untraced_rates.push_back(plain.ops_per_s());
    traced_rates.push_back(traced.ops_per_s());
    std::fprintf(stderr, "ramext_remote: %.0f ops/s untraced, %.0f traced\n",
                 untraced_rates.back(), traced_rates.back());
  } while (NowNs() < ramext_deadline);
  const double traced_accesses =
      static_cast<double>(traced_rates.size()) * static_cast<double>(ramext.stats.accesses);

  // dataplane_sharded: N threads and 1 thread on the same 4 shards (fixed
  // work: their fingerprints must match).  The N-thread passes run back to
  // back after an unmeasured one, and the traced pass follows them: on a
  // shared host, vCPUs that idled through single-threaded work can run at a
  // fraction of their speed for seconds after the lanes start.
  const int threads = DataplaneThreads();
  const auto dataplane_passes = [&](int pass_threads, std::int64_t until) {
    std::vector<double> rates;
    do {
      const PassResult pass = DataplanePass(opt.seed, pass_threads);
      out->Absorb(pass);
      out->Match(Workload::kDataplaneSharded, pass, "untraced");
      rates.push_back(pass.ops_per_s());
      std::fprintf(stderr, "dataplane_sharded: %.0f ops/s at %d thread(s)\n", rates.back(),
                   pass_threads);
    } while (NowNs() < until);
    return rates;
  };
  const std::int64_t dataplane_start = NowNs();
  std::vector<double> rates_n = dataplane_passes(threads, dataplane_start + budget / 8);
  if (rates_n.size() > 1) {
    rates_n.erase(rates_n.begin());  // the unmeasured warm-up pass
  }
  DataplaneLayers dataplane;
  const PassResult lanes = DataplaneTracedPass(opt.seed, threads, epoch, &dataplane);
  out->Absorb(lanes);
  out->Match(Workload::kDataplaneSharded, lanes, "traced");
  const std::vector<double> rates_1 = dataplane_passes(1, dataplane_start + budget / 4);

  // serve_rack: the daemon pass, then the replay of its timeline.
  ServeLayers serve;
  const PassResult daemon = ServeDaemonPass(opt.seed, &serve);
  out->Absorb(daemon);
  out->Match(Workload::kServeRack, daemon, "daemon");
  Tracer serve_tracer(2, epoch, kTracerRecords);
  ReplayCounts replay;
  const std::vector<std::string> replay_problems = ServeReplay(opt.seed, &serve_tracer, &replay);
  out->problems.insert(out->problems.end(), replay_problems.begin(), replay_problems.end());

  std::vector<const Tracer*> lane_tracers;
  for (const auto& t : dataplane.lane_tracers) {
    lane_tracers.push_back(t.get());
  }
  const double lane_accesses = static_cast<double>(dataplane.stats.accesses);
  const double paging_accesses = traced_accesses + lane_accesses;
  const LayerTotals fill = [&] {
    LayerTotals t = ramext_tracer.Totals("workloads.fill");
    t.Add(SumTotals(lane_tracers, "workloads.fill"));
    return t;
  }();
  const LayerTotals access = [&] {
    LayerTotals t = ramext_tracer.Totals("hv.access");
    t.Add(SumTotals(lane_tracers, "hv.access"));
    return t;
  }();
  const double faults = static_cast<double>(ramext.stats.faults + dataplane.stats.faults);

  out->Add("workloads.fill_ns_per_access", Ratio(static_cast<double>(fill.total_ns), paging_accesses), "ns");
  out->Add("hv.access_self_ns", Ratio(static_cast<double>(access.self_ns), paging_accesses), "ns");
  out->Add("hv.fault_rate", Ratio(faults, static_cast<double>(ramext.stats.accesses) + lane_accesses), "ratio");
  out->Add("hv.faults", faults, "count");
  out->Add("hv.major_faults", static_cast<double>(ramext.stats.major_faults + dataplane.stats.major_faults), "count");
  out->Add("hv.writebacks", static_cast<double>(ramext.stats.writebacks + dataplane.stats.writebacks), "count");

  out->Add("remotemem.load_ns", PerCall(ramext_tracer.Totals("remotemem.load")), "ns");
  out->Add("remotemem.store_ns", PerCall(ramext_tracer.Totals("remotemem.store")), "ns");
  out->Add("remotemem.remote_reads", static_cast<double>(ramext.remote_reads), "count");
  out->Add("remotemem.remote_writes", static_cast<double>(ramext.remote_writes), "count");
  out->Add("remotemem.mirror_reads", static_cast<double>(ramext.mirror_reads), "count");
  out->Add("rdma.ops_per_fault", Ratio(static_cast<double>(ramext.fabric_ops), static_cast<double>(ramext.stats.faults)), "ops/fault");
  out->Add("rdma.bytes_per_op", Ratio(static_cast<double>(ramext.fabric_bytes), static_cast<double>(ramext.fabric_ops)), "B/op");

  const double busy_max = dataplane.lane_busy_s.empty()
                              ? 0.0
                              : *std::max_element(dataplane.lane_busy_s.begin(), dataplane.lane_busy_s.end());
  double busy_sum = 0.0;
  for (double b : dataplane.lane_busy_s) {
    busy_sum += b;
  }
  const double busy_mean = Ratio(busy_sum, static_cast<double>(dataplane.lane_busy_s.size()));
  const double speedup = Ratio(Median(rates_n), Median(rates_1));
  out->Add("hv.lane_busy_s_max", busy_max, "s");
  out->Add("hv.lane_imbalance", Ratio(busy_max, busy_mean), "ratio");
  out->Add("hv.parallel_efficiency", speedup / threads, "ratio");
  out->Add("hv.speedup_vs_1t", speedup, "ratio");
  out->Add("hv.round_trips", static_cast<double>(dataplane.round_trips), "count");
  out->Add("hv.pages_per_round_trip",
           Ratio(static_cast<double>(dataplane.round_trips + dataplane.rider_pages),
                 static_cast<double>(dataplane.round_trips)),
           "pages/trip");
  out->Add("hv.ring_acquisitions", static_cast<double>(dataplane.ring_acquisitions), "count");

  out->Add("serve.generate_ns_per_request", Ratio(static_cast<double>(serve.generate_ns), static_cast<double>(serve.requests)), "ns");
  out->Add("common.event_ns",
           Ratio(static_cast<double>(serve_tracer.Totals("common.event_loop").self_ns),
                 static_cast<double>(replay.events)),
           "ns");
  out->Add("cloud.admit_ns", PerCall(serve_tracer.Totals("cloud.admit")), "ns");
  out->Add("cloud.place_ns", PerCall(serve_tracer.Totals("cloud.place")), "ns");
  out->Add("remotemem.alloc_ext_ns", PerCall(serve_tracer.Totals("remotemem.alloc_ext")), "ns");
  out->Add("remotemem.release_ext_ns", PerCall(serve_tracer.Totals("remotemem.release_ext")), "ns");
  out->Add("cloud.tick_ns", PerCall(serve_tracer.Totals("cloud.tick")), "ns");
  out->Add("rdma.ops_per_tick", Ratio(static_cast<double>(replay.tick_fabric_ops), static_cast<double>(replay.ticks)), "ops/tick");
  out->Add("common.percentile_summary_ns", static_cast<double>(serve.summary_ns) / 4.0, "ns");
  out->Add("serve.arrivals", static_cast<double>(serve.arrivals), "count");
  out->Add("serve.placed", static_cast<double>(serve.placed), "count");
  out->Add("serve.shed", static_cast<double>(serve.shed), "count");
  out->Add("serve.zombie_wakes", static_cast<double>(serve.zombie_wakes), "count");
  out->Add("common.events", static_cast<double>(replay.events), "count");
  out->Add("trace.overhead_frac", 1.0 - Ratio(Median(traced_rates), Median(untraced_rates)), "ratio");

  if (!opt.trace_out.empty()) {
    std::vector<const Tracer*> all = {&ramext_tracer, &serve_tracer};
    all.insert(all.end(), lane_tracers.begin(), lane_tracers.end());
    if (!WriteChromeTrace(opt.trace_out, all)) {
      out->problems.push_back("cannot write trace file " + opt.trace_out);
    } else {
      std::fprintf(stderr, "trace written to %s\n", opt.trace_out.c_str());
    }
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out->append(buf);
}

void AppendFingerprints(std::string* out, const std::map<std::string, Fingerprint>& fps) {
  out->push_back('{');
  bool first_fp = true;
  for (const auto& [workload, fp] : fps) {
    out->append(first_fp ? "" : ",");
    first_fp = false;
    AppendJsonString(out, workload);
    out->append(":{");
    for (std::size_t i = 0; i < fp.size(); ++i) {
      out->append(i == 0 ? "" : ",");
      AppendJsonString(out, fp[i].first);
      out->push_back(':');
      AppendNumber(out, fp[i].second);
    }
    out->push_back('}');
  }
  out->push_back('}');
}

std::string RenderJson(const Options& opt, const Outcome& out) {
  std::string doc = "{\"workload\":";
  AppendJsonString(&doc, WorkloadName(opt.workload));
  doc += ",\"seed\":" + std::to_string(opt.seed);
  doc += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
  doc += ",\"attempted\":" + std::to_string(out.attempted);
  doc += ",\"failed\":" + std::to_string(std::min(out.failed, out.attempted));
  doc += ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    doc += i == 0 ? "" : ",";
    AppendJsonString(&doc, out.problems[i]);
  }
  doc += "],\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    doc += i == 0 ? "" : ",";
    AppendJsonString(&doc, out.metrics[i].name);
    doc += ":{\"value\":";
    AppendNumber(&doc, out.metrics[i].value);
    doc += ",\"unit\":";
    AppendJsonString(&doc, out.metrics[i].unit);
    doc += "}";
  }
  doc += "},\"reference\":";
  AppendFingerprints(&doc, out.reference);
  doc += ",\"fingerprint\":";
  AppendFingerprints(&doc, out.measured);
  doc += "}";
  return doc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  perfbench::Outcome out;
  if (opt.trace) {
    perfbench::MeasureLayers(opt, &out);
  } else {
    perfbench::MeasureEndToEnd(opt, &out);
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "PROBLEM: %s\n", problem.c_str());
  }
  std::printf("%s\n", perfbench::RenderJson(opt, out).c_str());
  return 0;
}
