// e2e_pipeline: runs one benchmark workload for a time budget, gates its
// correctness, and prints every metric by name.
//
//   e2e_pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --scenario-dir <tests/scenarios> --work-dir <dir>
//                [--source <id>] [--inject wrong-finding]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics from
// untraced passes; --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics, the tracing overhead and the layer-sum
// residual, and writes the last traced pass's spans to the work dir.
// perfbench/run.py builds this binary and is the command to use.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/simd_dispatch.hpp"
#include "pipeline.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run (setup_s is their median), and minimum passes.
constexpr std::size_t kSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scenario_dir;
  std::filesystem::path work_dir;
  std::string source = "unknown";
  bool inject_wrong_finding = false;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        o.trace = val == "1";
      } else if (key == "--scenario-dir") {
        o.scenario_dir = val;
      } else if (key == "--work-dir") {
        o.work_dir = val;
      } else if (key == "--source") {
        o.source = val;
      } else if (key == "--inject" && val == "wrong-finding") {
        o.inject_wrong_finding = true;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.work_dir.empty() ||
      o.scenario_dir.empty() || !(o.seconds > 0)) {
    return std::nullopt;
  }
  return o;
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (v[lo + 1] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ----------------------------------------------------------- fingerprint

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& opt) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::string l2 = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (read_first_line(dir + "/level") == "2") {
      l2 = read_first_line(dir + "/size");
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  return {
      {"cpu", cpu},
      {"nproc", std::to_string(cores)},
      {"l2", l2},
      {"simd_tier",
       net::simd::tier_name(net::simd::active_tier())},
      {"compiler", VPM_BENCH_COMPILER},
      {"build_type", VPM_BENCH_BUILD_TYPE},
      {"lto", VPM_BENCH_LTO},
      {"source", opt.source},
  };
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;  ///< human-readable table
};

/// What one pass contributes to the metrics.
struct PassSummary {
  bool traced = false;
  double timed_s = 0;
  double obs_per_s = 0;
  std::vector<double> freshness_ms;
  PassResult result;  ///< counts (freshness samples moved out)
  SelfTimes self;     ///< traced passes only
  std::vector<std::int64_t> add_round_ns;
  double residual_share = 0;
};

PassSummary summarize(const Inputs& in, PassResult&& r, const Tracer& t) {
  PassSummary s;
  s.traced = t.enabled();
  s.timed_s = r.timed_s;
  s.obs_per_s = static_cast<double>(in.observations) / r.timed_s;
  s.freshness_ms = std::move(r.freshness_ms);
  s.result = std::move(r);
  // The gate has read the findings; keep only the counts, so the process
  // footprint does not grow with the number of passes.
  sim::ScenarioOutcome& o = s.result.outcome;
  o.analysis = {};
  o.gaps = {};
  o.truth = {};
  o.observed_packets = {};
  o.wire_packets = {};
  if (s.traced) {
    s.self = self_times(t.spans());
    s.add_round_ns = durations(t.spans(), SpanName::kAddRound);
    const std::int64_t total = t.spans().front().end_ns -
                               t.spans().front().start_ns;
    s.residual_share = static_cast<double>(s.self.self(SpanName::kPass)) /
                       static_cast<double>(total);
  }
  return s;
}

/// Set-up and pass samples of one pipeline configuration.
struct PipelineRuns {
  std::vector<double> setup_s, trace_s, propagate_s, bucket_s, construct_s;
  std::vector<PassSummary> passes;
  std::uint64_t observations = 0;
  std::size_t rounds = 0;
  std::size_t hops = 0;
};

std::filesystem::path fresh_dir(const Options& opt, const char* tag,
                                std::size_t i) {
  const std::filesystem::path dir =
      opt.work_dir / (std::string(tag) + "-" + std::to_string(getpid()) +
                      "-" + std::to_string(i));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Runs one pipeline pass (set-up included for the first kSetups passes),
/// gates it and records it.  `traced` selects the span recorder.
void pipeline_pass(const Options& opt, const sim::ScenarioConfig& cfg,
                   bool disk_store, std::size_t i, bool traced,
                   std::optional<Inputs>& inputs, Tracer& tracer,
                   PipelineRuns& runs, double extra_setup_s) {
  if (traced) tracer.clear();  // keeps the last traced pass for write_csv
  const std::filesystem::path dir =
      disk_store ? fresh_dir(opt, "store", i) : std::filesystem::path();
  Tracer off(false);
  Tracer& use = traced ? tracer : off;
  std::optional<Pipeline> pipeline;
  if (i < kSetups) {
    inputs.reset();
    const std::int64_t t0 = now_ns();
    inputs.emplace(build_inputs(cfg));
    const std::int64_t t1 = now_ns();
    pipeline.emplace(*inputs, dir, use);
    const std::int64_t t2 = now_ns();
    runs.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9 +
                           extra_setup_s);
    runs.construct_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    runs.trace_s.push_back(inputs->trace_s);
    runs.propagate_s.push_back(inputs->propagate_s);
    runs.bucket_s.push_back(inputs->bucket_s);
    runs.observations = inputs->observations;
    runs.rounds = inputs->rounds();
    runs.hops = inputs->hops();
  } else {
    pipeline.emplace(*inputs, dir, use);
  }
  PassResult r = pipeline->run();
  pipeline.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
  if (opt.inject_wrong_finding) inject_wrong_finding(r.outcome);
  gate_pass(*inputs, r);
  runs.passes.push_back(summarize(*inputs, std::move(r), use));
  if (traced && runs.passes.back().residual_share > 0.10) {
    throw CheckFailed("traced layers cover only " +
                      json_number(1 - runs.passes.back().residual_share) +
                      " of the timed total (layer-sum bar is 90%)");
  }
}

std::vector<double> pick(const std::vector<PassSummary>& passes, bool traced,
                         double PassSummary::*field) {
  std::vector<double> out;
  for (const PassSummary& p : passes) {
    if (p.traced == traced) out.push_back(p.*field);
  }
  return out;
}

/// The paths of one round finish close together, so a pass's freshness
/// sample is one tight cluster per round.  The median pools every untraced
/// pass, so it is the median over many round clusters rather than one
/// round's; the 99th percentile is taken per pass (each pass has at least
/// 10 samples beyond it) and the median over passes reported, so one slow
/// pass cannot set it.
double freshness_p50(const PipelineRuns& runs) {
  std::vector<double> pooled;
  for (const PassSummary& p : runs.passes) {
    if (!p.traced) {
      pooled.insert(pooled.end(), p.freshness_ms.begin(), p.freshness_ms.end());
    }
  }
  return median(pooled);
}
double freshness_p99(const PipelineRuns& runs) {
  std::vector<double> per_pass;
  for (const PassSummary& p : runs.passes) {
    if (!p.traced) per_pass.push_back(quantile(p.freshness_ms, 0.99));
  }
  return median(per_pass);
}

void end_to_end_metrics(const PipelineRuns& runs, Report& rep) {
  const PassSummary& last = runs.passes.back();
  const double obs = static_cast<double>(runs.observations);
  std::string times = "pass times (s):";
  for (const PassSummary& p : runs.passes) {
    times += " " + json_number(p.timed_s);
  }
  rep.lines.push_back(times);
  rep.lines.push_back("freshness: p50 over all untraced passes' samples, "
                      "p99 the median of per-pass p99s; " +
                      std::to_string(last.freshness_ms.size()) +
                      " (path, round) samples per pass");
  rep.metrics = {
      {"setup_s", "s", median(runs.setup_s)},
      {"obs_per_s", "obs/s",
       median(pick(runs.passes, false, &PassSummary::obs_per_s))},
      {"freshness_p50_ms", "ms", freshness_p50(runs)},
      {"freshness_p99_ms", "ms", freshness_p99(runs)},
      {"wire_bytes_per_obs", "B/obs",
       static_cast<double>(last.result.envelope_bytes) / obs},
      {"hop_state_mb", "MB",
       static_cast<double>(last.result.hop_arena_peak) / 1e6},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

/// Per-layer metrics from the traced passes (times) and the last pass
/// (counts, which repeat exactly for a seed).
void per_layer_metrics(const PipelineRuns& runs, double run_scenario_s,
                       double harness_share, const char* predicted,
                       Report& rep) {
  std::vector<const PassSummary*> traced;
  for (const PassSummary& p : runs.passes) {
    if (p.traced) traced.push_back(&p);
  }
  SelfTimes self;
  std::vector<double> add_round_us;
  double traced_total_ns = 0;
  for (const PassSummary* p : traced) {
    for (std::size_t n = 0; n < self.self_ns.size(); ++n) {
      self.self_ns[n] += p->self.self_ns[n];
      self.calls[n] += p->self.calls[n];
    }
    for (const std::int64_t d : p->add_round_ns) {
      add_round_us.push_back(static_cast<double>(d) * 1e-3);
    }
    traced_total_ns += p->timed_s * 1e9;
  }
  const double passes = static_cast<double>(traced.size());
  const double obs = static_cast<double>(runs.observations) * passes;
  const auto ns = [&](SpanName n) {
    return static_cast<double>(self.self(n));
  };
  const auto share = [&](std::initializer_list<SpanName> names) {
    double sum = 0;
    for (const SpanName n : names) sum += ns(n);
    return sum / traced_total_ns;
  };
  const PassResult& c = runs.passes.back().result;
  const double obs1 = static_cast<double>(runs.observations);
  const double hop_rounds =
      static_cast<double>(runs.hops * (runs.rounds + 1)) * passes;
  const double offered = static_cast<double>(c.faults.offered);
  const double untraced_tput =
      median(pick(runs.passes, false, &PassSummary::obs_per_s));
  const double traced_tput =
      median(pick(runs.passes, true, &PassSummary::obs_per_s));
  const auto safe_div = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  rep.metrics = {
      {"collector.observe_ns_per_obs", "ns/obs", ns(SpanName::kObserve) / obs},
      {"collector.drain_us_per_hop_round", "us/hop-round",
       ns(SpanName::kDrain) * 1e-3 / hop_rounds},
      {"collector.hashes_per_obs", "count/obs",
       static_cast<double>(c.ops.hash_computations) / obs1},
      {"collector.memory_accesses_per_obs", "count/obs",
       static_cast<double>(c.ops.memory_accesses) / obs1},
      {"collector.sweep_accesses_per_obs", "count/obs",
       static_cast<double>(c.ops.marker_sweep_accesses) / obs1},
      {"collector.sample_records_per_obs", "count/obs",
       static_cast<double>(c.sample_records) / obs1},
      {"collector.aggregates_per_obs", "count/obs",
       static_cast<double>(c.aggregates) / obs1},
      {"collector.arena_mb_peak", "MB",
       static_cast<double>(c.total_arena_peak) / 1e6},
      {"collector.unknown_path_packets", "count",
       static_cast<double>(c.unknown_path_packets)},
      {"collector.self_share", "ratio",
       share({SpanName::kObserve, SpanName::kDrain})},
      {"adversary.transform_ns_per_obs", "ns/obs",
       ns(SpanName::kAdversary) / obs},
      {"adversary.self_share", "ratio", share({SpanName::kAdversary})},
      {"dissem.export_ns_per_obs", "ns/obs", ns(SpanName::kExport) / obs},
      {"dissem.envelopes_per_round", "envelopes/round",
       static_cast<double>(c.envelopes) /
           static_cast<double>(runs.rounds + 1)},
      {"dissem.framing_share", "ratio",
       safe_div(static_cast<double>(c.envelope_bytes - c.payload_bytes),
                static_cast<double>(c.envelope_bytes))},
      {"dissem.transport_ns_per_envelope", "ns/envelope",
       safe_div(ns(SpanName::kTransport), offered * passes)},
      {"dissem.transport_fault_share", "ratio",
       safe_div(static_cast<double>(c.faults.dropped + c.faults.corrupted +
                                    c.faults.duplicated + c.faults.reordered +
                                    c.faults.delayed),
                offered)},
      {"dissem.store_ingest_us_per_envelope", "us/envelope",
       safe_div(ns(SpanName::kStore) * 1e-3,
                static_cast<double>(self.count(SpanName::kStore)))},
      {"dissem.store_rejected_share", "ratio",
       safe_div(static_cast<double>(c.store_rejected),
                static_cast<double>(c.store_accepted + c.store_rejected))},
      {"dissem.store_disk_mb_peak", "MB",
       static_cast<double>(c.store_disk_peak) / 1e6},
      {"dissem.fetch_ns_per_obs", "ns/obs", ns(SpanName::kFetch) / obs},
      {"dissem.fetch_useful_share", "ratio",
       safe_div(static_cast<double>(c.fetch.envelopes_fed),
                static_cast<double>(c.fetch.envelopes_fed +
                                    c.fetch.refetch_skips))},
      {"dissem.gaps_reported", "count",
       static_cast<double>(c.fetch.gaps_reported)},
      {"dissem.transient_retries", "count",
       static_cast<double>(c.fetch.transient_retries)},
      {"dissem.ack_rejections", "count",
       static_cast<double>(c.fetch.ack_rejections)},
      {"dissem.consumer_lag_end", "count",
       static_cast<double>(c.consumer_lag_end)},
      {"dissem.undelivered_share", "ratio",
       static_cast<double>(c.groups_published - c.groups_ingested) /
           static_cast<double>(c.groups_published)},
      {"dissem.self_share", "ratio",
       share({SpanName::kExport, SpanName::kTransport, SpanName::kStore,
              SpanName::kFetch})},
      {"core.add_round_ns_per_obs", "ns/obs", ns(SpanName::kAddRound) / obs},
      {"core.add_round_us_p50", "us", quantile(add_round_us, 0.5)},
      {"core.add_round_us_p99", "us", quantile(add_round_us, 0.99)},
      {"core.add_round_calls", "count",
       static_cast<double>(self.count(SpanName::kAddRound)) / passes},
      {"core.analyze_ms", "ms", ns(SpanName::kAnalyze) * 1e-6 / passes},
      {"core.pending_samples_peak", "count",
       static_cast<double>(traced.back()->result.pending_samples_peak)},
      {"core.expired_unmatched", "count",
       static_cast<double>(c.outcome.expired_unmatched)},
      {"core.self_share", "ratio",
       share({SpanName::kAddRound, SpanName::kReportGap, SpanName::kAnalyze})},
      {"sim.setup.trace_s", "s", median(runs.trace_s)},
      {"sim.setup.propagate_s", "s", median(runs.propagate_s)},
      {"sim.setup.bucket_s", "s", median(runs.bucket_s)},
      {"sim.setup.construct_s", "s", median(runs.construct_s)},
      {"sim.run_scenario_s_per_cell", "s", run_scenario_s},
      {"sim.harness_share", "ratio", harness_share},
      {"bench.glue_share", "ratio", share({SpanName::kGlue})},
      {"bench.residual_share", "ratio", share({SpanName::kPass})},
      {"bench.tracing_overhead", "ratio", 1.0 - traced_tput / untraced_tput},
  };

  // The per-layer self-time table, dominant layer next to the prediction.
  struct Row {
    const char* layer;
    double share;
  };
  const std::vector<Row> rows = {
      {"collector",
       share({SpanName::kObserve, SpanName::kDrain})},
      {"adversary", share({SpanName::kAdversary})},
      {"dissem", share({SpanName::kExport, SpanName::kTransport,
                        SpanName::kStore, SpanName::kFetch})},
      {"core",
       share({SpanName::kAddRound, SpanName::kReportGap, SpanName::kAnalyze})},
      {"bench glue", share({SpanName::kGlue})},
      {"unspanned", share({SpanName::kPass})},
  };
  std::ostringstream t;
  t << "self time over " << traced.size() << " traced passes ("
    << traced_total_ns * 1e-9 << " s):";
  rep.lines.push_back(t.str());
  for (const Row& row : rows) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %-10s %6.1f%%", row.layer,
                  100 * row.share);
    rep.lines.push_back(buf);
  }
  for (std::size_t n = 1; n < self.self_ns.size(); ++n) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "    %-20s %6.1f%%  %10llu calls",
                  kSpanNames[n], 100 * static_cast<double>(self.self_ns[n]) /
                                     traced_total_ns,
                  static_cast<unsigned long long>(self.calls[n]));
    rep.lines.push_back(buf);
  }
  const auto top = std::max_element(
      rows.begin(), rows.begin() + 4,
      [](const Row& a, const Row& b) { return a.share < b.share; });
  rep.lines.push_back(std::string("dominant layer: ") + top->layer +
                      " (predicted: " + predicted + ")");
  rep.lines.push_back("layer-sum residual (unspanned share of the traced "
                      "total): " + json_number(share({SpanName::kPass})));
  rep.lines.push_back("tracing overhead (1 - traced/untraced obs_per_s): " +
                      json_number(1.0 - traced_tput / untraced_tput));
}

/// Writes the last traced pass's spans beside the results.
std::string write_spans(const Options& opt, const Tracer& tracer) {
  const std::string path =
      (opt.work_dir / ("spans-" + opt.workload + ".csv")).string();
  if (!write_csv(tracer.spans(), path)) {
    throw std::runtime_error("cannot write " + path);
  }
  return path;
}

bool finished(const Options& opt, std::int64_t deadline,
              const PipelineRuns& runs) {
  const std::size_t min_passes = opt.trace ? 4 : kSetups;
  return runs.passes.size() >= min_passes && now_ns() >= deadline;
}

void count_groups(const PipelineRuns& runs, Report& rep) {
  for (const PassSummary& p : runs.passes) {
    rep.attempted += p.result.groups_published;
    rep.failed += p.result.groups_lost_silently;
  }
}

Report run_pipeline_workload(const Options& opt, const Workload& w) {
  const sim::ScenarioConfig cfg = workload_config(w, opt.seed);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  PipelineRuns runs;
  std::optional<Inputs> inputs;
  Tracer tracer(true);
  for (std::size_t i = 0; !finished(opt, deadline, runs); ++i) {
    pipeline_pass(opt, cfg, w.disk_store, i, opt.trace && i % 2 == 1, inputs,
                  tracer, runs, 0.0);
  }
  inputs.reset();

  const std::filesystem::path check_dir =
      w.disk_store ? fresh_dir(opt, "check", 0) : std::filesystem::path();
  const CrossCheck xc = cross_check(w, cfg, check_dir);
  if (!check_dir.empty()) std::filesystem::remove_all(check_dir);

  Report rep;
  count_groups(runs, rep);
  const PassResult& last = runs.passes.back().result;
  rep.lines.push_back(
      "workload " + std::string(w.name) + ": " +
      std::to_string(runs.passes.size()) + " passes of " +
      std::to_string(runs.observations) + " HOP observations; groups "
      "published " +
      std::to_string(last.groups_published) + ", undelivered " +
      std::to_string(last.groups_in_gaps) + " (all inside reported gaps)");
  rep.lines.push_back("cross-check vs run_scenario on the reduced copy: "
                      "findings identical (run_scenario " +
                      json_number(xc.run_scenario_s) + " s, pipeline " +
                      json_number(xc.pipeline_s) + " s)");
  if (opt.trace) {
    per_layer_metrics(runs, xc.run_scenario_s,
                      1.0 - xc.pipeline_s / xc.run_scenario_s, w.predicted,
                      rep);
    rep.lines.push_back("spans: " + write_spans(opt, tracer));
  } else {
    end_to_end_metrics(runs, rep);
  }
  return rep;
}

Report run_grid(const Options& opt, const Workload& w) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<GridCell> cells;
  std::vector<double> grid_obs_per_s, cell_s, harness;
  PipelineRuns runs;
  std::optional<Inputs> inputs;
  Tracer tracer(true);
  std::uint64_t cells_run = 0;
  for (std::size_t i = 0; !finished(opt, deadline, runs); ++i) {
    double load_s = 0;
    if (i < kSetups) {
      const std::int64_t t0 = now_ns();
      cells = grid_cells(opt.scenario_dir, opt.seed);
      load_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    // The black box: every cell through run_scenario.
    double grid_s = 0;
    double grid_obs = 0;
    double plain_s = 0;
    for (const GridCell& cell : cells) {
      const std::int64_t t0 = now_ns();
      const sim::ScenarioOutcome out = sim::run_scenario(cell.cfg);
      const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
      check_grid_cell(cell, out);
      ++cells_run;
      grid_s += dt;
      plain_s = dt;  // the plain cell runs last
      for (const auto& per_hop : out.observed_packets) {
        for (const std::uint64_t n : per_hop) {
          grid_obs += static_cast<double>(n);
        }
      }
    }
    grid_obs_per_s.push_back(grid_obs / grid_s);
    cell_s.push_back(grid_s / static_cast<double>(cells.size()));
    // The assembled pipeline on the plain cell.
    const bool traced = opt.trace && i % 2 == 1;
    pipeline_pass(opt, cells.back().cfg, false, i, traced, inputs, tracer,
                  runs, load_s);
    if (!traced) harness.push_back(1.0 - runs.passes.back().timed_s / plain_s);
  }
  inputs.reset();

  Report rep;
  count_groups(runs, rep);
  rep.attempted += cells_run;
  rep.lines.push_back(
      "workload scenario_grid: " + std::to_string(runs.passes.size()) +
      " passes of " + std::to_string(cells.size()) +
      " run_scenario cells, each meeting its stated expectation; "
      "freshness, wire and HOP-state metrics from the assembled pipeline "
      "on the plain cell");
  if (opt.trace) {
    per_layer_metrics(runs, median(cell_s), median(harness), w.predicted,
                      rep);
    rep.lines.push_back("the table is the assembled pipeline on the plain "
                        "cell; sim harness share of run_scenario time on "
                        "that cell: " + json_number(median(harness)));
    rep.lines.push_back("spans: " + write_spans(opt, tracer));
  } else {
    end_to_end_metrics(runs, rep);
    rep.metrics[1].value = median(grid_obs_per_s);
  }
  return rep;
}

void print_result(const Report& rep, bool correct) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << out << "}}" << std::endl;
}

std::string fingerprint_json(
    const std::vector<std::pair<std::string, std::string>>& fp) {
  std::string out = "{";
  for (std::size_t i = 0; i < fp.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(fp[i].first) + ": " +
           json_string(fp[i].second);
  }
  return out + "}";
}

void write_result_file(const Options& opt, const std::string& fp,
                       const Report& rep) {
  const std::filesystem::path path =
      opt.work_dir / ("result-" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + "-trace" +
                      (opt.trace ? "1" : "0") + ".json");
  std::ofstream f(path);
  f << "{\"workload\": " << json_string(opt.workload)
    << ", \"seed\": " << opt.seed << ", \"fingerprint\": " << fp
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    f << (i == 0 ? "" : ", ") << json_string(rep.metrics[i].name) << ": "
      << json_number(rep.metrics[i].value);
  }
  f << "}, \"notes\": [";
  for (std::size_t i = 0; i < rep.lines.size(); ++i) {
    f << (i == 0 ? "" : ", ") << json_string(rep.lines[i]);
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    std::cerr << "usage: e2e_pipeline --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scenario-dir <dir> "
                 "--work-dir <dir> [--source <id>] "
                 "[--inject wrong-finding]\n";
    return 2;
  }
  const Workload* w = find_workload(opt->workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt->workload << "'\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(opt->work_dir);
    const std::string fp = fingerprint_json(fingerprint(*opt));
    std::cout << "fingerprint " << fp << std::endl;
    const Report rep = std::string(w->name) == "scenario_grid"
                           ? run_grid(*opt, *w)
                           : run_pipeline_workload(*opt, *w);
    for (const std::string& line : rep.lines) std::cout << line << "\n";
    write_result_file(*opt, fp, rep);
    print_result(rep, true);
    return 0;
  } catch (const CheckFailed& e) {
    std::cerr << "correctness check failed: " << e.what() << "\n";
    Report failed;
    failed.attempted = 1;
    failed.failed = 1;
    print_result(failed, false);
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
