#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

// Why each workload exists is documented in perfbench/README.md; the run
// lengths (rounds=) are part of each workload's identity, since verifier
// cost grows with run length as well as with load.
const std::vector<Workload> kWorkloads = {
    {.name = "wide_dataplane",
     .config = "name=wide_dataplane domains=S,X,N,D paths=10000 zipf=1.0 "
               "pps=2000000 round_us=200000 rounds=3 sample_rate=0.01 "
               "marker_rate=0.00390625 cut_rate=0.0005",
     .disk_store = false,
     .check_paths = 500,
     .check_pps = 100000,
     .check_rounds = 2,
     .predicted = "collector ~55%, core ~30%"},
    {.name = "deep_lossy_liar",
     .config = "name=deep_lossy_liar domains=S,X,N,D paths=100 "
               "pps=2000000 round_us=50000 rounds=11 sample_rate=0.01 "
               "marker_rate=0.00390625 loss=ge loss_rate=0.03 "
               "jitter_domain=N jitter_us=200 adversary.X=hide_loss "
               "fake_delay_us=500",
     .disk_store = false,
     .check_paths = 20,
     .check_pps = 400000,
     .check_rounds = 4,
     .predicted = "core ~70%, collector ~20%"},
    // Runnable, but not in BENCHMARK.json: a lost envelope stalls its
    // consumers until the stream ends, so its freshness cannot be steady
    // (perfbench/README.md, Findings).
    {.name = "short_rounds_hostile",
     .config = "name=short_rounds_hostile domains=S,X,N,D paths=200 "
               "pps=400000 round_us=5000 rounds=60 chunk_bytes=512 "
               "fault_drop=0.02 fault_corrupt=0.01 fault_duplicate=0.05 "
               "fault_reorder=0.1 fault_delay=0.1 fault_max_delay_ticks=3 "
               "gap_patience=4 crash_every=2",
     .disk_store = true,
     .check_paths = 50,
     .check_pps = 100000,
     .check_rounds = 40,
     .predicted = "dissem (per-envelope work)"},
    {.name = "scenario_grid",
     .config = "",
     .disk_store = false,
     .check_paths = 0,
     .check_pps = 0,
     .check_rounds = 0,
     .predicted = "sim harness ~50% of run_scenario time, not of this table"},
};

void require(bool ok, const std::string& what, const std::string& repro) {
  if (!ok) throw CheckFailed(what + "; repro: " + repro);
}

bool conserves_receipts(const sim::ScenarioOutcome& o) {
  return o.observed_packets == o.wire_packets;
}

std::size_t gap_count(const sim::ScenarioOutcome& o) {
  std::size_t n = 0;
  for (const auto& per_hop : o.gaps) n += per_hop.size();
  return n;
}

bool implicates(const sim::ScenarioOutcome& o, const std::string& up,
                const std::string& down) {
  const auto links = o.implicated_links();
  return std::find(links.begin(), links.end(), std::make_pair(up, down)) !=
         links.end();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sim::ScenarioConfig workload_config(const Workload& w, std::uint64_t seed) {
  sim::ScenarioConfig cfg = sim::parse_scenario(w.config);
  cfg.seed = seed;
  cfg.fault_seed = seed;
  return cfg;
}

void gate_pass(const Inputs& in, const PassResult& r) {
  const sim::ScenarioConfig& cfg = in.cfg;
  const sim::ScenarioOutcome& o = r.outcome;
  const std::string& repro = o.repro;
  require(r.groups_lost_silently == 0,
          std::to_string(r.groups_lost_silently) +
              " receipt groups never reached a verifier and no RoundGap "
              "covers them",
          repro);
  require(r.groups_ingested_twice == 0,
          std::to_string(r.groups_ingested_twice) +
              " receipt groups were ingested twice",
          repro);
  require(r.unknown_path_packets == 0, "collectors saw unknown-path packets",
          repro);
  require(o.ack_rejections == 0, "the store rejected a consumer ack", repro);
  for (const std::size_t lag : o.consumer_lag_end) {
    require(lag == 0, "a consumer ended with unread envelopes", repro);
  }
  require(!r.freshness_ms.empty(), "no (path, round) reached a verifier",
          repro);

  const bool lossless_wire = cfg.faults.lossless();
  const bool honest = cfg.adversaries.empty();
  if (lossless_wire) {
    require(r.groups_in_gaps == 0 && gap_count(o) == 0,
            "receipt groups undelivered on a lossless wire", repro);
  }
  if (honest && lossless_wire) {
    require(o.honest_clean(), "honest clean run has inconsistent links",
            repro);
    require(conserves_receipts(o),
            "packets counted on the wire differ from packets observed",
            repro);
    for (const std::string& d : o.transit_domains) {
      require(std::abs(o.estimated_loss(d) - o.true_loss(d)) <= 1e-9,
              "estimated loss through " + d + " differs from the truth",
              repro);
    }
    if (cfg.loss == sim::LossKind::kNone) {
      require(o.expired_unmatched == 0,
              "verifier state expired unmatched on a clean run", repro);
    }
  }
  for (const sim::ScenarioAdversary& a : cfg.adversaries) {
    if (a.kind != sim::AdversaryKind::kHideLoss) continue;
    const auto it =
        std::find(cfg.domains.begin(), cfg.domains.end(), a.domain);
    const std::string& next = *(it + 1);
    require(implicates(o, a.domain, next),
            "hide_loss at " + a.domain + " but " + a.domain + "->" + next +
                " is not implicated",
            repro);
    require(o.estimated_loss(a.domain) <= 1e-9,
            "the liar " + a.domain + "'s books show loss", repro);
    if (lossless_wire && cfg.adversaries.size() == 1) {
      require(o.implicated_links().size() == 1,
              "links other than the liar's are implicated", repro);
    }
  }
}

CrossCheck cross_check(const Workload& w, sim::ScenarioConfig cfg,
                       const std::filesystem::path& store_dir) {
  cfg.paths = w.check_paths;
  cfg.packets_per_second = w.check_pps;
  cfg.rounds = w.check_rounds;
  CrossCheck out;
  std::int64_t t0 = now_ns();
  const sim::ScenarioOutcome ref = sim::run_scenario(cfg);
  out.run_scenario_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const Inputs in = build_inputs(cfg);
  Tracer off(false);
  PassResult r;
  {
    Pipeline pipeline(in, store_dir, off);
    r = pipeline.run();
  }
  out.pipeline_s = r.timed_s;
  gate_pass(in, r);
  const sim::ScenarioOutcome& o = r.outcome;
  require(o.implicated_links() == ref.implicated_links(),
          "implicated links differ from run_scenario's", ref.repro);
  for (const std::string& d : o.transit_domains) {
    require(o.estimated_loss(d) == ref.estimated_loss(d),
            "estimated loss through " + d + " differs from run_scenario's",
            ref.repro);
  }
  require(gap_count(o) == gap_count(ref),
          "deduplicated gap count differs from run_scenario's", ref.repro);
  require(o.analysis == ref.analysis,
          "per-path findings differ from run_scenario's", ref.repro);
  require(o.wire_packets == ref.wire_packets,
          "wire packet counts differ from run_scenario's", ref.repro);
  return out;
}

std::vector<GridCell> grid_cells(const std::string& scenario_dir,
                                 std::uint64_t seed) {
  std::vector<GridCell> cells;
  for (const char* file : {"honest_baseline", "hide_loss",
                           "collusion_congestion", "faulty_wire_churn"}) {
    cells.push_back(GridCell{
        .name = file,
        .cfg = sim::parse_scenario(read_file(
            std::filesystem::path(scenario_dir) / (std::string(file) +
                                                   ".conf")))});
  }
  cells.push_back(GridCell{
      .name = "plain",
      .cfg = sim::parse_scenario("name=plain domains=S,X,N,D paths=1000 "
                                 "rounds=10 pps=1000000")});
  for (GridCell& c : cells) {
    c.cfg.seed = seed;
    c.cfg.fault_seed = seed;
  }
  return cells;
}

void check_grid_cell(const GridCell& cell, const sim::ScenarioOutcome& out) {
  const std::string& repro = out.repro;
  if (cell.name == "honest_baseline") {
    require(out.honest_clean(), "honest baseline is not clean", repro);
    require(conserves_receipts(out), "receipts not conserved", repro);
    require(std::abs(out.estimated_loss("X") - out.true_loss("X")) <= 1e-9,
            "loss estimate misses the truth", repro);
  } else if (cell.name == "hide_loss") {
    const auto links = out.implicated_links();
    require(links.size() == 1 && links[0] == std::make_pair(std::string("X"),
                                                            std::string("N")),
            "hide_loss must implicate exactly X->N", repro);
    require(out.estimated_loss("X") <= 1e-9, "X's books show loss", repro);
    require(out.true_loss("X") > 0.0, "X dropped nothing", repro);
  } else if (cell.name == "collusion_congestion") {
    require(out.honest_clean(), "collusion is visible at the covered link",
            repro);
    require(out.estimated_loss("X") <= 1e-9, "X's books show loss", repro);
    require(std::abs(out.estimated_loss("N") - out.true_loss("X")) <= 1e-9,
            "N's books do not absorb X's loss", repro);
    require(out.true_loss("X") > 0.0, "X dropped nothing", repro);
  } else if (cell.name == "faulty_wire_churn") {
    // A seed's fault draw can destroy nothing in so short a run; what the
    // cell promises is that destruction is never silent.
    require((gap_count(out) > 0) == (out.envelopes_destroyed > 0),
            "gaps reported do not match envelopes destroyed", repro);
    require(out.client_rebuilds > 0, "no consumer crash-restart", repro);
    require(out.ack_rejections == 0, "an ack was rejected", repro);
    for (const std::size_t lag : out.consumer_lag_end) {
      require(lag == 0, "a consumer ended behind", repro);
    }
    require(out.store_envelopes_end == 0, "the store did not drain", repro);
    require(out.store_gc_erased > 0, "the store collected nothing", repro);
  } else {
    require(out.honest_clean(), "plain run is not clean", repro);
    require(conserves_receipts(out), "receipts not conserved", repro);
  }
}

void inject_wrong_finding(sim::ScenarioOutcome& out) {
  core::DomainLossReport& loss = out.analysis.at(0).domains.at(0).loss;
  if (loss.delivered > 0) {
    --loss.delivered;
  } else {
    ++loss.offered;
  }
}

}  // namespace perfbench
