// The churn-soak acceptance matrix: ≥50 reporting rounds with ≥30% path
// turnover through the full epoch lifecycle — TTL eviction + arena
// compaction at the collectors, cursor-GC'd dissemination, and the
// round-fed incremental verifier — driven by the scenario engine's
// `churn=` schedule.  Continuously-live paths' delivered streams stay
// IDENTICAL to the grow-only run (the same config with ttl_rounds=0),
// their incremental findings equal the batch PathVerifier's over that
// run's stream, and resident bytes plateau.  A deployment-sized verifier
// (retain_rounds=4) fed the churn run's stream pins the same findings
// under a small retention window: nothing expires unmatched and its
// working set plateaus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental_verifier.hpp"
#include "core/verifier.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

constexpr std::size_t kStable = 12;

// 36-path routing table, 12 stable + 6 churning live paths (33% of the
// live set churns), each churning path living 6 rounds; idle paths are
// evicted after 3 rounds.
sim::ScenarioConfig soak_config(std::uint64_t seed, const char* digest,
                                std::size_t shards, double pps) {
  std::string text =
      "name=churn-soak domains=S,X,D paths=36 churn=12:6:6 rounds=52 "
      "round_us=40000 zipf=0.6 marker_rate=0.01 chunk_bytes=16384 "
      "ttl_rounds=3";
  text += " seed=" + std::to_string(seed);
  text += std::string(" digest=") + digest;
  text += " shards=" + std::to_string(shards);
  text += " pps=" + std::to_string(static_cast<long>(pps));
  return sim::parse_scenario(text);
}

/// One run plus the stable paths' delivered streams, concatenated across
/// rounds per [hop][path].
struct TappedRun {
  sim::ScenarioOutcome out;
  std::map<net::HopId, std::vector<std::optional<core::PathDrain>>> streams;
};

/// Runs `cfg`, recording the stable paths' streams and forwarding every
/// delivered group to `also`.
TappedRun run_tapped(const sim::ScenarioConfig& cfg,
                     const sim::DrainTap& also) {
  TappedRun run;
  run.out = sim::run_scenario(
      cfg, [&](net::HopId hop, std::size_t path,
               const core::PathDrain& drain) {
        also(hop, path, drain);
        if (path >= kStable) return;
        auto& per_path = run.streams[hop];
        per_path.resize(kStable);
        std::optional<core::PathDrain>& acc = per_path[path];
        if (!acc) {
          acc = drain;
        } else {
          acc->samples.samples.insert(acc->samples.samples.end(),
                                      drain.samples.samples.begin(),
                                      drain.samples.samples.end());
          acc->aggregates.insert(acc->aggregates.end(),
                                 drain.aggregates.begin(),
                                 drain.aggregates.end());
        }
      });
  return run;
}

/// Incremental verifiers with a deployment-sized retention window, one
/// per path.  The engine's own verifiers keep unmatched state for the
/// whole run, so these are what exercise expiry under churn + eviction.
struct TightVerifiers {
  std::vector<core::IncrementalPathVerifier> per_path;
  /// Tail + pending entries per path, as of its latest round.
  std::vector<std::size_t> entries;
  /// The sum of `entries` after every delivered group, in delivery order.
  std::vector<std::size_t> working_set;

  TightVerifiers(const core::PathLayout& layout, std::size_t paths)
      : entries(paths, 0) {
    per_path.reserve(paths);
    for (std::size_t p = 0; p < paths; ++p) {
      per_path.emplace_back(core::IncrementalPathVerifier::Config{
          .layout = layout, .retain_rounds = 4, .margin_boundaries = 2});
    }
  }

  void add(net::HopId hop, std::size_t path, const core::PathDrain& drain) {
    per_path[path].add_round(hop, drain);
    const auto s = per_path[path].resident_stats();
    entries[path] = s.tail_aggregate_receipts + s.pending_ingress_samples +
                    s.pending_sample_rounds;
    std::size_t total = 0;
    for (std::size_t e : entries) total += e;
    working_set.push_back(total);
  }
};

/// The equality half of the acceptance criterion.
void assert_live_paths_identical(const TappedRun& churn,
                                 const TappedRun& grow_only,
                                 const std::vector<core::PathVerifier>& batch) {
  const sim::ScenarioOutcome& r = churn.out;
  const std::string& what = r.repro;
  ASSERT_GE(r.rounds.size(), 50u) << what;
  ASSERT_GT(r.total_packets, 0u) << what;
  ASSERT_EQ(churn.streams.size(), r.layout.hops.size()) << what;
  ASSERT_EQ(grow_only.streams.size(), r.layout.hops.size()) << what;
  for (const auto& [hop, per_path] : churn.streams) {
    const auto& twin = grow_only.streams.at(hop);
    for (std::size_t p = 0; p < kStable; ++p) {
      ASSERT_TRUE(per_path[p].has_value()) << what;
      ASSERT_EQ(per_path[p], twin[p])
          << what << ": hop " << hop << " path " << p
          << ": delivered stream diverged from the grow-only run";
    }
  }
  for (std::size_t p = 0; p < kStable; ++p) {
    const core::PathAnalysis& a = r.analysis[p];
    ASSERT_EQ(a, batch[p].analyze(r.layout))
        << what << ": path " << p
        << ": incremental findings diverged from the batch verifier";
    // The findings are non-trivial: delay samples matched and traffic
    // accounted.  S,X,D has one transit domain and two links.
    ASSERT_EQ(a.domains.size(), 1u) << what;
    ASSERT_EQ(a.links.size(), 2u) << what;
    EXPECT_GT(a.domains[0].delay.common_samples, 0u) << what << ": path " << p;
    EXPECT_GT(a.domains[0].loss.offered, 0u) << what;
  }
  EXPECT_GT(r.evicted_paths, 0u)
      << what << ": the churn schedule must actually exercise eviction";
}

/// Max over the middle third of `series` against max over the last
/// third: the last may exceed the middle by `slack_percent` plus 4096.
void expect_plateau(const std::vector<std::size_t>& series,
                    std::size_t slack_percent, const std::string& what,
                    const char* metric) {
  const std::size_t third = series.size() / 3;
  const auto begin = series.begin();
  const std::size_t mid = *std::max_element(
      begin + static_cast<std::ptrdiff_t>(third),
      begin + static_cast<std::ptrdiff_t>(2 * third));
  const std::size_t last = *std::max_element(
      begin + static_cast<std::ptrdiff_t>(2 * third), series.end());
  EXPECT_LE(last, mid + mid * slack_percent / 100 + 4096)
      << what << ": " << metric << " must plateau (middle-third max " << mid
      << ", last-third max " << last << ")";
}

/// The small-window half: the deployment-sized verifiers, fed the churn
/// run's stream, agree with the batch verifier, never expire unmatched
/// state, and hold a plateauing working set.
void assert_tight_window(const TightVerifiers& tight,
                         const std::vector<core::PathVerifier>& batch,
                         const sim::ScenarioOutcome& r) {
  const std::string& what = r.repro;
  for (std::size_t p = 0; p < kStable; ++p) {
    ASSERT_EQ(tight.per_path[p].analyze(), batch[p].analyze(r.layout))
        << what << ": path " << p
        << ": retain_rounds=4 findings diverged from the batch verifier";
  }
  std::uint64_t expired = 0;
  for (const core::IncrementalPathVerifier& v : tight.per_path) {
    expired += v.resident_stats().expired_unmatched;
  }
  EXPECT_EQ(expired, 0u)
      << what << ": in-window reporting must never expire unmatched state "
      << "under retain_rounds=4";
  expect_plateau(tight.working_set, 10, what, "verifier working set");
}

/// The plateau half.  Resident arena bytes are "bounded by live work":
/// (1) garbage never exceeds the compaction watermark at any sampled
/// round (the exact post-lifecycle invariant), (2) the total plateaus up
/// to the slow burst-peak ratcheting of LIVE slice capacities (a stable
/// path's buffer/ring doubles on a rare deep burst — real live memory the
/// grow-only run pays too), and (3) the grow-only run pulls away.
/// Store bytes plateau tightly.
void assert_plateau(const sim::ScenarioOutcome& churn,
                    const sim::ScenarioOutcome& grow_only) {
  // The engine's lifecycle compacts once garbage crosses 25% of the arena.
  constexpr double kGarbageWatermark = 0.25;
  const std::string& what = churn.repro;
  const auto& rounds = churn.rounds;
  const std::size_t n = rounds.size();

  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = rounds[i];
    const double garbage =
        static_cast<double>(m.arena_bytes - m.arena_live_bytes);
    EXPECT_LE(garbage,
              kGarbageWatermark * static_cast<double>(m.arena_bytes) + 64.0)
        << what << ": round " << i
        << ": post-lifecycle garbage must sit at or below the watermark";
  }

  std::vector<std::size_t> arena;
  std::vector<std::size_t> store;
  for (const sim::RoundHealth& m : rounds) {
    arena.push_back(m.arena_bytes);
    store.push_back(m.store_payload_bytes);
  }
  expect_plateau(arena, 50, what, "resident arena bytes");
  expect_plateau(store, 10, what, "retained store bytes");

  // The grow-only run keeps dead paths' arena slices; the store keeps a
  // small fraction of everything ever shipped.
  const auto& last = rounds.back();
  EXPECT_LT(static_cast<double>(last.arena_bytes),
            0.6 * static_cast<double>(grow_only.rounds.back().arena_bytes))
      << what
      << ": evicting + compacting must clearly beat the grow-only run";
  EXPECT_LT(last.store_payload_bytes, last.shipped_payload_bytes / 4)
      << what << ": cursor GC must retain a small fraction of the stream";
  EXPECT_GT(churn.store_gc_erased, 0u) << what;

  // Eviction keeps firing as churned paths expire (not just once).
  EXPECT_GT(last.evicted_paths, rounds[n / 2].evicted_paths) << what;
}

/// Runs the churning config and its grow-only twin and asserts every
/// half; returns the churning run's outcome.
sim::ScenarioOutcome soak(const sim::ScenarioConfig& cfg) {
  sim::ScenarioConfig grow_only_cfg = cfg;
  grow_only_cfg.ttl_rounds = 0;
  std::vector<core::PathVerifier> batch(kStable);
  const TappedRun grow_only = run_tapped(
      grow_only_cfg,
      [&](net::HopId hop, std::size_t path, const core::PathDrain& drain) {
        if (path < kStable) batch[path].add_round(hop, drain);
      });
  TightVerifiers tight(grow_only.out.layout, cfg.paths);
  TappedRun churn = run_tapped(
      cfg, [&](net::HopId hop, std::size_t path,
               const core::PathDrain& drain) { tight.add(hop, path, drain); });
  assert_live_paths_identical(churn, grow_only, batch);
  assert_tight_window(tight, batch, churn.out);
  assert_plateau(churn.out, grow_only.out);
  return std::move(churn.out);
}

TEST(ChurnSoak, PlateauAndLifecycleUnderDefaultLoad) {
  const sim::ScenarioOutcome r =
      soak(soak_config(1, "independent", 4, 50'000.0));
  EXPECT_GT(r.rounds.back().compactions, 0u)
      << r.repro << ": eviction garbage must cross the compaction watermark";
  EXPECT_GT(r.rounds.back().reclaimed_arena_bytes, 0u) << r.repro;
}

// The acceptance matrix: 10 seeds × both digest modes × sharded {1,4}.
// Split across cases so ctest can parallelize.
void run_matrix(const char* digest, std::size_t shards) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    (void)soak(soak_config(seed, digest, shards, 25'000.0));
  }
}

TEST(ChurnSoakMatrix, SingleDigestOneShard) { run_matrix("single", 1); }
TEST(ChurnSoakMatrix, SingleDigestFourShards) { run_matrix("single", 4); }
TEST(ChurnSoakMatrix, IndependentDigestOneShard) {
  run_matrix("independent", 1);
}
TEST(ChurnSoakMatrix, IndependentDigestFourShards) {
  run_matrix("independent", 4);
}

}  // namespace
}  // namespace vpm
