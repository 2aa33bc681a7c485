// The fault-soak acceptance matrix: the S -> X -> D chain's dissemination
// driven by the scenario engine through FaultyTransport and a
// crash-restarted FetchClient fleet, 10 seeds × both digest modes × four
// fault plans — asserting that fully delivered rounds yield findings
// IDENTICAL to a fault-free replay of the same rounds, that every induced
// loss surfaces as an explicitly reported RoundGap anchored at a
// destroyed sequence, that no cursor sticks, and that the store's GC
// floor advances to the head.  Excluded from the default ctest sweep
// (like ChurnSoak); CI runs it as a dedicated ASan+UBSan step, and the
// concurrent-fetch probe runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

enum class PlanKind { kDropOnly, kDupReorder, kCrashResume, kKitchenSink };

sim::ScenarioConfig soak_config(std::uint64_t seed, const char* digest,
                                PlanKind kind) {
  // Light traffic: the interesting work is on the wire, not in the
  // collector.  Small chunks -> several envelopes per round -> more fault
  // surface.  Gap patience (3) stays above the plan's max delay (2), so
  // reordering and delay alone never degrade into a gap.
  std::string text = "name=fault-soak domains=S,X,D paths=6 zipf=1.1 "
                     "pps=15000 rounds=30 chunk_bytes=2048 gap_patience=3";
  text += " seed=" + std::to_string(seed);
  text += " fault_seed=" + std::to_string(seed * 7919 + 17);
  text += std::string(" digest=") + digest;
  switch (kind) {
    case PlanKind::kDropOnly:
      text += " fault_drop=0.06";
      break;
    case PlanKind::kDupReorder:
      text += " fault_duplicate=0.15 fault_reorder=0.15 fault_delay=0.10";
      break;
    case PlanKind::kCrashResume:
      // Lossless wire, crashing fleet: the pure crash-resume exercise —
      // divergence here is a cursor/replay bug, nothing else.
      text += " fault_duplicate=0.10 fault_reorder=0.10 fault_delay=0.10"
              " crash_every=5";
      break;
    case PlanKind::kKitchenSink:
      text += " fault_drop=0.04 fault_corrupt=0.03 fault_duplicate=0.10"
              " fault_reorder=0.10 fault_delay=0.10 crash_every=7";
      break;
  }
  return sim::parse_scenario(text);
}

/// Invariants every run must satisfy, faults or not: cursors caught up,
/// store drained by GC, every ack accepted, nothing expired out of the
/// verifiers' retention window.
void assert_no_stuck_state(const sim::ScenarioOutcome& r) {
  const std::string& what = r.repro;
  ASSERT_GT(r.total_packets, 0u) << what;
  for (std::size_t h = 0; h < r.consumer_lag_end.size(); ++h) {
    EXPECT_EQ(r.consumer_lag_end[h], 0u)
        << what << ": hop " << h << ": consumer cursor stuck behind head";
  }
  EXPECT_EQ(r.ack_rejections, 0u) << what << ": a boundary ack was rejected";
  EXPECT_GT(r.groups_delivered, 0u) << what;
  EXPECT_EQ(r.store_envelopes_end, 0u)
      << what << ": acked envelopes must be garbage-collected";
  EXPECT_GT(r.store_gc_erased, 0u) << what << ": the GC floor never advanced";
  EXPECT_EQ(r.expired_unmatched, 0u) << what;
  EXPECT_EQ(r.reference_expired_unmatched, 0u) << what;
}

/// The gap-exactness half: reported gaps anchor at destroyed sequences
/// and cover every destroyed sequence — reordering/delay/duplication
/// alone never degrade into a gap.
void assert_gaps_exact(const sim::ScenarioOutcome& r) {
  const std::string& what = r.repro;
  ASSERT_EQ(r.lost_sequences.size(), r.gaps.size()) << what;
  for (std::size_t h = 0; h < r.gaps.size(); ++h) {
    const std::set<std::uint64_t> lost(r.lost_sequences[h].begin(),
                                       r.lost_sequences[h].end());
    for (const core::RoundGap& g : r.gaps[h]) {
      EXPECT_LE(g.first_sequence, g.last_sequence) << what;
      EXPECT_TRUE(lost.contains(g.first_sequence))
          << what << ": hop " << h << ": gap [" << g.first_sequence << ", "
          << g.last_sequence
          << "] is not anchored at a destroyed sequence (phantom gap)";
    }
    for (const std::uint64_t seq : lost) {
      const bool covered = std::any_of(
          r.gaps[h].begin(), r.gaps[h].end(), [&](const core::RoundGap& g) {
            return g.first_sequence <= seq && seq <= g.last_sequence;
          });
      EXPECT_TRUE(covered) << what << ": hop " << h << ": destroyed seq "
                           << seq << " was never reported as a gap";
    }
    if (lost.empty()) {
      EXPECT_TRUE(r.gaps[h].empty())
          << what << ": hop " << h << ": gap reported on a lossless wire";
    } else {
      EXPECT_FALSE(r.gaps[h].empty()) << what << ": hop " << h;
    }
  }
}

/// The findings half.  Lossless runs must match the delivered-round
/// reference EXACTLY (operator==, gaps empty both sides); lossy runs must
/// match on every finding while the gap vectors carry the difference.
void assert_findings(const sim::ScenarioOutcome& r, bool lossless) {
  const std::string& what = r.repro;
  ASSERT_EQ(r.delivered_reference.size(), r.analysis.size()) << what;
  for (std::size_t p = 0; p < r.analysis.size(); ++p) {
    const core::PathAnalysis& fa = r.analysis[p];
    const core::PathAnalysis& ra = r.delivered_reference[p];
    EXPECT_TRUE(ra.complete()) << what << ": reference grew gaps";
    if (lossless) {
      ASSERT_EQ(fa, ra) << what << ": path " << p
                        << ": findings diverged on a lossless wire";
      EXPECT_TRUE(fa.complete()) << what << ": path " << p;
      // The equality is non-trivial: delays matched, traffic accounted.
      // S,X,D has one transit domain and two inter-domain links.
      ASSERT_EQ(fa.domains.size(), 1u) << what;
      ASSERT_EQ(fa.links.size(), 2u) << what;
      EXPECT_GT(fa.domains[0].delay.common_samples, 0u) << what;
      EXPECT_GT(fa.domains[0].loss.offered, 0u) << what;
    } else {
      ASSERT_EQ(fa.domains, ra.domains)
          << what << ": path " << p
          << ": delivered rounds must verify identically to the "
             "fault-free reference over the same rounds";
      ASSERT_EQ(fa.links, ra.links) << what << ": path " << p;
    }
  }
}

void run_one(std::uint64_t seed, const char* digest, PlanKind kind) {
  const sim::ScenarioConfig cfg = soak_config(seed, digest, kind);
  const sim::ScenarioOutcome r = sim::run_scenario(cfg);
  const std::string& what = r.repro;
  assert_no_stuck_state(r);
  assert_gaps_exact(r);
  assert_findings(r, cfg.faults.lossless());

  switch (kind) {
    case PlanKind::kDropOnly:
      EXPECT_GT(r.envelopes_destroyed, 0u) << what << ": plan induced no loss";
      break;
    case PlanKind::kDupReorder:
      EXPECT_EQ(r.envelopes_destroyed, 0u) << what;
      EXPECT_GT(r.envelopes_duplicated, 0u) << what;
      EXPECT_GT(r.envelopes_reordered_or_delayed, 0u) << what;
      EXPECT_GT(r.store_rejected, 0u)
          << what << ": duplicate copies must be rejected, not re-applied";
      break;
    case PlanKind::kCrashResume:
      EXPECT_EQ(r.envelopes_destroyed, 0u) << what;
      EXPECT_GT(r.client_rebuilds, 0u) << what;
      break;
    case PlanKind::kKitchenSink:
      EXPECT_GT(r.envelopes_destroyed, 0u) << what;
      EXPECT_GT(r.client_rebuilds, 0u) << what;
      EXPECT_GT(r.store_rejected, 0u)
          << what << ": corrupted envelopes must die at the MAC check";
      break;
  }
}

// The acceptance matrix: 10 seeds × both digest modes per plan, split
// across cases so ctest can parallelize.
void run_matrix(PlanKind kind) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    run_one(seed, "single", kind);
    run_one(seed, "independent", kind);
  }
}

TEST(FaultSoakMatrix, DropOnly) { run_matrix(PlanKind::kDropOnly); }
TEST(FaultSoakMatrix, DuplicateAndReorder) {
  run_matrix(PlanKind::kDupReorder);
}
TEST(FaultSoakMatrix, CrashResume) { run_matrix(PlanKind::kCrashResume); }
TEST(FaultSoakMatrix, KitchenSink) { run_matrix(PlanKind::kKitchenSink); }

// Concurrent cursor fetches are read-only: a fleet of consumers draining
// the same producer from distinct cursors must not race (TSan target).
TEST(FaultSoak, ConcurrentFetchAcrossConsumersIsRaceFree) {
  constexpr dissem::DomainKey kKey = 0x7E57;
  constexpr dissem::DomainId kProducer = 9;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kEnvelopes = 64;

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    store.register_consumer("c" + std::to_string(c));
  }
  for (std::uint64_t seq = 1; seq <= kEnvelopes; ++seq) {
    std::vector<std::byte> payload(16 + seq % 7,
                                   static_cast<std::byte>(seq & 0xFF));
    ASSERT_EQ(store.ingest(dissem::seal(kProducer, seq, std::move(payload),
                                        kKey)),
              dissem::IngestResult::kAccepted);
  }
  // Stagger the cursors so the threads walk different suffixes.
  for (std::size_t c = 1; c < kConsumers; ++c) {
    ASSERT_EQ(store.ack("c" + std::to_string(c), kProducer,
                        static_cast<std::uint64_t>(c) * 4),
              dissem::AckResult::kAcked);
  }

  std::array<std::uint64_t, kConsumers> seen{};
  std::array<std::uint64_t, kConsumers> bytes{};
  {
    std::vector<std::thread> threads;
    threads.reserve(kConsumers);
    for (std::size_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&store, &seen, &bytes, c] {
        store.fetch_from("c" + std::to_string(c), kProducer,
                         [&](std::uint64_t seq,
                             std::span<const std::byte> payload) {
                           seen[c] = seq;
                           bytes[c] += payload.size();
                         });
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(seen[c], kEnvelopes);
    EXPECT_GT(bytes[c], 0u);
    // Serial acks afterwards: every consumer saw through the head.
    EXPECT_EQ(store.ack("c" + std::to_string(c), kProducer, kEnvelopes),
              dissem::AckResult::kAcked);
  }
  EXPECT_EQ(store.stored_envelopes(), 0u)
      << "all consumers acked the head; GC must drain the store";
}

}  // namespace
}  // namespace vpm
