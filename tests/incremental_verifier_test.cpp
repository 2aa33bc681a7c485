// The round-fed verifier against the materialized reference.
//
// Incremental alignment: consumed prefix + tail must reproduce batch
// align_aggregates over arbitrary feed slicings, including patch-up
// migrations whose shift straddles a consumed seam.  Incremental
// verification: IncrementalPathVerifier fed rounds with realistic shipping
// lag (downstream HOPs ship a round late) must produce analyze() findings
// identical to PathVerifier over the concatenated receipts — violations
// included.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/alignment.hpp"
#include "core/incremental_verifier.hpp"
#include "core/verifier.hpp"
#include "net/path_id.hpp"

namespace vpm::core {
namespace {

net::PathId test_path() {
  net::PathId id;
  id.max_diff = net::milliseconds(5);
  return id;
}

AggregateReceipt agg(net::PacketDigest first, std::uint32_t count,
                     std::int64_t opened_ms, std::int64_t closed_ms) {
  AggregateReceipt r;
  r.path = test_path();
  r.agg = AggId{.first = first, .last = first + 7};
  r.packet_count = count;
  r.opened_at = net::Timestamp{net::milliseconds(opened_ms).nanoseconds()};
  r.closed_at = net::Timestamp{net::milliseconds(closed_ms).nanoseconds()};
  return r;
}

// --- incremental alignment ------------------------------------------------

// Random upstream sequence; downstream merges random runs of it (coarser
// cuts / lost cutting packets).  Feeding the two sides at different paces
// with per-step consumption must reproduce the batch alignment exactly.
TEST(IncrementalAlignment, ConsumedPrefixPlusTailEqualsBatch) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::uniform_int_distribution<std::uint32_t> count_dist(50, 150);
    std::uniform_int_distribution<int> run_dist(1, 3);
    const std::size_t n = 40;
    std::vector<AggregateReceipt> up;
    for (std::size_t i = 0; i < n; ++i) {
      up.push_back(agg(1000 + 10 * static_cast<net::PacketDigest>(i),
                       count_dist(rng), static_cast<std::int64_t>(i) * 10,
                       static_cast<std::int64_t>(i) * 10 + 9));
    }
    std::vector<AggregateReceipt> down;
    for (std::size_t i = 0; i < n;) {
      const std::size_t run =
          std::min<std::size_t>(static_cast<std::size_t>(run_dist(rng)),
                                n - i);
      AggregateReceipt merged = up[i];
      for (std::size_t k = 1; k < run; ++k) {
        merged.packet_count += up[i + k].packet_count;
        merged.agg.last = up[i + k].agg.last;
        merged.closed_at = up[i + k].closed_at;
      }
      down.push_back(merged);
      i += run;
    }

    const AlignmentResult batch = align_aggregates(up, down, true);

    AggregateTail tail;
    std::vector<AlignedAggregate> consumed;
    std::size_t consumed_migrations = 0;
    std::size_t ui = 0;
    std::size_t di = 0;
    std::uniform_int_distribution<std::size_t> chunk(1, 5);
    while (ui < up.size() || di < down.size()) {
      const std::size_t un = std::min(chunk(rng), up.size() - ui);
      tail.up.insert(tail.up.end(), up.begin() + ui, up.begin() + ui + un);
      ui += un;
      const std::size_t dn = std::min(chunk(rng), down.size() - di);
      tail.down.insert(tail.down.end(), down.begin() + di,
                       down.begin() + di + dn);
      di += dn;
      consumed_migrations +=
          consume_aligned_prefix(tail, 2, consumed).migrations;
    }
    const AlignmentResult rest = align_tail(tail);
    std::vector<AlignedAggregate> all = consumed;
    all.insert(all.end(), rest.aligned.begin(), rest.aligned.end());

    ASSERT_EQ(all, batch.aligned) << "trial " << trial;
    EXPECT_EQ(consumed_migrations + rest.migrations, batch.migrations);
    EXPECT_LT(tail.receipt_count(), up.size() + down.size())
        << "the tail must actually have consumed receipts";
  }
}

// A patch-up migration at the consumed seam boundary: its shift into the
// consumed group applies immediately, the mirror shift rides the carry
// into the next tail alignment.
TEST(IncrementalAlignment, SeamMigrationCarriesAcrossConsumption) {
  const net::PacketDigest b1 = 2000;
  const net::PacketDigest b2 = 3000;
  const net::PacketDigest wanderer = 4242;

  std::vector<AggregateReceipt> up = {agg(1000, 100, 0, 9),
                                      agg(b1, 100, 10, 19),
                                      agg(b2, 100, 20, 29)};
  std::vector<AggregateReceipt> down = up;
  // The upstream HOP saw `wanderer` after the b2 cut; the downstream HOP
  // counted it before — §6.3 migrates it down[1] -> down[2].
  up[1].trans.after = {b2, wanderer};
  down[1].trans.after = {b2};
  down[1].trans.before = {wanderer};

  const AlignmentResult batch = align_aggregates(up, down, true);
  ASSERT_EQ(batch.migrations, 1u);
  ASSERT_EQ(batch.aligned.size(), 3u);
  ASSERT_EQ(batch.aligned[1].down_count, 99u);
  ASSERT_EQ(batch.aligned[2].down_count, 101u);

  // Margin 0 forces consumption right through the migrated boundary.
  AggregateTail tail;
  tail.up = up;
  tail.down = down;
  std::vector<AlignedAggregate> consumed;
  const TailConsumeStats stats = consume_aligned_prefix(tail, 0, consumed);
  ASSERT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(tail.down_carry, 1) << "the +1 into down[2] rides the carry";

  const AlignmentResult rest = align_tail(tail);
  std::vector<AlignedAggregate> all = consumed;
  all.insert(all.end(), rest.aligned.begin(), rest.aligned.end());
  EXPECT_EQ(all, batch.aligned);
  EXPECT_EQ(stats.migrations + rest.migrations, batch.migrations);
}

// --- the round-fed verifier ----------------------------------------------

/// Crafted three-HOP rounds (A,B alpha; C beta) with shipping lag: HOP 2
/// ships each sampling round one reporting round late, HOP 3 two late.
/// Round `bad_delay_round` adds 10 ms to HOP 3's times (link delay-bound
/// violations); round `bad_count_round` under-counts HOP 3's aggregate
/// (count-mismatch violation).
struct CraftedRun {
  static constexpr std::size_t kRounds = 8;
  PathLayout layout{.hops = {1, 2, 3},
                    .domain_of = {"alpha", "alpha", "beta"}};

  [[nodiscard]] PathDrain round_data(std::size_t hop_pos,
                                     std::size_t r) const {
    const std::int64_t base_ns =
        net::milliseconds(static_cast<std::int64_t>(r)).nanoseconds();
    std::int64_t shift_ns =
        net::microseconds(200 * static_cast<std::int64_t>(hop_pos))
            .nanoseconds();
    if (hop_pos == 2 && r == 3) {
      shift_ns += net::milliseconds(10).nanoseconds();  // past MaxDiff
    }
    PathDrain d;
    d.samples.path = test_path();
    for (std::uint32_t k = 0; k < 5; ++k) {
      d.samples.samples.push_back(SampleRecord{
          .pkt_id = static_cast<net::PacketDigest>(100 * r + k + 1),
          .time = net::Timestamp{base_ns + shift_ns + k * 10'000},
          .is_marker = false});
    }
    d.samples.samples.push_back(SampleRecord{
        .pkt_id = static_cast<net::PacketDigest>(90'000 + r),
        .time = net::Timestamp{base_ns + shift_ns + 500'000},
        .is_marker = true});

    std::uint32_t count = 1000;
    if (hop_pos == 2 && r == 5) count = 997;  // link count mismatch
    d.aggregates.push_back(
        agg(static_cast<net::PacketDigest>(5000 + r), count,
            static_cast<std::int64_t>(r), static_cast<std::int64_t>(r)));
    return d;
  }

  /// The drain HOP `hop_pos` ships at reporting round `t` (lag applied),
  /// or an empty drain when it has nothing yet.
  [[nodiscard]] PathDrain shipped(std::size_t hop_pos, std::size_t t) const {
    if (t >= hop_pos && t - hop_pos < kRounds) {
      return round_data(hop_pos, t - hop_pos);
    }
    PathDrain empty;
    empty.samples.path = test_path();
    return empty;
  }
};

TEST(IncrementalVerifier, MatchesMaterializedVerifierWithShippingLag) {
  const CraftedRun run;
  IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
      .layout = run.layout, .retain_rounds = 4, .margin_boundaries = 2});
  PathVerifier reference;

  std::size_t max_tail = 0;
  for (std::size_t t = 0; t < CraftedRun::kRounds + 2; ++t) {
    for (std::size_t pos = 0; pos < 3; ++pos) {
      PathDrain d = run.shipped(pos, t);
      reference.add_round(run.layout.hops[pos], d);
      incremental.add_round(run.layout.hops[pos], std::move(d));
    }
    // analyze() is a non-destructive view — callable every round.
    (void)incremental.analyze();
    max_tail = std::max(max_tail,
                        incremental.resident_stats().tail_aggregate_receipts);
  }

  const PathAnalysis batch = reference.analyze(run.layout);
  const PathAnalysis live = incremental.analyze();
  ASSERT_EQ(live.domains.size(), 1u);
  ASSERT_EQ(live.links.size(), 1u);

  // The crafted defects must actually show up...
  EXPECT_GT(live.domains[0].delay.common_samples, 0u);
  EXPECT_FALSE(live.links[0].report.samples.consistent())
      << "round 3's 10 ms shift must violate the delay bound";
  EXPECT_FALSE(live.links[0].report.aggregates.consistent())
      << "round 5's under-count must violate count consistency";
  EXPECT_TRUE(live.domains[0].loss.offered > 0);

  // ...and be identical to the materialized analysis, field for field.
  EXPECT_EQ(live, batch);

  // Bounded retention: the alignment tails never held everything.
  EXPECT_LT(max_tail, 2 * 2 * CraftedRun::kRounds)
      << "tails must stay a window, not history";
  EXPECT_EQ(incremental.resident_stats().expired_unmatched, 0u);
}

TEST(IncrementalVerifier, MissingHopYieldsEmptyFindings) {
  const CraftedRun run;
  IncrementalPathVerifier incremental(
      IncrementalPathVerifier::Config{.layout = run.layout});
  PathVerifier reference;
  for (std::size_t r = 0; r < 3; ++r) {
    PathDrain d = run.round_data(0, r);
    reference.add_round(1, d);
    incremental.add_round(1, std::move(d));
  }
  // HOPs 2 and 3 never reported: both verifiers emit empty findings.
  EXPECT_EQ(incremental.analyze(), reference.analyze(run.layout));
}

/// Four HOPs, two domains, every packet delivered.  The link (HOP 2 -> 3)
/// carries each aggregate's last packet past the next cut and domain beta
/// (HOP 3 -> 4) puts it back, so patch-up repairs the link only with
/// HOP 2's AggTrans windows and beta only with HOP 3's.  Each interior HOP
/// feeds two pairs from one round (one copy, one move): both pairs must
/// see the windows.
TEST(IncrementalVerifier, InteriorHopsFeedTheirWindowsToBothPairs) {
  constexpr std::size_t kRounds = 8;
  const PathLayout layout{.hops = {1, 2, 3, 4},
                          .domain_of = {"alpha", "alpha", "beta", "beta"}};
  const auto cut = [](std::size_t r) {
    return static_cast<net::PacketDigest>(5000 + 100 * r);
  };
  const auto round_data = [&](std::size_t hop_pos, std::size_t r) {
    // HOP 3 sees packet cut(r)+9 after cut(r+1) (not in the last round).
    const bool reordered = hop_pos == 2;
    const bool moves_out = reordered && r + 1 < kRounds;
    const bool moves_in = reordered && r > 0;
    PathDrain d;
    d.samples.path = test_path();
    AggregateReceipt a =
        agg(cut(r), 10 - (moves_out ? 1 : 0) + (moves_in ? 1 : 0),
            static_cast<std::int64_t>(r) * 10,
            static_cast<std::int64_t>(r) * 10 + 9);
    a.trans.before = {cut(r) + 8};
    a.trans.after = {cut(r + 1), cut(r + 1) + 1};
    if (moves_out) {
      a.trans.after.insert(a.trans.after.begin() + 1, cut(r) + 9);
    } else {
      a.trans.before.push_back(cut(r) + 9);
    }
    d.aggregates.push_back(std::move(a));
    return d;
  };

  IncrementalPathVerifier incremental(
      IncrementalPathVerifier::Config{.layout = layout});
  PathVerifier reference;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t pos = 0; pos < layout.hops.size(); ++pos) {
      PathDrain d = round_data(pos, r);
      reference.add_round(layout.hops[pos], d);
      incremental.add_round(layout.hops[pos], std::move(d));
    }
  }

  const PathAnalysis live = incremental.analyze();
  ASSERT_EQ(live.domains.size(), 2u);
  ASSERT_EQ(live.links.size(), 1u);
  EXPECT_TRUE(live.links[0].report.aggregates.consistent());
  const DomainLossReport& beta = live.domains[1].loss;
  EXPECT_EQ(beta.patchup_migrations, kRounds - 1);
  EXPECT_EQ(beta.offered, beta.delivered);
  for (const AlignedAggregate& g : beta.details) EXPECT_EQ(g.lost(), 0);
  EXPECT_EQ(live, reference.analyze(layout));
}

TEST(IncrementalVerifier, ValidatesConfigAndHops) {
  PathLayout bad{.hops = {1, 2}, .domain_of = {"a"}};
  EXPECT_THROW(
      IncrementalPathVerifier(IncrementalPathVerifier::Config{.layout = bad}),
      std::invalid_argument);

  PathLayout ok{.hops = {1, 2}, .domain_of = {"a", "a"}};
  EXPECT_THROW(IncrementalPathVerifier(IncrementalPathVerifier::Config{
                   .layout = ok, .retain_rounds = 0}),
               std::invalid_argument);

  IncrementalPathVerifier v(
      IncrementalPathVerifier::Config{.layout = ok});
  EXPECT_THROW(v.add_round(42, PathDrain{}), std::invalid_argument);
  EXPECT_EQ(v.rounds_ingested(1), 0u);
  v.add_round(1, PathDrain{});
  EXPECT_EQ(v.rounds_ingested(1), 1u);
}

}  // namespace
}  // namespace vpm::core
