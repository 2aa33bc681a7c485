// Tests for the receipt-level join and reorder patch-up (Section 6.3):
// hand-built scenarios mirroring the paper's worked examples, end-to-end
// checks driven by real aggregators over simulated reordering, and
// byte-identity against the node-based reference oracle on seeded random
// and hostile tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/aggregator.hpp"
#include "core/alignment.hpp"
#include "core/config.hpp"
#include "loss/bernoulli.hpp"
#include "reference/alignment_oracle.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

AggregateReceipt make_agg(std::uint32_t first, std::uint32_t last,
                          std::uint32_t count, double open_s, double close_s) {
  AggregateReceipt r;
  r.agg = AggId{first, last};
  r.packet_count = count;
  r.opened_at = net::Timestamp{} + net::seconds_f(open_s);
  r.closed_at = net::Timestamp{} + net::seconds_f(close_s);
  return r;
}

// ------------------------------------------------------- hand-built cases

TEST(Alignment, IdenticalSequencesAlignOneToOne) {
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 9, 100, 0.0, 0.9),
      make_agg(10, 19, 200, 1.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const AlignmentResult r = align_aggregates(up, up, false);
  ASSERT_EQ(r.aligned.size(), 3u);
  EXPECT_EQ(r.boundaries_matched, 2u);
  for (const AlignedAggregate& a : r.aligned) {
    EXPECT_EQ(a.lost(), 0);
    EXPECT_EQ(a.up_receipts, 1u);
  }
  EXPECT_NEAR(r.aligned[0].duration_s(), 0.9, 1e-9);
}

TEST(Alignment, NestedPartitionsJoinToCoarser) {
  // Upstream coarse: [1..19][20..29]; downstream finer, extra cut at 10.
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 19, 300, 0.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const std::vector<AggregateReceipt> down = {
      make_agg(1, 9, 100, 0.0, 0.9),
      make_agg(10, 19, 200, 1.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const AlignmentResult r = align_aggregates(up, down, false);
  ASSERT_EQ(r.aligned.size(), 2u);
  EXPECT_EQ(r.aligned[0].up_count, 300u);
  EXPECT_EQ(r.aligned[0].down_count, 300u);
  EXPECT_EQ(r.aligned[0].down_receipts, 2u);
  EXPECT_EQ(r.boundaries_merged_down, 1u);
}

TEST(Alignment, LostCutPacketMergesUpstreamBoundary) {
  // Paper §6.3's loss example: downstream misses the cut at packet 20, so
  // its aggregates merge across it and the join coarsens.
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 19, 300, 0.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),   // cut id 20 lost downstream
      make_agg(30, 39, 100, 3.0, 3.9),
  };
  // Downstream never observed the cut at id 20, so its first aggregate
  // absorbed the survivors of [20..29] (449 = 300 + 150 - 1 lost).
  const std::vector<AggregateReceipt> down = {
      make_agg(1, 29, 449, 0.0, 2.9),
      make_agg(30, 39, 100, 3.0, 3.9),
  };
  const AlignmentResult r = align_aggregates(up, down, false);
  ASSERT_EQ(r.aligned.size(), 2u);
  // Joined aggregate 1 spans up receipts 1+2: 450 offered, 449 delivered.
  EXPECT_EQ(r.aligned[0].up_count, 450u);
  EXPECT_EQ(r.aligned[0].down_count, 449u);
  EXPECT_EQ(r.aligned[0].lost(), 1);
  EXPECT_EQ(r.boundaries_merged_up, 1u);
  EXPECT_NEAR(r.aligned[0].duration_s(), 2.9, 1e-9);  // 0.0 .. 2.9
  // The surviving boundary at id 30 still aligns exactly.
  EXPECT_EQ(r.aligned[1].lost(), 0);
  EXPECT_EQ(r.boundaries_matched, 1u);
}

TEST(Alignment, PaperReorderExampleMigration) {
  // Section 6.3: original sequence p1..p8, HOP-up partitions
  // {p1..p4}{p5..p8}; HOP-down observed <p1,p2,p3,p5,p4,p6,p7,p8> so its
  // receipts put p4 in the second aggregate.  Patch-up migrates p4 back.
  std::vector<AggregateReceipt> up = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(5, 8, 4, 0.4, 0.7),
  };
  up[0].trans.before = {3, 4};
  up[0].trans.after = {5, 6};

  std::vector<AggregateReceipt> down = {
      make_agg(1, 3, 3, 0.0, 0.25),
      make_agg(5, 8, 5, 0.35, 0.7),
  };
  down[0].trans.before = {2, 3};
  down[0].trans.after = {5, 4};  // p4 observed after the cut

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 1u);
  EXPECT_EQ(patched.down[0].packet_count, 4u);
  EXPECT_EQ(patched.down[1].packet_count, 4u);

  const AlignmentResult r = align_aggregates(up, down, true);
  ASSERT_EQ(r.aligned.size(), 2u);
  EXPECT_EQ(r.aligned[0].lost(), 0);
  EXPECT_EQ(r.aligned[1].lost(), 0);
  EXPECT_EQ(r.migrations, 1u);
}

TEST(Alignment, MigrationInOppositeDirection) {
  // Downstream saw a packet BEFORE the cut that upstream saw after it.
  std::vector<AggregateReceipt> up = {
      make_agg(1, 3, 3, 0.0, 0.25),
      make_agg(5, 8, 5, 0.35, 0.7),
  };
  up[0].trans.before = {2, 3};
  up[0].trans.after = {5, 4};

  std::vector<AggregateReceipt> down = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(5, 8, 4, 0.4, 0.7),
  };
  down[0].trans.before = {3, 4};
  down[0].trans.after = {5, 6};

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 1u);
  EXPECT_EQ(patched.down[0].packet_count, 3u);
  EXPECT_EQ(patched.down[1].packet_count, 5u);
}

TEST(Alignment, PatchupIgnoresUnmatchedBoundaries) {
  std::vector<AggregateReceipt> up = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(9, 12, 4, 0.4, 0.7),  // boundary id 9
  };
  up[0].trans.after = {9};
  std::vector<AggregateReceipt> down = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(20, 23, 4, 0.4, 0.7),  // different boundary id
  };
  down[0].trans.after = {20};
  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 0u);
}

TEST(Alignment, EmptyInputsYieldNoAggregates) {
  const std::vector<AggregateReceipt> some = {make_agg(1, 2, 10, 0, 1)};
  const std::vector<AggregateReceipt> none;
  EXPECT_TRUE(align_aggregates(none, some).aligned.empty());
  EXPECT_TRUE(align_aggregates(some, none).aligned.empty());
}

// ------------------------------------------------ end-to-end via sim/core

struct TwoHopReceipts {
  std::vector<AggregateReceipt> up;
  std::vector<AggregateReceipt> down;
  std::size_t trace_size = 0;
  std::uint64_t delivered = 0;
};

TwoHopReceipts run_two_hops(double cut_rate, net::Duration j,
                            net::Duration jitter, loss::LossModel* loss,
                            std::uint64_t seed) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 20'000;
  tcfg.duration = net::seconds(2);
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = seed + 1;
  env.domains[1].loss = loss;
  env.domains[1].jitter = jitter;
  const sim::PathRunResult run = sim::run_path(trace, env);

  const net::DigestEngine engine;
  auto collect = [&](const sim::ObsSeq& obs) {
    Aggregator agg(engine, cut_threshold_for(cut_rate), j);
    for (const sim::Obs& o : obs) agg.observe(trace[o.pkt], o.when);
    auto closed = agg.take_closed();
    if (auto last = agg.flush_open(); last.has_value()) {
      auto tail = agg.take_closed();
      closed.insert(closed.end(), tail.begin(), tail.end());
      closed.push_back(*last);
    }
    std::vector<AggregateReceipt> receipts;
    receipts.reserve(closed.size());
    for (const AggregateData& d : closed) {
      AggregateReceipt r;
      r.agg = d.agg;
      r.packet_count = d.packet_count;
      r.trans = d.trans;
      r.opened_at = d.opened_at;
      r.closed_at = d.closed_at;
      receipts.push_back(std::move(r));
    }
    return receipts;
  };

  TwoHopReceipts out;
  out.up = collect(run.hop_observations[1]);    // domain 1 ingress
  out.down = collect(run.hop_observations[2]);  // domain 1 egress
  out.trace_size = trace.size();
  out.delivered = run.hop_observations[2].size();
  return out;
}

TEST(AlignmentEndToEnd, ExactLossRecoveredUnderGilbertLoss) {
  loss::BernoulliLoss loss(0.1, 99);
  const TwoHopReceipts r = run_two_hops(1e-3, net::milliseconds(10),
                                        net::Duration{0}, &loss, 5);
  const AlignmentResult aligned = align_aggregates(r.up, r.down, true);
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const AlignedAggregate& a : aligned.aligned) {
    offered += a.up_count;
    delivered += a.down_count;
    EXPECT_GE(a.lost(), 0);
  }
  // The join must account for every packet exactly.
  EXPECT_EQ(offered, r.trace_size);
  EXPECT_EQ(delivered, r.delivered);
}

TEST(AlignmentEndToEnd, ReorderWithoutPatchupMiscounts) {
  // With jitter-induced reordering and patch-up disabled, some joined
  // aggregates show phantom loss or negative loss; patch-up repairs them.
  const net::Duration jitter = net::microseconds(400);
  const TwoHopReceipts r = run_two_hops(2e-3, net::milliseconds(10), jitter,
                                        nullptr, 7);
  const AlignmentResult raw = align_aggregates(r.up, r.down, false);
  const AlignmentResult fixed = align_aggregates(r.up, r.down, true);

  auto miscounted = [](const AlignmentResult& a) {
    std::size_t bad = 0;
    for (const AlignedAggregate& x : a.aligned) {
      if (x.lost() != 0) ++bad;
    }
    return bad;
  };
  // No packets were lost: every non-zero entry is a reorder artefact.
  EXPECT_GT(miscounted(raw), 0u) << "jitter did not straddle any boundary";
  EXPECT_EQ(miscounted(fixed), 0u);
  EXPECT_GT(fixed.migrations, 0u);
}

TEST(AlignmentEndToEnd, CountsConservedEvenWithoutPatchup) {
  const TwoHopReceipts r = run_two_hops(2e-3, net::milliseconds(10),
                                        net::microseconds(400), nullptr, 11);
  const AlignmentResult raw = align_aggregates(r.up, r.down, false);
  std::uint64_t up_total = 0;
  std::uint64_t down_total = 0;
  for (const AlignedAggregate& a : raw.aligned) {
    up_total += a.up_count;
    down_total += a.down_count;
  }
  EXPECT_EQ(up_total, r.trace_size);
  EXPECT_EQ(down_total, r.delivered);
}

// ------------------------------------- equivalence with the node oracle
//
// reference:: is the straightforward unordered_set/unordered_map
// implementation the flat membership tables replaced.  Every entry point
// must give byte-identical results on seeded random tails whose shapes
// cover what the tables could get wrong: duplicate ids in one window,
// digest 0 as a window id and as a cut, wire-maximum windows, inverted
// (swapped) and loss-merged boundaries, hostile closing ids, and windows
// of very different sizes in one call (a stale generation would leak a
// large window's ids into a later small one).

void expect_same(const AlignmentResult& got, const AlignmentResult& want) {
  EXPECT_EQ(got.aligned, want.aligned);
  EXPECT_EQ(got.boundaries_merged_up, want.boundaries_merged_up);
  EXPECT_EQ(got.boundaries_merged_down, want.boundaries_merged_down);
  EXPECT_EQ(got.boundaries_matched, want.boundaries_matched);
  EXPECT_EQ(got.migrations, want.migrations);
}

void expect_same(const PatchupResult& got, const PatchupResult& want) {
  EXPECT_EQ(got.down, want.down);
  EXPECT_EQ(got.migrations, want.migrations);
}

struct TailShape {
  std::size_t max_boundaries = 24;
  /// Window ids per boundary: usually up to `small_window`, with
  /// probability `p_large` between `large_min` and `large_max`.
  std::size_t small_window = 8;
  std::size_t large_min = 200;
  std::size_t large_max = 3000;
  double p_large = 0.2;
  /// Digests are drawn from [0, id_space): a small space forces
  /// duplicate ids and digest 0.
  std::uint64_t id_space = std::uint64_t{1} << 32;
};

struct TailPair {
  std::vector<AggregateReceipt> up;
  std::vector<AggregateReceipt> down;
};

class TailGen {
 public:
  explicit TailGen(std::uint64_t seed) : rng_(seed) {}

  TailPair pair(const TailShape& shape) {
    const std::size_t k = below(shape.max_boundaries) + 1;
    std::vector<net::PacketDigest> up_cuts(k);
    for (net::PacketDigest& c : up_cuts) c = id(shape);

    // Downstream: loss drops cuts, reordering swaps neighbours, a finer
    // partition adds cuts.
    std::vector<net::PacketDigest> down_cuts;
    for (const net::PacketDigest c : up_cuts) {
      if (chance(0.1)) continue;
      if (chance(0.1)) down_cuts.push_back(id(shape));
      down_cuts.push_back(c);
    }
    for (std::size_t c = 0; c + 1 < down_cuts.size(); ++c) {
      if (chance(0.1)) std::swap(down_cuts[c], down_cuts[c + 1]);
    }

    // One id pool per cut id, split between the sides of its window.
    std::map<net::PacketDigest, std::vector<net::PacketDigest>> pools;
    const auto pool = [&](net::PacketDigest cut) -> const auto& {
      auto [it, fresh] = pools.try_emplace(cut);
      if (fresh) {
        const std::size_t w =
            chance(shape.p_large)
                ? shape.large_min + below(shape.large_max - shape.large_min + 1)
                : below(shape.small_window + 1);
        it->second.resize(2 * w);
        for (net::PacketDigest& x : it->second) x = id(shape);
      }
      return it->second;
    };

    TailPair out;
    out.up = side(up_cuts, pool, /*flip=*/0.0);
    out.down = side(down_cuts, pool, /*flip=*/0.2);
    return out;
  }

  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(rng_); }

 private:
  net::PacketDigest id(const TailShape& shape) {
    return static_cast<net::PacketDigest>(
        std::uniform_int_distribution<std::uint64_t>(0, shape.id_space - 1)(
            rng_));
  }

  /// Receipts opened by `cuts`; each closing window takes its cut's pool,
  /// before-half / after-half, each id switching sides with
  /// probability `flip` (reordering across the cut).
  template <typename Pool>
  std::vector<AggregateReceipt> side(const std::vector<net::PacketDigest>& cuts,
                                     const Pool& pool, double flip) {
    std::vector<AggregateReceipt> seq(cuts.size() + 1);
    for (std::size_t r = 0; r < seq.size(); ++r) {
      AggregateReceipt& a = seq[r];
      a.agg = AggId{r == 0 ? static_cast<net::PacketDigest>(rng_())
                           : cuts[r - 1],
                    static_cast<net::PacketDigest>(rng_())};
      a.packet_count = static_cast<std::uint32_t>(below(60));
      a.opened_at = net::Timestamp{} + net::milliseconds(10 * r);
      a.closed_at = net::Timestamp{} + net::milliseconds(10 * r + 9);
      if (r == cuts.size()) {
        if (chance(0.2)) a.trans.before = {cuts.empty() ? 0 : cuts.back()};
        continue;  // final aggregate: normally never closed
      }
      const net::PacketDigest cut = cuts[r];
      const auto& ids = pool(cut);
      const std::size_t half = ids.size() / 2;
      a.trans.after.push_back(cut);
      for (std::size_t x = 0; x < ids.size(); ++x) {
        const bool before = (x < half) != chance(flip);
        (before ? a.trans.before : a.trans.after).push_back(ids[x]);
        if (chance(0.03)) a.trans.before.push_back(ids[x]);  // duplicate
      }
      if (chance(0.05)) a.trans.after.push_back(0);
      // Hostile closing ids: none, or one that is not the next cut.
      if (chance(0.05)) a.trans.after.clear();
      if (!a.trans.after.empty() && chance(0.05)) {
        a.trans.after.front() = static_cast<net::PacketDigest>(rng_());
      }
    }
    return seq;
  }

  std::mt19937_64 rng_;
};

TEST(AlignmentOracle, PatchupAndJoinMatchOracleOnRandomTails) {
  std::size_t migrations = 0;
  std::size_t merged = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    TailGen gen(seed);
    TailShape shape;
    if (seed % 3 == 0) shape.id_space = 64;  // duplicates and 0 galore
    const TailPair t = gen.pair(shape);
    expect_same(patch_up(t.up, t.down), reference::patch_up(t.up, t.down));
    for (const bool patch : {true, false}) {
      const AlignmentResult got = align_aggregates(t.up, t.down, patch);
      expect_same(got, reference::align_aggregates(t.up, t.down, patch));
      migrations += got.migrations;
      merged += got.boundaries_merged_up + got.boundaries_merged_down;
    }
    // The roles swapped: the finer, reordered side upstream.
    expect_same(align_aggregates(t.down, t.up),
                reference::align_aggregates(t.down, t.up));
  }
  // The shapes did exercise migration and merging.
  EXPECT_GT(migrations, 1000u);
  EXPECT_GT(merged, 100u);
}

TEST(AlignmentOracle, TailChainsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(seed);
    TailGen gen(seed * 7919);
    TailShape shape;
    shape.max_boundaries = 60;
    if (seed % 4 == 0) shape.id_space = 256;
    const TailPair t = gen.pair(shape);

    AggregateTail tail;
    AggregateTail ref_tail;
    std::vector<AlignedAggregate> out;
    std::vector<AlignedAggregate> ref_out;
    std::size_t ui = 0;
    std::size_t dj = 0;
    while (ui < t.up.size() || dj < t.down.size()) {
      // Rounds arrive in uneven chunks per side.
      for (std::size_t n = gen.below(4); n > 0 && ui < t.up.size(); --n) {
        tail.up.push_back(t.up[ui]);
        ref_tail.up.push_back(t.up[ui++]);
      }
      for (std::size_t n = gen.below(4); n > 0 && dj < t.down.size(); --n) {
        tail.down.push_back(t.down[dj]);
        ref_tail.down.push_back(t.down[dj++]);
      }
      const std::size_t margin = gen.below(4);
      const TailConsumeStats got = consume_aligned_prefix(tail, margin, out);
      const TailConsumeStats want =
          reference::consume_aligned_prefix(ref_tail, margin, ref_out);
      EXPECT_EQ(got.groups, want.groups);
      EXPECT_EQ(got.migrations, want.migrations);
      EXPECT_EQ(tail.up, ref_tail.up);
      EXPECT_EQ(tail.down, ref_tail.down);
      EXPECT_EQ(tail.down_carry, ref_tail.down_carry);
      expect_same(align_tail(tail), reference::align_tail(ref_tail));
    }
    EXPECT_EQ(out, ref_out);
  }
}

TEST(AlignmentOracle, WireMaximumWindowsMatchOracle) {
  // 0xFFFF ids per AggTrans side — the wire's u16 count maximum — then
  // small windows behind them in the same call.
  TailShape shape;
  shape.max_boundaries = 4;
  shape.large_min = 0xFFFF;
  shape.large_max = 0xFFFF;
  shape.p_large = 0.5;
  std::size_t max_window = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    TailGen gen(seed);
    const TailPair t = gen.pair(shape);
    for (const AggregateReceipt& a : t.up) {
      max_window = std::max(max_window, a.trans.before.size());
    }
    expect_same(patch_up(t.up, t.down), reference::patch_up(t.up, t.down));
    expect_same(align_aggregates(t.up, t.down),
                reference::align_aggregates(t.up, t.down));
  }
  EXPECT_GE(max_window, 0xFFFFu);
}

TEST(AlignmentOracle, DigestZeroIsAnOrdinaryWindowId) {
  // Packet 0 sits before the cut upstream and after it downstream: it
  // migrates like any other id.
  std::vector<AggregateReceipt> up = {make_agg(1, 4, 4, 0.0, 0.3),
                                      make_agg(5, 8, 4, 0.4, 0.7)};
  up[0].trans.before = {3, 0};
  up[0].trans.after = {5, 6};
  std::vector<AggregateReceipt> down = {make_agg(1, 3, 3, 0.0, 0.25),
                                        make_agg(5, 8, 5, 0.35, 0.7)};
  down[0].trans.before = {3};
  down[0].trans.after = {5, 0, 6};

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 1u);
  EXPECT_EQ(patched.down[0].packet_count, 4u);
  expect_same(patched, reference::patch_up(up, down));
  expect_same(align_aggregates(up, down),
              reference::align_aggregates(up, down));
}

TEST(AlignmentOracle, LargeWindowLeavesNoStaleIdsForASmallOne) {
  // Boundary 10's upstream window holds 5000 ids; boundary 20's holds
  // two.  Downstream reports ids of the first window around the second
  // cut: none of them belongs to boundary 20's window, so only packet 21
  // migrates there.
  std::vector<AggregateReceipt> up = {make_agg(1, 9, 50, 0.0, 0.9),
                                      make_agg(10, 19, 50, 1.0, 1.9),
                                      make_agg(20, 29, 50, 2.0, 2.9)};
  up[0].trans.after = {10};
  for (net::PacketDigest id = 1000; id < 6000; ++id) {
    up[0].trans.before.push_back(id);
  }
  up[1].trans.before = {19, 21};
  up[1].trans.after = {20, 22};
  std::vector<AggregateReceipt> down = up;
  down[1].trans.before = {19, 1000, 1001, 22};
  down[1].trans.after = {20, 2000, 2001, 21};

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 2u);  // 21 forward, 22 back
  expect_same(patched, reference::patch_up(up, down));
  expect_same(align_aggregates(up, down),
              reference::align_aggregates(up, down));
}

TEST(AlignmentOracle, SwappedBoundariesCoarsenLikeTheOracle) {
  // Cuts 20 and 30 swap order across the link: both coarsen, as does
  // the first well-ordered cut after them (40), and no migration applies
  // there even though the windows overlap.
  const std::vector<net::PacketDigest> up_cuts = {10, 20, 30, 40, 50};
  const std::vector<net::PacketDigest> down_cuts = {10, 30, 20, 40, 50};
  const auto build = [](const std::vector<net::PacketDigest>& cuts) {
    std::vector<AggregateReceipt> seq = {make_agg(1, 9, 10, 0.0, 0.9)};
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      seq.back().trans.before = {cuts[c] - 1, cuts[c] + 1};
      seq.back().trans.after = {cuts[c], cuts[c] + 2};
      seq.push_back(make_agg(cuts[c], cuts[c] + 9, 10, 1.0 + c, 1.9 + c));
    }
    return seq;
  };
  const std::vector<AggregateReceipt> up = build(up_cuts);
  std::vector<AggregateReceipt> down = build(down_cuts);
  for (std::size_t j = 0; j + 1 < down.size(); ++j) {  // reordered windows
    std::swap(down[j].trans.before.back(), down[j].trans.after.back());
  }

  const AlignmentResult r = align_aggregates(up, down);
  EXPECT_EQ(r.boundaries_matched, 2u);  // 10 and 50
  EXPECT_EQ(r.boundaries_merged_up, 3u);
  expect_same(r, reference::align_aggregates(up, down));
  expect_same(patch_up(up, down), reference::patch_up(up, down));
}

}  // namespace
}  // namespace vpm::core
