// The scenario harness's group-and-order step against its oracle.
//
// sim::scenario::order_observations groups the foreground by path in one
// counting pass and orders each HOP's (when, fg) keys, sorting only when
// something reordered packets.  reference::bucket_observations is the
// algorithm it replaced: a per-path scan of the whole trace, whole-packet
// buckets per (HOP, round), each sorted by (when, sequence).  Every
// (HOP, round) feed must match packet for packet and time for time, on
// seeded inputs that reorder (jitter), queue and drop (congestion), cut
// traffic out by schedule (route flap, link failure, churn), and observe
// packets past the last round boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "loss/bernoulli.hpp"
#include "reference/scenario_feed_oracle.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "sim/scenario_common.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

using sim::scenario::HopFeeds;
using sim::scenario::ObsKey;

constexpr std::size_t kDomains = 4;  // S -> X -> N -> D
constexpr std::size_t kHops = 2 * (kDomains - 1);

struct FeedCase {
  std::size_t paths = 24;
  std::size_t rounds = 5;
  net::Duration round_length = net::milliseconds(10);
  double pps = 400'000.0;
  std::uint64_t seed = 1;
  net::Duration jitter;      ///< inside N
  bool congestion = false;   ///< queueing delay and drops inside X
  double loss_rate = 0.0;    ///< Bernoulli, inside X
  bool link_down = false;    ///< X -> N dead for origin rounds [1, 3)
  bool route_flap = false;   ///< the last 4 paths silent in rounds [2, 4)
  bool churn = false;        ///< paths >= 8 send one round in three
};

struct Inputs {
  std::vector<net::Packet> fg;
  std::vector<std::uint32_t> fg_path;
  sim::CongestionResult congestion;
};

Inputs make_inputs(const FeedCase& c) {
  const trace::MultiPathTrace multi = trace::generate_multi_path(
      sim::scenario::multi_path_config(c.paths, 1.0, c.pps, c.round_length,
                                       c.rounds, c.seed));
  const std::int64_t round_ns = c.round_length.nanoseconds();
  Inputs in;
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    net::Packet p = multi.packets[i];
    p.origin_time = sim::scenario::quantize_us(p.origin_time);
    const std::size_t r =
        sim::scenario::round_of(p.origin_time, round_ns, c.rounds);
    const std::uint32_t path = multi.path_of[i];
    if (c.route_flap && path + 4 >= c.paths && r >= 2 && r < 4) continue;
    if (c.churn && path >= 8 && (r + path) % 3 != 0) continue;
    in.fg.push_back(p);
    in.fg_path.push_back(path);
  }
  if (c.congestion) {
    sim::CongestionConfig ccfg;
    ccfg.bottleneck_bps = 60e6;
    ccfg.buffer_bytes = 60'000;
    ccfg.seed = c.seed;
    in.congestion = sim::simulate_congestion(ccfg, in.fg);
  }
  return in;
}

/// The engine's shape of per-path propagation, rebuilt afresh on every
/// call so the oracle and the product see identical results.
sim::PathRunResult run_one(const FeedCase& c, const Inputs& in,
                           std::size_t p, std::span<const net::Packet> trace,
                           std::span<const std::uint32_t> to_fg) {
  sim::PathEnvironment env;
  env.seed = sim::scenario::mix(c.seed ^ (0x9E3779B97F4A7C15ull + p));
  env.domains.resize(kDomains);
  env.links.resize(kDomains - 1);
  for (std::size_t d = 1; d + 1 < kDomains; ++d) {
    env.domains[d].delay_of = [](sim::PacketIndex) {
      return net::microseconds(500);
    };
  }
  env.domains[2].jitter = c.jitter;
  std::unique_ptr<loss::BernoulliLoss> loss;
  if (c.loss_rate > 0.0) {
    loss = std::make_unique<loss::BernoulliLoss>(
        c.loss_rate, sim::scenario::mix(c.seed ^ (0xB10Bull + p)));
    env.domains[1].loss = loss.get();
  }
  if (c.congestion) {
    env.domains[1].delay_of = [&in, to_fg](sim::PacketIndex i) {
      return in.congestion.outcomes[to_fg[i]].delay;
    };
    env.domains[1].drop_by_index = [&in, to_fg](sim::PacketIndex i) {
      return in.congestion.outcomes[to_fg[i]].dropped;
    };
  }
  if (c.link_down) {
    const net::Timestamp t0{c.round_length.nanoseconds()};
    const net::Timestamp t1{3 * c.round_length.nanoseconds()};
    env.links[1].targeted_drop = [t0, t1](const net::Packet& pkt) {
      return pkt.origin_time >= t0 && pkt.origin_time < t1;
    };
  }
  return sim::run_path(trace, env);
}

struct Ordered {
  HopFeeds feeds;
  std::vector<std::vector<std::vector<reference::MergedObs>>> oracle;
};

Ordered order_both(const FeedCase& c, const Inputs& in) {
  const auto run = [&](std::size_t p, std::span<const net::Packet> trace,
                       std::span<const std::uint32_t> to_fg) {
    return run_one(c, in, p, trace, to_fg);
  };
  const std::int64_t round_ns = c.round_length.nanoseconds();
  Ordered o;
  o.feeds = sim::scenario::order_observations(in.fg, in.fg_path, c.paths,
                                              kHops, round_ns, c.rounds, run);
  o.oracle = reference::bucket_observations(in.fg, in.fg_path, c.paths,
                                            kHops, round_ns, c.rounds, run);
  return o;
}

testing::AssertionResult same_feed(const Ordered& o, const Inputs& in,
                                   std::size_t rounds) {
  for (std::size_t pos = 0; pos < kHops; ++pos) {
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::span<const ObsKey> got = o.feeds.round(pos, r);
      const std::vector<reference::MergedObs>& want = o.oracle[pos][r];
      if (got.size() != want.size()) {
        return testing::AssertionFailure()
               << "hop " << pos << " round " << r << ": " << got.size()
               << " observations, oracle " << want.size();
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (in.fg[got[i].fg].sequence != want[i].packet.sequence ||
            got[i].when_ns != want[i].when.nanoseconds()) {
          return testing::AssertionFailure()
                 << "hop " << pos << " round " << r << " position " << i
                 << ": sequence " << in.fg[got[i].fg].sequence << " at "
                 << got[i].when_ns << " ns, oracle "
                 << want[i].packet.sequence << " at "
                 << want[i].when.nanoseconds() << " ns";
        }
      }
    }
  }
  return testing::AssertionSuccess();
}

// What makes a case bite: same-µs ties (the fg tie-break decides their
// order), stragglers past the last boundary (the fold decides where they
// go), and for reordering inputs keys that arrive out of fg order.
struct Shape {
  std::size_t ties = 0;
  std::size_t stragglers = 0;
  std::size_t inversions = 0;
};

Shape shape_of(const HopFeeds& feeds, const FeedCase& c) {
  const std::int64_t end =
      static_cast<std::int64_t>(c.rounds) * c.round_length.nanoseconds();
  Shape s;
  for (const std::vector<ObsKey>& keys : feeds.keys) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].when_ns >= end) ++s.stragglers;
      if (i == 0) continue;
      if (keys[i].when_ns == keys[i - 1].when_ns) ++s.ties;
      if (keys[i].fg < keys[i - 1].fg) ++s.inversions;
    }
  }
  return s;
}

void check_case(FeedCase c) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    c.seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Inputs in = make_inputs(c);
    const Ordered o = order_both(c, in);
    EXPECT_TRUE(same_feed(o, in, c.rounds));
    const Shape s = shape_of(o.feeds, c);
    EXPECT_GT(s.ties, 0u);
    EXPECT_GT(s.stragglers, 0u);
    if (c.jitter > net::Duration{0}) {
      EXPECT_GT(s.inversions, 0u);
    }
  }
}

TEST(ScenarioFeedOrder, ConstantDelaysMatchOracle) {
  // Constant delays: keys in fg order are already time order.
  check_case(FeedCase{});
}

TEST(ScenarioFeedOrder, JitteredMatchesOracle) {
  FeedCase c;
  c.jitter = net::milliseconds(3);
  c.loss_rate = 0.03;
  check_case(c);
}

TEST(ScenarioFeedOrder, CongestedMatchesOracle) {
  FeedCase c;
  c.congestion = true;
  check_case(c);
  const Inputs in = make_inputs(c);
  EXPECT_GT(in.congestion.foreground_drops, 0u) << "the bottleneck must drop";
}

TEST(ScenarioFeedOrder, RouteFlapLinkDownAndChurnMatchOracle) {
  FeedCase c;
  c.route_flap = true;
  c.link_down = true;
  c.churn = true;
  c.jitter = net::microseconds(200);
  check_case(c);
}

TEST(ScenarioFeedOrder, StragglersFoldIntoTheLastRound) {
  // Rounds short against the chain's ~1.65 ms traversal: every
  // downstream HOP sees a long tail past the last boundary.
  FeedCase c;
  c.round_length = net::milliseconds(2);
  c.rounds = 3;
  check_case(c);
  const Inputs in = make_inputs(c);
  const Ordered o = order_both(c, in);
  const std::int64_t end = 3 * c.round_length.nanoseconds();
  const std::span<const ObsKey> last = o.feeds.round(kHops - 1, 2);
  ASSERT_FALSE(last.empty());
  EXPECT_GE(last.back().when_ns, end);
}

TEST(ScenarioFeedOrder, RejectsNegativeObservationTimes) {
  FeedCase c;
  const Inputs in = make_inputs(c);
  const auto run = [&](std::size_t p, std::span<const net::Packet> trace,
                       std::span<const std::uint32_t> to_fg) {
    sim::PathRunResult r = run_one(c, in, p, trace, to_fg);
    for (sim::Obs& o : r.hop_observations[0]) {
      o.when = o.when - net::milliseconds(1);
    }
    return r;
  };
  EXPECT_THROW((void)sim::scenario::order_observations(
                   in.fg, in.fg_path, c.paths, kHops,
                   c.round_length.nanoseconds(), c.rounds, run),
               std::invalid_argument);
}

}  // namespace
}  // namespace vpm
