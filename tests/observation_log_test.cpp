// Edge cases of the per-path observation log (core/path_state).
//
// Every packet is written once to its path's log; the temp buffer, the J
// window and each pending aggregate's AggTrans.after are views of it.  A
// full slice slides its retained suffix max(buf_size, ring_size) to the
// front or relocates at double capacity, shifting pending cut indexes with
// the records; decay halves a slice by sliding, compaction moves every
// slice.  Each test drives a block of PathStateSoA paths and, per path,
// the pre-SoA reference monitors (reference/presoa_monitor.hpp) with the
// same decisions and times, and requires identical samples and aggregates
// at every drain.  The tests also assert that the situation they are
// about actually happened (two pending windows across a slide, decay with
// an open window and a live buffer, a forced marker after a slide), so a
// workload change cannot quietly turn one into a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/sharded_collector.hpp"
#include "core/config.hpp"
#include "core/path_state.hpp"
#include "reference/presoa_monitor.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

using net::Duration;
using net::PacketDecisions;
using net::Timestamp;
using net::microseconds;

constexpr std::uint32_t kThreshold = 0x80000000u;

/// Decisions with explicit marker/cut outcomes against kThreshold.
PacketDecisions decide(std::uint32_t id, bool marker, bool cut) {
  return PacketDecisions{.id = id,
                         .marker_value = marker ? 0xFFFFFFFFu : 0u,
                         .cut_value = cut ? 0xFFFFFFFFu : 0u};
}

PathParams params(Duration j, Duration max_age = Duration{0}) {
  return PathParams{.marker_threshold = kThreshold,
                    .sample_threshold = kThreshold,
                    .cut_threshold = kThreshold,
                    .j_window = j,
                    .marker_max_age = max_age};
}

const net::DigestEngine& engine() {
  static const net::DigestEngine e = ProtocolParams{}.make_engine();
  return e;
}

void expect_same(const AggregateData& got, const AggregateData& want,
                 const char* where) {
  EXPECT_EQ(got.agg, want.agg) << where;
  EXPECT_EQ(got.packet_count, want.packet_count) << where;
  EXPECT_EQ(got.trans, want.trans) << where;
  EXPECT_EQ(got.opened_at, want.opened_at) << where;
  EXPECT_EQ(got.closed_at, want.closed_at) << where;
}

void expect_same(const std::vector<AggregateData>& got,
                 const std::vector<AggregateData>& want, const char* where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same(got[i], want[i], where);
  }
}

/// Which Algorithm 1/2 steps a block runs per packet: the fused HOP
/// monitor, or the DelaySampler-only / Aggregator-only facades' kernels.
enum class Kernels { kFused, kSamplerOnly, kAggregatorOnly };

/// A PathStateSoA block beside one pair of reference monitors per path.
class Harness {
 public:
  Harness(const PathParams& p, std::size_t paths,
          Kernels kernels = Kernels::kFused)
      : soa(p, paths), kernels_(kernels) {
    for (std::size_t i = 0; i < paths; ++i) {
      ref_s_.emplace_back(engine(), p.marker_threshold, p.sample_threshold,
                          p.marker_max_age);
      ref_a_.emplace_back(engine(), p.cut_threshold, p.j_window);
    }
  }

  void observe(std::size_t path, const PacketDecisions& d, Timestamp when) {
    const PathSlot before = soa.slots[path];
    switch (kernels_) {
      case Kernels::kFused:
        (void)path_observe(soa, path, d, when);
        break;
      case Kernels::kSamplerOnly:
        (void)path_observe_sampler(soa, path, d, when);
        break;
      case Kernels::kAggregatorOnly:
        path_observe_aggregator(soa, path, d, when);
        break;
    }
    if (kernels_ != Kernels::kAggregatorOnly) {
      (void)ref_s_[path].observe(d, when);
    }
    if (kernels_ != Kernels::kSamplerOnly) ref_a_[path].observe(d, when);

    const PathSlot& after = soa.slots[path];
    ASSERT_LE(after.hot.buf_size, after.hot.log_size);
    ASSERT_LE(after.hot.ring_size, after.hot.log_size);
    ASSERT_LE(after.hot.log_size, after.warm.log_cap);
    ASSERT_EQ(soa.log_ids.size(), soa.log_times.size());
    // A relocation moves the slice; a slide keeps it but the log shrinks
    // although a record was appended.
    const bool moved = after.warm.log_begin != before.warm.log_begin ||
                       after.warm.log_cap != before.warm.log_cap;
    const bool slid = !moved && before.warm.log_cap != 0 &&
                      after.hot.log_size <= before.hot.log_size;
    if (moved && before.warm.log_cap != 0) {
      ++relocations;
      if (after.warm.pend_count >= 2) ++relocations_with_pending;
    }
    if (slid) {
      ++slides;
      if (after.warm.pend_count >= 2) ++slides_with_pending;
      if (after.hot.buf_size != 0) slid_with_buffer_ = true;
    }
    if (soa.stats[path].markers != markers_seen_) {
      markers_seen_ = soa.stats[path].markers;
      if (slid_with_buffer_) ++markers_after_buffered_slide;
      slid_with_buffer_ = false;
    }
  }

  /// Drain path `path` on both sides and require identical output.
  void expect_drain_matches(std::size_t path, bool flush_open) {
    EXPECT_EQ(path_take_samples(soa, path), ref_s_[path].take_samples());
    std::optional<AggregateData> last;
    std::optional<AggregateData> ref_last;
    if (flush_open) {
      last = path_flush_open(soa, path);
      ref_last = ref_a_[path].flush_open();
    }
    expect_same(path_take_closed(soa, path), ref_a_[path].take_closed(),
                "closed");
    ASSERT_EQ(last.has_value(), ref_last.has_value());
    if (last.has_value()) expect_same(*last, *ref_last, "flushed open");
  }

  PathStateSoA soa;
  std::size_t relocations = 0;
  std::size_t relocations_with_pending = 0;
  std::size_t slides = 0;
  std::size_t slides_with_pending = 0;
  std::size_t markers_after_buffered_slide = 0;

 private:
  Kernels kernels_;
  std::vector<reference::RefSampler> ref_s_;
  std::vector<reference::RefAggregator> ref_a_;
  std::uint64_t markers_seen_ = 0;
  bool slid_with_buffer_ = false;
};

/// Seeded packet stream with tunable marker/cut odds and time jitter.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}

  /// Next packet: `spacing_us` apart on a base clock, each time displaced
  /// by up to +-`jitter_us` (0 keeps times monotone).
  std::pair<PacketDecisions, Timestamp> next(double p_marker, double p_cut,
                                             std::int64_t spacing_us = 1,
                                             std::int64_t jitter_us = 0) {
    base_us_ += spacing_us;
    std::int64_t t = base_us_;
    if (jitter_us > 0) {
      const auto span = static_cast<std::uint64_t>(2 * jitter_us + 1);
      t += static_cast<std::int64_t>(rng_() % span) - jitter_us;
    }
    const auto id = static_cast<std::uint32_t>(rng_());
    const bool marker = coin(p_marker);
    const bool cut = coin(p_cut);
    return {decide(id, marker, cut), Timestamp{} + microseconds(t)};
  }

 private:
  bool coin(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
  }
  std::mt19937_64 rng_;
  std::int64_t base_us_ = 0;
};

// A hot path keeps several AggTrans windows open (J = 50 packets, a cut
// every ~6) while its log relocates (a marker-free stretch grows the temp
// buffer past half the slice) and slides (markers keep the buffer short,
// so the retained suffix is the J window).
TEST(ObservationLog, PendingWindowsSurviveSlidesAndRelocations) {
  Harness h(params(microseconds(50)), 1);
  Stream s(11);
  const auto run = [&](std::size_t n, double p_marker) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto [d, when] = s.next(p_marker, 1.0 / 6);
      h.observe(0, d, when);
      if (i % 700 == 699) h.expect_drain_matches(0, /*flush_open=*/false);
    }
  };
  run(3000, 1.0 / 16);
  run(3000, 0.0);  // no markers: the buffer outgrows every slice
  run(8000, 1.0 / 16);
  h.expect_drain_matches(0, /*flush_open=*/true);
  EXPECT_GT(h.relocations_with_pending, 0u);
  EXPECT_GT(h.slides_with_pending, 0u);
}

// Lifecycle passes on a three-path block while windows are open and
// buffers are live: decay halves burst-grown slices (sliding the suffix),
// compaction moves every slice, and the receipts never change.
TEST(ObservationLog, DecayAndCompactionWithOpenWindowsAndLiveBuffers) {
  constexpr std::size_t kPaths = 3;
  Harness h(params(microseconds(50)), kPaths);
  Stream s(23);
  std::mt19937_64 pick(5);
  std::size_t halved_live = 0;
  std::size_t compactions_live = 0;
  const auto run = [&](std::size_t n, double p_marker, bool lifecycle) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto [d, when] = s.next(p_marker, 1.0 / 6);
      h.observe(pick() % kPaths, d, when);
      if (!lifecycle || i % 150 != 149) continue;
      for (std::size_t p = 0; p < kPaths; ++p) {
        const PathSlot& slot = h.soa.slots[p];
        const bool live = slot.warm.pend_count != 0 && slot.hot.buf_size != 0;
        if (path_decay(h.soa, p, /*low_streak=*/1).halved_slices != 0 && live) {
          ++halved_live;
        }
      }
      bool all_live = true;
      for (std::size_t p = 0; p < kPaths; ++p) {
        all_live = all_live && h.soa.slots[p].warm.pend_count != 0 &&
                   h.soa.slots[p].hot.buf_size != 0;
      }
      if (path_state_compact(h.soa) != 0 && all_live) ++compactions_live;
      EXPECT_EQ(h.soa.arena_bytes(), h.soa.arena_live_bytes());
    }
  };
  run(6000, 0.0, false);       // burst: slices grow to thousands
  run(20000, 1.0 / 24, true);  // quiet: lifecycle passes shrink them
  for (std::size_t p = 0; p < kPaths; ++p) h.expect_drain_matches(p, true);
  EXPECT_GT(halved_live, 0u);
  EXPECT_GT(compactions_live, 0u);
}

// Jittered observation times: windows close out of cut order, the J
// window's head eviction stops at the first in-window record, and the
// finalize gate must track the SMALLEST pending boundary, not the first.
TEST(ObservationLog, NonMonotoneTimesMatchPreSoaReference) {
  for (const std::int64_t jitter_us : {5, 40}) {
    Harness h(params(microseconds(30)), 2);
    Stream s(97 + static_cast<std::uint64_t>(jitter_us));
    std::mt19937_64 pick(3);
    for (std::size_t i = 0; i < 20000; ++i) {
      const auto [d, when] = s.next(1.0 / 16, 1.0 / 5, 1, jitter_us);
      h.observe(pick() % 2, d, when);
      if (i % 3000 == 2999) {
        h.expect_drain_matches(0, false);
        h.expect_drain_matches(1, false);
      }
    }
    h.expect_drain_matches(0, true);
    h.expect_drain_matches(1, true);
    EXPECT_GT(h.slides + h.relocations, 0u);
  }
}

// Blocks that run only one algorithm keep only that algorithm's view:
// a DelaySampler block never opens a J window, an Aggregator block never
// buffers, and with J == 0 an Aggregator block never writes the log.
TEST(ObservationLog, SingleAlgorithmBlocksAndZeroJ) {
  {
    Harness h(params(microseconds(50)), 1, Kernels::kSamplerOnly);
    Stream s(41);
    for (std::size_t i = 0; i < 6000; ++i) {
      const auto [d, when] = s.next(i < 2000 ? 0.0 : 1.0 / 16, 0.2, 1, 3);
      h.observe(0, d, when);
      ASSERT_EQ(h.soa.slots[0].hot.ring_size, 0u);
    }
    h.expect_drain_matches(0, true);
    EXPECT_GT(h.slides, 0u);
  }
  {
    Harness h(params(microseconds(50)), 1, Kernels::kAggregatorOnly);
    Stream s(43);
    for (std::size_t i = 0; i < 6000; ++i) {
      const auto [d, when] = s.next(1.0 / 16, 1.0 / 6, 1, 3);
      h.observe(0, d, when);
      ASSERT_EQ(h.soa.slots[0].hot.buf_size, 0u);
      if (i % 1000 == 999) h.expect_drain_matches(0, false);
    }
    h.expect_drain_matches(0, true);
    EXPECT_GT(h.slides_with_pending, 0u);
  }
  {
    Harness h(params(Duration{0}), 1, Kernels::kAggregatorOnly);
    Stream s(47);
    for (std::size_t i = 0; i < 3000; ++i) {
      const auto [d, when] = s.next(1.0 / 16, 1.0 / 6);
      h.observe(0, d, when);
    }
    h.expect_drain_matches(0, true);
    EXPECT_EQ(h.soa.arena_bytes(), 0u) << "no view covers any record";
  }
  {
    Harness h(params(Duration{0}), 1, Kernels::kFused);
    Stream s(53);
    for (std::size_t i = 0; i < 6000; ++i) {
      const auto [d, when] = s.next(i < 1000 ? 0.0 : 1.0 / 16, 1.0 / 6);
      h.observe(0, d, when);
      ASSERT_EQ(h.soa.slots[0].hot.ring_size, 0u);
      ASSERT_EQ(h.soa.log_records(), h.soa.slots[0].hot.buf_size);
    }
    h.expect_drain_matches(0, true);
    EXPECT_GT(h.slides, 0u);
  }
}

// flush_open while AggTrans windows are still filling closes them with
// the log run observed so far; monitoring then carries on from a fresh
// aggregate.
TEST(ObservationLog, FlushOpenMidWindow) {
  Harness h(params(microseconds(100)), 1);
  Stream s(61);
  std::size_t flushed_pending = 0;
  for (std::size_t i = 0; i < 12000; ++i) {
    const auto [d, when] = s.next(1.0 / 16, 1.0 / 4);
    h.observe(0, d, when);
    if (i % 997 == 996) {
      if (h.soa.slots[0].warm.pend_count >= 2) ++flushed_pending;
      h.expect_drain_matches(0, /*flush_open=*/true);
      ASSERT_EQ(h.soa.slots[0].warm.pend_count, 0u);
    }
  }
  h.expect_drain_matches(0, true);
  EXPECT_GT(flushed_pending, 0u);
}

// The time-keyed marker rule reads the oldest buffered record's time —
// after a slide, at its shifted log index.  With J longer than the max
// age the J window is the larger view, so the slide keeps more than the
// buffer.
TEST(ObservationLog, ForcedMarkerAfterSlide) {
  Harness h(params(microseconds(60), microseconds(40)), 1);
  Stream s(71);
  for (std::size_t i = 0; i < 20000; ++i) {
    const auto [d, when] = s.next(0.0, 1.0 / 8);  // only forced markers
    h.observe(0, d, when);
    if (i % 2500 == 2499) h.expect_drain_matches(0, false);
  }
  h.expect_drain_matches(0, true);
  EXPECT_GT(h.soa.stats[0].markers, 0u);
  EXPECT_GT(h.markers_after_buffered_slide, 0u);
}

// finalize_due runs only at packets that close a window: a packet exactly
// J after the earliest boundary is still inside it.
TEST(ObservationLog, FinalizeRunsOnlyWhenAWindowIsDue) {
  Harness h(params(microseconds(10)), 1);
  // One packet per microsecond, t = 1..40; cuts at t = 5 and t = 7.
  for (std::int64_t t = 1; t <= 40; ++t) {
    h.observe(0, decide(static_cast<std::uint32_t>(t * 7919), false,
                        t == 5 || t == 7),
              Timestamp{} + microseconds(t));
    // t = 15 and t = 17 sit exactly J after a boundary: nothing closes.
    const std::uint64_t want = t < 16 ? 0 : (t < 18 ? 1 : 2);
    ASSERT_EQ(h.soa.finalize_passes, want) << "t=" << t;
  }
  h.expect_drain_matches(0, true);
}

// The buffered volume — retained log records, 12 B each — reads the same
// from a single cache and from a sharded collector over the same traffic.
TEST(ObservationLog, BufferedVolumeReportedBySingleAndShardedCollectors) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 64;
  mcfg.total_packets_per_second = 200'000.0;
  mcfg.duration = net::milliseconds(100);
  mcfg.seed = 9;
  const trace::MultiPathTrace multi = trace::generate_multi_path(mcfg);
  collector::MonitoringCache::Config cfg;
  cfg.protocol.marker_rate = 1.0 / 256.0;
  cfg.protocol.reorder_window_j = net::milliseconds(1);
  cfg.tuning = HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  collector::MonitoringCache single(cfg, multi.paths);
  collector::ShardedCollector::Config scfg;
  scfg.cache = cfg;
  scfg.shard_count = 4;
  collector::ShardedCollector sharded(scfg, multi.paths);
  single.observe_batch(multi.packets);
  sharded.observe_batch(multi.packets);

  std::size_t retained = 0;
  for (const PathSlot& slot : single.state().slots) {
    retained += std::max(slot.hot.buf_size, slot.hot.ring_size);
  }
  EXPECT_GT(retained, 0u);
  EXPECT_EQ(single.log_records(), retained);
  EXPECT_EQ(sharded.log_records(), retained);
  EXPECT_EQ(collector::MonitoringCache::log_bytes_per_record(), 12u);
  EXPECT_EQ(collector::ShardedCollector::log_bytes_per_record(), 12u);
  EXPECT_GE(single.arena_live_bytes(), retained * 12);
}

}  // namespace
}  // namespace vpm::core
