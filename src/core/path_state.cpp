#include "core/path_state.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "net/sample_batch.hpp"
#include "net/simd_dispatch.hpp"
#include "net/window_batch.hpp"

namespace vpm::core {
namespace {

/// First log slice allocated to a path (records, power of two).
/// Deliberately small: a 100k-path cache must not pre-pay per-path arena
/// space for paths that may never see traffic; busy paths double their
/// slice on demand (amortised O(1) per record).
constexpr std::uint32_t kLogInitialCap = 16;
/// Emitted-sample capacity floor for path_decay (records) — small enough
/// that a quiet path pins almost nothing, large enough that a typical
/// reporting round (a handful of samples + markers) never reallocates.
constexpr std::size_t kEmittedDecayFloor = 16;

/// True when the AVX2 kernels should run: the dispatch shim's active tier
/// (force hook -> VPM_SIMD -> cpuid) resolved to kAvx2 AND this binary
/// actually carries the kernels.  Checked once per sweep/cut, not per
/// record.
inline bool avx2_kernels_active() noexcept {
  return net::simd::active_tier() == net::simd::Tier::kAvx2;
}

/// Records the kernels still read: the temp buffer and the J window are
/// both log suffixes, and every pending cut lies inside the J window (a
/// cut packet leaves the window only at a packet more than J after it,
/// which closes that cut's AggTrans window first).
inline std::uint32_t log_retained(const PathHot& hot) noexcept {
  return std::max(hot.buf_size, hot.ring_size);
}

/// Slice offsets and capacities are stored as 32-bit record indices
/// (PathWarm).  An arena past 2^32 records would silently wrap an offset
/// into another path's live slice, so growth fails loud instead.
/// Doubling is computed in 64 bits so a 2^31-capacity slice cannot wrap
/// new_cap to 0 and slip past the check.
void check_arena_offset(std::size_t begin, std::uint64_t new_cap) {
  if (begin + new_cap > 0xFFFFFFFFull) {
    throw std::length_error(
        "PathStateSoA: observation-log arena exceeds 32-bit slice "
        "addressing");
  }
}

/// Move path `path`'s retained log suffix to `dst_ids`/`dst_times` (its
/// own slice front, a new slice, or a compacted arena) and shift its
/// pending cut indexes with the records.  Records before the suffix are
/// dead: no view and no pending window reads them.  The caller points
/// warm.log_begin at the destination.
void retain_suffix(PathStateSoA& s, std::size_t path,
                   net::PacketDigest* dst_ids, std::int64_t* dst_times) {
  PathSlot& slot = s.slots[path];
  const std::uint32_t keep = log_retained(slot.hot);
  const std::uint32_t drop = slot.hot.log_size - keep;
  const std::size_t src = slot.warm.log_begin + drop;
  if (keep != 0 && dst_ids != s.log_ids.data() + src) {
    std::memmove(dst_ids, s.log_ids.data() + src,
                 keep * sizeof(net::PacketDigest));
    std::memmove(dst_times, s.log_times.data() + src,
                 keep * sizeof(std::int64_t));
  }
  if (slot.warm.pend_count != 0) {
    for (PendingAggregate& pend : s.pending[path]) pend.cut -= drop;
  }
  slot.hot.log_size = keep;
}

/// Slide the retained suffix to the front of the path's own slice.
void slide_to_front(PathStateSoA& s, std::size_t path) {
  const std::size_t b = s.slots[path].warm.log_begin;
  retain_suffix(s, path, s.log_ids.data() + b, s.log_times.data() + b);
}

/// Make room for one record in a full (or absent) slice: slide the
/// retained suffix to the front when it fills at most half the slice,
/// otherwise relocate to the arena tail at double capacity.  The old slice
/// of a relocation becomes garbage; doubling bounds total garbage below
/// total live capacity, and a slide leaves at least half the slice free,
/// so both cost amortised O(1) per record.
void make_room(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::uint32_t keep = log_retained(slot.hot);
  if (slot.warm.log_cap != 0 &&
      std::uint64_t{keep} * 2 <= slot.warm.log_cap) {
    slide_to_front(s, path);
    return;
  }
  const std::uint64_t new_cap =
      slot.warm.log_cap == 0
          ? kLogInitialCap
          : static_cast<std::uint64_t>(slot.warm.log_cap) * 2;
  const std::size_t begin = s.log_ids.size();
  check_arena_offset(begin, new_cap);
  s.log_ids.resize(begin + new_cap);
  s.log_times.resize(begin + new_cap);
  retain_suffix(s, path, s.log_ids.data() + begin,
                s.log_times.data() + begin);
  slot.warm.log_begin = static_cast<std::uint32_t>(begin);
  slot.warm.log_cap = static_cast<std::uint32_t>(new_cap);
}

/// Write the packet's one log record and extend the views that cover it:
/// the temp buffer when the sampler buffered it, the J window when the
/// aggregator keeps one (then evicting window entries older than J).  A
/// record no view covers (a marker with J == 0, any packet of an
/// aggregator block with J == 0) is not written at all.
inline void log_append(PathStateSoA& s, std::size_t path,
                       net::PacketDigest id, std::int64_t when_ns,
                       bool buffered, bool windowed) {
  if (!buffered && !windowed) return;
  PathSlot& slot = s.slots[path];
  if (slot.hot.log_size == slot.warm.log_cap) make_room(s, path);
  const std::size_t at = slot.warm.log_begin + slot.hot.log_size;
  s.log_ids[at] = id;
  s.log_times[at] = when_ns;
  ++slot.hot.log_size;
  if (buffered) ++slot.hot.buf_size;
  if (windowed) {
    ++slot.hot.ring_size;
    // Evict entries older than J from the window's head — a sliding
    // window over observations (the new record itself never qualifies).
    const std::int64_t* end = s.log_times.data() + at + 1;
    const std::int64_t j_ns = s.params.j_window.nanoseconds();
    while (slot.hot.ring_size != 0 &&
           end[-static_cast<std::ptrdiff_t>(slot.hot.ring_size)] + j_ns <
               when_ns) {
      --slot.hot.ring_size;
    }
    if (slot.hot.ring_size > slot.warm.window_peak) {
      slot.warm.window_peak = slot.hot.ring_size;
    }
  }
}

/// Close a pending aggregate's AggTrans window: `after` is the log run
/// from its cut packet to the current end (every packet observed since
/// the cut, the cut packet included).
AggregateData close_window(PathStateSoA& s, std::size_t path,
                           PendingAggregate&& pend) {
  const PathSlot& slot = s.slots[path];
  const net::PacketDigest* ids = s.log_ids.data() + slot.warm.log_begin;
  pend.data.trans.after.assign(ids + pend.cut, ids + slot.hot.log_size);
  return std::move(pend.data);
}

/// Move pending aggregates whose AggTrans window is complete (now is J
/// past their boundary, i.e. boundary < cutoff = now - J) to the closed
/// list, preserving relative order in both groups (the pre-refactor
/// stable_partition semantics), and refresh the warm-line gate with the
/// survivors' earliest boundary.
///
/// The keep decision (`boundary >= cutoff`) runs through the branchless
/// time-mask kernel in blocks; the partition then walks the mask bits.
/// Moves only ever go from i down to keep <= i, so masking a block before
/// moving within it is safe — sources ahead of the cursor are untouched.
void finalize_due(PathStateSoA& s, std::size_t path, std::int64_t cutoff) {
  ++s.finalize_passes;
  auto& pending = s.pending[path];
  auto& closed = s.closed[path];
  const std::size_t n = pending.size();
  static_assert(sizeof(PendingAggregate) % 8 == 0);
  const std::size_t stride = sizeof(PendingAggregate);
  // offsetof on a type with vector members is conditionally supported, so
  // derive the boundary offset from a live object instead.
  const std::byte* base = reinterpret_cast<const std::byte*>(pending.data());
  const std::size_t boundary_off =
      n == 0 ? 0
             : static_cast<std::size_t>(
                   reinterpret_cast<const std::byte*>(&pending[0].boundary) -
                   base);

  static const net::detail::TimeGeMaskFn avx2 =
      net::detail::time_ge_mask_avx2();
  const bool use_avx2 =
      avx2 != nullptr && avx2_kernels_active() && boundary_off % 8 == 0;

  constexpr std::size_t kBlock = 512;  // 8 mask words on the stack
  std::uint64_t mask[kBlock / 64];
  std::size_t keep = 0;
  std::int64_t earliest = INT64_MAX;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b);
    if (use_avx2) {
      avx2(base + b * stride, stride, boundary_off, bn, cutoff, mask);
    } else {
      net::detail::time_ge_mask_scalar(base + b * stride, stride,
                                       boundary_off, bn, cutoff, mask);
    }
    for (std::size_t j = 0; j < bn; ++j) {
      const std::size_t i = b + j;
      if ((mask[j >> 6] >> (j & 63)) & 1u) {
        earliest = std::min(earliest, pending[i].boundary.nanoseconds());
        if (keep != i) pending[keep] = std::move(pending[i]);
        ++keep;
      } else {
        closed.push_back(close_window(s, path, std::move(pending[i])));
      }
    }
  }
  pending.resize(keep);
  PathWarm& warm = s.slots[path].warm;
  warm.pend_count = static_cast<std::uint32_t>(keep);
  warm.earliest_boundary_ns = earliest;
}

/// Algorithm 1 (DelaySample) per-packet decision: returns true when the
/// packet is a marker, after sweeping the temp buffer (the log's last
/// buf_size records, which do not include this packet yet) into emitted
/// samples.  `swept` receives the number of records evaluated.
bool sampler_step(PathStateSoA& s, std::size_t path,
                  const net::PacketDecisions& d, net::Timestamp when,
                  std::size_t& swept) {
  PathSlot& slot = s.slots[path];
  const std::size_t buf_at =
      slot.warm.log_begin + slot.hot.log_size - slot.hot.buf_size;

  // Time-keyed marker rule: when enabled, a packet arriving while the
  // OLDEST buffered record (the buffer's first log record — sweeps empty
  // the buffer, so records sit in arrival order) has aged past
  // marker_max_age acts as a forced marker.  This bounds the per-path
  // temp buffer by time (~rate x max_age records) instead of Algorithm
  // 1's ~1/marker_rate expectation, which a slow path can exceed without
  // bound.
  const std::int64_t max_age_ns = s.params.marker_max_age.nanoseconds();
  const bool forced_marker =
      max_age_ns > 0 && slot.hot.buf_size != 0 &&
      when.nanoseconds() - s.log_times[buf_at] >= max_age_ns;

  swept = 0;
  if (!forced_marker && d.marker_value <= s.params.marker_threshold) {
    return false;
  }
  // Algorithm 1, lines 1-6: the marker decides the fate of everything
  // buffered since the previous marker.  The sample_value evaluations run
  // through the sweep-select kernel (8-wide on the AVX2 tier) over the
  // contiguous digest run in chunks; survivors append as one bulk write
  // per chunk instead of per-record push_backs.
  PathStats& st = s.stats[path];
  ++st.markers;
  swept = slot.hot.buf_size;
  st.swept += swept;
  st.buffer_peak = std::max<std::uint64_t>(st.buffer_peak, swept);
  auto& emitted = s.emitted[path];
  if (swept != 0) {
    static const net::detail::SweepSelectFn avx2 =
        net::detail::sweep_select_avx2();
    const bool use_avx2 = avx2 != nullptr && avx2_kernels_active();
    (use_avx2 ? s.sweep_kernels.avx2 : s.sweep_kernels.scalar) += 1;
    const net::PacketDigest* ids = s.log_ids.data() + buf_at;
    const std::int64_t* times = s.log_times.data() + buf_at;
    constexpr std::size_t kSweepChunk = 512;
    std::uint32_t idx[kSweepChunk];
    for (std::size_t chunk = 0; chunk < swept; chunk += kSweepChunk) {
      const std::size_t cn = std::min(kSweepChunk, swept - chunk);
      const std::size_t m =
          use_avx2 ? avx2(ids + chunk, cn, d.id, s.params.sample_threshold,
                          idx)
                   : net::detail::sweep_select_scalar(
                         ids + chunk, cn, d.id, s.params.sample_threshold,
                         idx);
      const std::size_t old = emitted.size();
      emitted.resize(old + m);
      SampleRecord* dst = emitted.data() + old;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t r = chunk + idx[j];
        dst[j] = SampleRecord{.pkt_id = ids[r],
                              .time = net::Timestamp{times[r]},
                              .is_marker = false};
      }
    }
    slot.hot.buf_size = 0;
  }
  emitted.push_back(
      SampleRecord{.pkt_id = d.id, .time = when, .is_marker = true});
  st.emitted_peak = std::max<std::uint64_t>(st.emitted_peak, emitted.size());
  return true;
}

/// Algorithm 2 (Partition + AggTrans) per-packet step, up to the log
/// write: close due AggTrans windows, handle a cut, extend the open
/// aggregate.  Returns true when the path keeps a J window (the caller
/// then adds the packet's record to it).
bool aggregator_step(PathStateSoA& s, std::size_t path,
                     const net::PacketDecisions& d, net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  const std::int64_t when_ns = when.nanoseconds();
  const std::int64_t j_ns = s.params.j_window.nanoseconds();
  const bool has_j = j_ns > 0;
  const bool is_cut =
      slot.hot.agg_count != 0 && d.cut_value > s.params.cut_threshold;

  // The finalize gate: a window closes at the first packet more than J
  // past its boundary, so nothing is due before the earliest one is.
  const std::int64_t cutoff = when_ns - j_ns;
  if (slot.warm.earliest_boundary_ns < cutoff) finalize_due(s, path, cutoff);

  if (is_cut) {
    // Algorithm 2, lines 2-5: close the current receipt; p starts the next
    // aggregate.  The closed receipt's AggTrans.before is everything
    // observed within J before the cut; its AggTrans.after starts with p,
    // whose record lands at the log's current end.
    ++s.stats[path].cuts;
    if (has_j) {
      PendingAggregate pend;
      pend.boundary = when;
      pend.cut = slot.hot.log_size;
      pend.data.agg =
          AggId{.first = slot.hot.agg_first, .last = slot.hot.agg_last};
      pend.data.packet_count = slot.hot.agg_count;
      pend.data.opened_at = net::Timestamp{slot.warm.opened_at_ns};
      pend.data.closed_at = net::Timestamp{slot.hot.last_at_ns};
      // The J window is the log's last ring_size records: one contiguous
      // digest run and time run for the window-collect kernel (8-wide
      // time compares + compress-store on the AVX2 tier).  The keep
      // predicate is the scalar `r.time + J >= when` rearranged to
      // `r.time >= when - J` so both tiers compare identically.
      const std::size_t at =
          slot.warm.log_begin + slot.hot.log_size - slot.hot.ring_size;
      static const net::detail::WindowCollectFn avx2 =
          net::detail::window_collect_avx2();
      const net::detail::WindowCollectFn collect =
          (avx2 != nullptr && avx2_kernels_active())
              ? avx2
              : &net::detail::window_collect_scalar;
      auto& before = pend.data.trans.before;
      before.resize(slot.hot.ring_size);
      before.resize(collect(s.log_ids.data() + at, s.log_times.data() + at,
                            slot.hot.ring_size, cutoff, before.data()));
      s.pending[path].push_back(std::move(pend));
      ++slot.warm.pend_count;
      slot.warm.earliest_boundary_ns =
          std::min(slot.warm.earliest_boundary_ns, when_ns);
    } else {
      // Basic §6.2 mode: no reorder window, close immediately.
      s.closed[path].push_back(AggregateData{
          .agg = AggId{.first = slot.hot.agg_first,
                       .last = slot.hot.agg_last},
          .packet_count = slot.hot.agg_count,
          .trans = {},
          .opened_at = net::Timestamp{slot.warm.opened_at_ns},
          .closed_at = net::Timestamp{slot.hot.last_at_ns}});
    }
    slot.hot.agg_count = 0;
  }

  if (slot.hot.agg_count == 0) {
    slot.hot.agg_first = d.id;
    slot.hot.agg_last = d.id;
    slot.hot.agg_count = 1;
    slot.warm.opened_at_ns = when_ns;
    slot.hot.last_at_ns = when_ns;
  } else {
    // Algorithm 2, lines 5-6 run for every packet: LastPacketID <- p.
    // The count saturates rather than wrap: agg_count == 0 encodes "no
    // open aggregate", so a 2^32-packet aggregate (cuts effectively
    // disabled on a hot path) must not wrap into the sentinel and reset
    // the open aggregate's identity.  (The pre-SoA optional<Open> let
    // the reported count wrap instead; saturation keeps AggId/opened_at
    // correct and reports "at least 2^32-1".)
    slot.hot.agg_last = d.id;
    if (slot.hot.agg_count != 0xFFFFFFFFu) ++slot.hot.agg_count;
    slot.hot.last_at_ns = when_ns;
  }
  return has_j;
}

}  // namespace

std::size_t path_observe_sampler(PathStateSoA& s, std::size_t path,
                                 const net::PacketDecisions& d,
                                 net::Timestamp when) {
  std::size_t swept;
  const bool marker = sampler_step(s, path, d, when, swept);
  // Algorithm 1, line 8: remember a non-marker until the next marker.
  log_append(s, path, d.id, when.nanoseconds(), !marker, false);
  return swept;
}

void path_observe_aggregator(PathStateSoA& s, std::size_t path,
                             const net::PacketDecisions& d,
                             net::Timestamp when) {
  const bool windowed = aggregator_step(s, path, d, when);
  log_append(s, path, d.id, when.nanoseconds(), false, windowed);
}

std::size_t path_observe(PathStateSoA& s, std::size_t path,
                         const net::PacketDecisions& d, net::Timestamp when) {
  std::size_t swept;
  const bool marker = sampler_step(s, path, d, when, swept);
  const bool windowed = aggregator_step(s, path, d, when);
  log_append(s, path, d.id, when.nanoseconds(), !marker, windowed);
  return swept;
}

std::vector<SampleRecord> path_take_samples(PathStateSoA& s,
                                            std::size_t path) {
  // Copy-and-clear rather than swap: a busy path re-fills this vector
  // every reporting round, and the old swap-release forced it to re-grow
  // from zero through the allocator each time (malloc + doubling copies
  // inside the data-plane sweep).  The retained capacity is bounded by
  // the path's actual backlog peak (stats.emitted_peak), decays when the
  // path quiets down (path_decay) and is fully released at eviction.
  auto& e = s.emitted[path];
  std::vector<SampleRecord> out(e.begin(), e.end());
  e.clear();
  return out;
}

std::vector<AggregateData> path_take_closed(PathStateSoA& s,
                                            std::size_t path) {
  std::vector<AggregateData> out;
  out.swap(s.closed[path]);
  return out;
}

std::optional<AggregateData> path_flush_open(PathStateSoA& s,
                                             std::size_t path) {
  auto& pending = s.pending[path];
  auto& closed = s.closed[path];
  for (PendingAggregate& pend : pending) {
    closed.push_back(close_window(s, path, std::move(pend)));
  }
  pending.clear();
  PathSlot& slot = s.slots[path];
  slot.warm.pend_count = 0;
  slot.warm.earliest_boundary_ns = INT64_MAX;

  if (slot.hot.agg_count == 0) return std::nullopt;
  AggregateData d;
  d.agg = AggId{.first = slot.hot.agg_first, .last = slot.hot.agg_last};
  d.packet_count = slot.hot.agg_count;
  d.opened_at = net::Timestamp{slot.warm.opened_at_ns};
  d.closed_at = net::Timestamp{slot.hot.last_at_ns};
  slot.hot.agg_count = 0;
  return d;
}

std::size_t path_evict(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::size_t dropped = slot.hot.buf_size;
  s.stats[path].dropped_buffered += dropped;
  slot.hot = PathHot{};
  // Preserve the lifetime window_peak (a §7.1 reporting figure); reset the
  // log addressing so the path owns no slice.
  const std::uint32_t peak = slot.warm.window_peak;
  slot.warm = PathWarm{};
  slot.warm.window_peak = peak;
  // The cold vectors are drained by the caller; swap-release their
  // capacity so an evicted path holds no heap at all.
  std::vector<SampleRecord>{}.swap(s.emitted[path]);
  std::vector<PendingAggregate>{}.swap(s.pending[path]);
  std::vector<AggregateData>{}.swap(s.closed[path]);
  return dropped;
}

std::size_t path_state_compact(PathStateSoA& s) {
  const std::size_t before = s.arena_bytes();

  std::size_t records = 0;
  for (const PathSlot& slot : s.slots) records += slot.warm.log_cap;
  std::vector<net::PacketDigest> ids(records);
  std::vector<std::int64_t> times(records);

  std::size_t at = 0;
  for (std::size_t p = 0; p < s.slots.size(); ++p) {
    PathWarm& warm = s.slots[p].warm;
    if (warm.log_cap == 0) continue;
    // The retained suffix moves to the new slice front — the same
    // transformation a full slice's slide applies, so this is
    // receipt-invisible.
    retain_suffix(s, p, ids.data() + at, times.data() + at);
    warm.log_begin = static_cast<std::uint32_t>(at);
    at += warm.log_cap;
  }
  s.log_ids = std::move(ids);
  s.log_times = std::move(times);
  return before - s.arena_bytes();
}

PathDecay path_decay(PathStateSoA& s, std::size_t path,
                     std::uint32_t low_streak) {
  PathDecay out;
  if (low_streak == 0) return out;
  PathSlot& slot = s.slots[path];
  PathStats& st = s.stats[path];

  // Log slice: a retained suffix below a quarter of the capacity fits the
  // front half with room to spare.  Slide it there (pending cut indexes
  // shift with it) and stop addressing the tail half.
  if (slot.warm.log_cap > kLogInitialCap &&
      std::uint64_t{log_retained(slot.hot)} * 4 < slot.warm.log_cap) {
    if (++st.log_low_streak >= low_streak) {
      slide_to_front(s, path);
      const std::uint32_t released = slot.warm.log_cap / 2;
      slot.warm.log_cap -= released;
      st.log_low_streak = 0;
      ++out.halved_slices;
      out.released_bytes += released * kLogRecordBytes;
    }
  } else {
    st.log_low_streak = 0;
  }

  // Emitted-sample capacity (retained across drains by path_take_samples):
  // same quarter-occupancy/streak rule.  This is ordinary heap, not arena
  // space, so the halving reallocates immediately instead of leaving
  // garbage for compaction — reported in the separate emitted fields.
  auto& emitted = s.emitted[path];
  if (emitted.capacity() > kEmittedDecayFloor &&
      emitted.size() * 4 < emitted.capacity()) {
    if (++st.emitted_low_streak >= low_streak) {
      const std::size_t old_cap = emitted.capacity();
      std::vector<SampleRecord> shrunk;
      shrunk.reserve(std::max(old_cap / 2, kEmittedDecayFloor));
      shrunk.insert(shrunk.end(), emitted.begin(), emitted.end());
      emitted.swap(shrunk);
      st.emitted_low_streak = 0;
      ++out.halved_emitted;
      if (old_cap > emitted.capacity()) {
        out.released_emitted_bytes +=
            (old_cap - emitted.capacity()) * sizeof(SampleRecord);
      }
    }
  } else {
    st.emitted_low_streak = 0;
  }
  return out;
}

SampleReceipt path_collect_samples(PathStateSoA& s, std::size_t path,
                                   const net::PathId& id) {
  SampleReceipt r;
  r.path = id;
  r.sample_threshold = s.params.sample_threshold;
  r.marker_threshold = s.params.marker_threshold;
  r.samples = path_take_samples(s, path);
  return r;
}

std::vector<AggregateReceipt> path_collect_aggregates(PathStateSoA& s,
                                                      std::size_t path,
                                                      const net::PathId& id,
                                                      bool flush_open) {
  // Drained aggregates are consumed: their AggTrans windows (often
  // thousands of ids) move into the receipts instead of being copied.
  auto stamp_one = [&id](AggregateData&& d) {
    return AggregateReceipt{.path = id,
                            .agg = d.agg,
                            .packet_count = d.packet_count,
                            .trans = std::move(d.trans),
                            .opened_at = d.opened_at,
                            .closed_at = d.closed_at};
  };
  std::optional<AggregateData> last;
  if (flush_open) last = path_flush_open(s, path);
  std::vector<AggregateData> closed = path_take_closed(s, path);
  std::vector<AggregateReceipt> out;
  out.reserve(closed.size() + (last.has_value() ? 1 : 0));
  for (AggregateData& d : closed) out.push_back(stamp_one(std::move(d)));
  if (last.has_value()) out.push_back(stamp_one(std::move(*last)));
  return out;
}

}  // namespace vpm::core
