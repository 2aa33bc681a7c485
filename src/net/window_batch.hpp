// Batch J-window time-compare kernels behind the SIMD dispatch shim.
//
// Algorithm 2's reorder-tolerance machinery repeatedly asks one question
// of a run of timestamped records: "is this record still within the J
// window?" — the cut-time `trans.before` filter over the J window and the
// pending-aggregate finalization partition both reduce to a 64-bit
// `time >= cutoff` compare.  These kernels do that compare eight records
// per iteration: one compress-stores the ids of in-window records (the J
// window is a contiguous view of the path's observation log: a digest run
// and a parallel time run), the other materializes the raw keep-mask of
// strided records so the caller can drive any order-preserving partition
// off it (finalize_due's stable partition over pending aggregates).  Both
// take cutoff = now - J, which is exactly the scalar `t + J >= now`
// predicate rearranged (timestamps are nanosecond int64s nowhere near the
// edges, and both tiers share the rearranged form, so tier identity is
// exact).
//
// Byte-identity with the scalar walks is pinned by
// tests/simd_dispatch_test.cpp.
#ifndef VPM_NET_WINDOW_BATCH_HPP
#define VPM_NET_WINDOW_BATCH_HPP

#include <cstddef>
#include <cstdint>

namespace vpm::net::detail {

/// Window-collect kernel: for i in [0, n), write ids[i] to `out_ids` when
/// times[i] >= cutoff_ns (int64 nanoseconds), in index order, returning
/// how many.  Contract mirrors SweepSelectFn: `out_ids` must hold `n`
/// entries, entries past the returned count are unspecified scratch,
/// `out_ids[n]` is never written, and `n` stays below 2^31.
using WindowCollectFn = std::size_t (*)(const std::uint32_t* ids,
                                        const std::int64_t* times,
                                        std::size_t n, std::int64_t cutoff_ns,
                                        std::uint32_t* out_ids);

std::size_t window_collect_scalar(const std::uint32_t* ids,
                                  const std::int64_t* times, std::size_t n,
                                  std::int64_t cutoff_ns,
                                  std::uint32_t* out_ids) noexcept;

[[nodiscard]] WindowCollectFn window_collect_avx2() noexcept;

/// Time-mask kernel: set bit i of `mask_words` (little-endian bit order:
/// word i/64, bit i%64) when the record-i timestamp (int64 at byte offset
/// `time_off` of the i-th `stride`-byte record) satisfies
/// time >= cutoff_ns.  The kernel zero-fills all (n+63)/64 words first;
/// bits at and beyond `n` in the last word are zero; later words are
/// never touched.  The AVX2 kernel requires stride % 8 == 0 and
/// time_off % 8 == 0 (qword gather) and n * stride < 2^31.
using TimeGeMaskFn = void (*)(const std::byte* records, std::size_t stride,
                              std::size_t time_off, std::size_t n,
                              std::int64_t cutoff_ns,
                              std::uint64_t* mask_words);

void time_ge_mask_scalar(const std::byte* records, std::size_t stride,
                         std::size_t time_off, std::size_t n,
                         std::int64_t cutoff_ns,
                         std::uint64_t* mask_words) noexcept;

[[nodiscard]] TimeGeMaskFn time_ge_mask_avx2() noexcept;

}  // namespace vpm::net::detail

#endif  // VPM_NET_WINDOW_BATCH_HPP
