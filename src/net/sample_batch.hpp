// Batch marker-sweep kernel behind the SIMD dispatch shim.
//
// Algorithm 1's marker sweep evaluates SampleFcn(q, marker) = lookup3 over
// the two digests for EVERY buffered record — the dominant per-packet cost
// of the data plane once classify + digest are vectorized (every packet is
// buffered once and swept once, so the sweep amortizes to one sample_value
// per packet).  The two-word hashword message means no mix() round at all:
// load the record ids, run one eight-lane final_mix against the broadcast
// marker id, compare against the sample threshold and compress-store the
// survivor indices.  The kernel selects; the caller (core/path_state.cpp)
// bulk-writes the survivors' SampleRecords from the returned index list.
//
// Byte-identity is the contract: survivors and their order must equal the
// scalar DigestEngine::sample_value(...) > threshold walk exactly, in both
// digest modes and for every remainder (pinned by
// tests/simd_dispatch_test.cpp).
#ifndef VPM_NET_SAMPLE_BATCH_HPP
#define VPM_NET_SAMPLE_BATCH_HPP

#include <cstddef>
#include <cstdint>

namespace vpm::net::detail {

/// Sweep-select kernel: scan the `n` contiguous packet digests at `ids`
/// (the temp-buffer view of a path's observation log).  Writes the
/// ascending indices i with sample_value(ids[i], marker_id) > threshold
/// into `out_idx` and returns how many.  Contract:
///   * `out_idx` must have room for `n` entries; entries at and beyond the
///     returned count are unspecified scratch, but `out_idx[n]` and beyond
///     are never written (survivors-so-far <= group base bounds the AVX2
///     compress store's 8-lane slack inside the array);
///   * `n` must stay below 2^31 (the AVX2 tail gather indexes with signed
///     32-bit lanes).
using SweepSelectFn = std::size_t (*)(const std::uint32_t* ids, std::size_t n,
                                      std::uint32_t marker_id,
                                      std::uint32_t threshold,
                                      std::uint32_t* out_idx);

/// Portable scalar kernel (always available; the dispatch fallback).
/// Branchless: the index write is unconditional and the cursor advances by
/// the comparison result, so sweep cost does not depend on survivor
/// density.
std::size_t sweep_select_scalar(const std::uint32_t* ids, std::size_t n,
                                std::uint32_t marker_id,
                                std::uint32_t threshold,
                                std::uint32_t* out_idx) noexcept;

/// The AVX2 kernel, or nullptr when the AVX2 translation unit was built
/// without -mavx2.  Callers must additionally check simd::active_tier().
[[nodiscard]] SweepSelectFn sweep_select_avx2() noexcept;

}  // namespace vpm::net::detail

#endif  // VPM_NET_SAMPLE_BATCH_HPP
