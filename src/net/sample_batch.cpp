// Portable scalar sweep-select kernel (the dispatch fallback).
#include "net/sample_batch.hpp"

#include "net/bob_hash.hpp"
#include "net/digest_batch.hpp"

namespace vpm::net::detail {

std::size_t sweep_select_scalar(const std::uint32_t* ids, std::size_t n,
                                std::uint32_t marker_id,
                                std::uint32_t threshold,
                                std::uint32_t* out_idx) noexcept {
  // Inlined bob_hash_pair(id, marker_id, kSampleSeed): a two-word hashword
  // message skips mix() entirely — init the three-word state, add the two
  // words, one final_mix.  Same value as DigestEngine::sample_value (the
  // static_assert-equivalent is pinned by tests/simd_dispatch_test.cpp).
  const std::uint32_t base = 0xdeadbeefu + (2u << 2) + kSampleSeed;
  const std::uint32_t bm = base + marker_id;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t a = base + ids[i];
    std::uint32_t b = bm;
    std::uint32_t c = base;
    lookup3::final_mix(a, b, c);
    out_idx[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(c > threshold);
  }
  return m;
}

}  // namespace vpm::net::detail
