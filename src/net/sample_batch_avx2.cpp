// AVX2 sweep-select kernel: eight buffered records per iteration, one
// two-word lookup3 (sample_value) lane each.
//
// The buffered digests are one contiguous uint32 run (the temp-buffer
// view of the path's observation log), so each group is one unaligned
// load; the marker id and the init constant broadcast once per sweep.  A
// two-word hashword message needs no mix() round — just final_mix8 — then
// an unsigned threshold compare and a compress-store of the surviving
// indices.
//
// This file is compiled with -mavx2 (see CMakeLists); everything is inside
// an __AVX2__ guard with null stubs otherwise.  Nothing here may be called
// unless simd::active_tier() == kAvx2.
#include "net/sample_batch.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "net/compress_store_avx2.hpp"
#include "net/digest_batch.hpp"
#include "net/lookup3_avx2.hpp"

namespace vpm::net::detail {
namespace {

std::size_t sweep_select_avx2_impl(const std::uint32_t* ids_in,
                                   std::size_t n, std::uint32_t marker_id,
                                   std::uint32_t threshold,
                                   std::uint32_t* out_idx) noexcept {
  const std::uint32_t base = 0xdeadbeefu + (2u << 2) + kSampleSeed;
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i vb = _mm256_set1_epi32(static_cast<int>(base + marker_id));
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  // cmpgt is signed; biasing both sides by 2^31 makes it the unsigned
  // c > threshold the scalar walk performs.
  const __m256i vthr =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(threshold)), sign);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i ids = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids_in + i));
    __m256i a = _mm256_add_epi32(vbase, ids);
    __m256i b = vb;
    __m256i c = vbase;
    final_mix8(a, b, c);
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_xor_si256(c, sign),
                                               vthr))));
    // Safe 8-lane store: m <= i here, so out_idx[m .. m+7] stays within
    // the n-entry array while a full group remains.
    const __m256i cur =
        _mm256_add_epi32(lane, _mm256_set1_epi32(static_cast<int>(i)));
    m += compress_store_u32(out_idx + m, cur, mask);
  }
  // Remainder lanes (n % 8): one masked group.  Gather indices clamp to
  // the last record — duplicate in-bounds reads are harmless — and the
  // lane mask drops both the spare lanes' verdicts and the slack store
  // (bounded sweeps are mostly sub-group-sized, so keeping the remainder
  // on the vector path matters more than it looks).
  if (i < n) {
    const unsigned lanemask = (1u << (n - i)) - 1u;
    const __m256i rows = _mm256_min_epi32(
        _mm256_add_epi32(lane, _mm256_set1_epi32(static_cast<int>(i))),
        _mm256_set1_epi32(static_cast<int>(n - 1)));
    const __m256i ids = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(ids_in), rows, 4);
    __m256i a = _mm256_add_epi32(vbase, ids);
    __m256i b = vb;
    __m256i c = vbase;
    final_mix8(a, b, c);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
            _mm256_cmpgt_epi32(_mm256_xor_si256(c, sign), vthr)))) &
        lanemask;
    m += compress_maskstore_u32(out_idx + m, rows, mask);
  }
  return m;
}

}  // namespace

SweepSelectFn sweep_select_avx2() noexcept { return &sweep_select_avx2_impl; }

}  // namespace vpm::net::detail

#else  // !defined(__AVX2__)

namespace vpm::net::detail {

SweepSelectFn sweep_select_avx2() noexcept { return nullptr; }

}  // namespace vpm::net::detail

#endif  // defined(__AVX2__)
