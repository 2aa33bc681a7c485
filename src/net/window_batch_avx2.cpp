// AVX2 J-window kernels: eight records per iteration.
//
// Timestamps are 64-bit, so each group takes two four-lane qword loads
// (contiguous times, window_collect) or gathers (strided records,
// time_ge_mask) and two vpcmpgtq compares; `time >= cutoff` is computed as
// NOT (cutoff > time) — exact at every int64 value, no bias or cutoff-1
// edge case.  The two four-bit movemask nibbles concatenate into the same
// eight-bit group mask the 32-bit kernels use, feeding the shared
// compress-store table (window_collect) or a word accumulator
// (time_ge_mask).
//
// Compiled with -mavx2 (see CMakeLists); null stubs without __AVX2__.
// time_ge_mask requires stride % 8 == 0 and time_off % 8 == 0 (qword
// gather indices must land exactly); callers falling outside that
// contract must take the scalar kernel instead.
#include "net/window_batch.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "net/compress_store_avx2.hpp"

namespace vpm::net::detail {
namespace {

inline __m256i lane8() noexcept {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/// Keep-mask (bit l = lane l) of eight times in two four-lane halves
/// (lo = lanes 0..3): keep = NOT (cutoff > t)  <=>  t >= cutoff.
inline unsigned keep8_times(__m256i t_lo, __m256i t_hi,
                            __m256i vcut) noexcept {
  const unsigned lo = static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(vcut, t_lo))));
  const unsigned hi = static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(vcut, t_hi))));
  return (~(lo | (hi << 4))) & 0xFFu;
}

/// Keep-mask (bit l = lane l) for the records named by `rows` (eight
/// record indices as dword lanes; duplicates are allowed, which is what
/// lets the final partial group clamp to the last record).
inline unsigned keep8_rows(const std::byte* records, std::size_t stride,
                           std::size_t time_off, __m256i rows,
                           __m256i vcut) noexcept {
  const __m256i q = _mm256_add_epi32(
      _mm256_mullo_epi32(rows, _mm256_set1_epi32(static_cast<int>(stride / 8))),
      _mm256_set1_epi32(static_cast<int>(time_off / 8)));
  const auto* qbase = reinterpret_cast<const long long*>(records);
  const __m256i t_lo =
      _mm256_i32gather_epi64(qbase, _mm256_castsi256_si128(q), 8);
  const __m256i t_hi =
      _mm256_i32gather_epi64(qbase, _mm256_extracti128_si256(q, 1), 8);
  return keep8_times(t_lo, t_hi, vcut);
}

/// Rows i..i+7, clamped to the last record so a partial group's spare
/// lanes re-read in-bounds data (their mask bits are dropped by callers).
inline __m256i rows_clamped(std::size_t i, std::size_t n) noexcept {
  return _mm256_min_epi32(
      _mm256_add_epi32(lane8(), _mm256_set1_epi32(static_cast<int>(i))),
      _mm256_set1_epi32(static_cast<int>(n - 1)));
}

std::size_t window_collect_avx2_impl(const std::uint32_t* ids,
                                     const std::int64_t* times, std::size_t n,
                                     std::int64_t cutoff_ns,
                                     std::uint32_t* out_ids) noexcept {
  const __m256i vcut = _mm256_set1_epi64x(cutoff_ns);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned mask = keep8_times(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(times + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(times + i + 4)),
        vcut);
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    // Safe 8-lane store: m <= i, so the slack stays inside out_ids[0..n).
    m += compress_store_u32(out_ids + m, v, mask);
  }
  if (i < n) {
    const __m256i rows = rows_clamped(i, n);
    const auto* tbase = reinterpret_cast<const long long*>(times);
    const unsigned mask =
        keep8_times(
            _mm256_i32gather_epi64(tbase, _mm256_castsi256_si128(rows), 8),
            _mm256_i32gather_epi64(tbase, _mm256_extracti128_si256(rows, 1),
                                   8),
            vcut) &
        ((1u << (n - i)) - 1u);
    const __m256i v =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(ids), rows, 4);
    m += compress_maskstore_u32(out_ids + m, v, mask);
  }
  return m;
}

void time_ge_mask_avx2_impl(const std::byte* records, std::size_t stride,
                            std::size_t time_off, std::size_t n,
                            std::int64_t cutoff_ns,
                            std::uint64_t* mask_words) noexcept {
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) mask_words[w] = 0;
  const __m256i vcut = _mm256_set1_epi64x(cutoff_ns);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i rows =
        _mm256_add_epi32(lane8(), _mm256_set1_epi32(static_cast<int>(i)));
    const std::uint64_t mask =
        keep8_rows(records, stride, time_off, rows, vcut);
    // i is a multiple of 8, so the group's bits never straddle a word.
    mask_words[i >> 6] |= mask << (i & 63);
  }
  if (i < n) {
    const std::uint64_t mask =
        keep8_rows(records, stride, time_off, rows_clamped(i, n), vcut) &
        ((1u << (n - i)) - 1u);
    mask_words[i >> 6] |= mask << (i & 63);
  }
}

}  // namespace

WindowCollectFn window_collect_avx2() noexcept {
  return &window_collect_avx2_impl;
}

TimeGeMaskFn time_ge_mask_avx2() noexcept { return &time_ge_mask_avx2_impl; }

}  // namespace vpm::net::detail

#else  // !defined(__AVX2__)

namespace vpm::net::detail {

WindowCollectFn window_collect_avx2() noexcept { return nullptr; }

TimeGeMaskFn time_ge_mask_avx2() noexcept { return nullptr; }

}  // namespace vpm::net::detail

#endif  // defined(__AVX2__)
