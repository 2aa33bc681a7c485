// Portable scalar J-window kernels (the dispatch fallbacks).  Both are
// branchless in the same style as sweep_select_scalar: unconditional
// writes with a cursor/bit advance derived from the compare, so the cost
// is flat in the keep density.
#include "net/window_batch.hpp"

#include <cstring>

namespace vpm::net::detail {

namespace {

inline std::int64_t time_at(const std::byte* records, std::size_t stride,
                            std::size_t time_off, std::size_t i) noexcept {
  std::int64_t t;
  std::memcpy(&t, records + i * stride + time_off, sizeof(t));
  return t;
}

}  // namespace

std::size_t window_collect_scalar(const std::uint32_t* ids,
                                  const std::int64_t* times, std::size_t n,
                                  std::int64_t cutoff_ns,
                                  std::uint32_t* out_ids) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out_ids[m] = ids[i];
    m += static_cast<std::size_t>(times[i] >= cutoff_ns);
  }
  return m;
}

void time_ge_mask_scalar(const std::byte* records, std::size_t stride,
                         std::size_t time_off, std::size_t n,
                         std::int64_t cutoff_ns,
                         std::uint64_t* mask_words) noexcept {
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) mask_words[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t keep = static_cast<std::uint64_t>(
        time_at(records, stride, time_off, i) >= cutoff_ns);
    mask_words[i >> 6] |= keep << (i & 63);
  }
}

}  // namespace vpm::net::detail
