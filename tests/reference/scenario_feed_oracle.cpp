// The scan-and-sort feed oracle; see scenario_feed_oracle.hpp.
#include "reference/scenario_feed_oracle.hpp"

#include <algorithm>

namespace vpm::reference {

std::vector<std::vector<std::vector<MergedObs>>> bucket_observations(
    std::span<const net::Packet> fg, std::span<const std::uint32_t> fg_path,
    std::size_t paths, std::size_t hops, std::int64_t round_ns,
    std::size_t rounds, sim::scenario::PathRunner run) {
  std::vector<std::vector<std::vector<MergedObs>>> obs_by_round(
      hops, std::vector<std::vector<MergedObs>>(rounds));
  for (std::size_t p = 0; p < paths; ++p) {
    std::vector<net::Packet> path_trace;
    std::vector<std::uint32_t> to_fg;
    for (std::size_t i = 0; i < fg.size(); ++i) {
      if (fg_path[i] != p) continue;
      path_trace.push_back(fg[i]);
      to_fg.push_back(static_cast<std::uint32_t>(i));
    }
    const sim::PathRunResult result = run(p, path_trace, to_fg);
    for (std::size_t pos = 0; pos < hops; ++pos) {
      for (const sim::Obs& o : result.hop_observations[pos]) {
        const net::Timestamp when = sim::scenario::quantize_us(o.when);
        const std::size_t r = std::min<std::size_t>(
            rounds - 1,
            static_cast<std::size_t>(when.nanoseconds() / round_ns));
        obs_by_round[pos][r].push_back(
            MergedObs{.packet = path_trace[o.pkt], .when = when});
      }
    }
  }
  for (auto& per_hop : obs_by_round) {
    for (std::vector<MergedObs>& bucket : per_hop) {
      std::sort(bucket.begin(), bucket.end(),
                [](const MergedObs& a, const MergedObs& b) {
                  if (a.when != b.when) return a.when < b.when;
                  return a.packet.sequence < b.packet.sequence;
                });
    }
  }
  return obs_by_round;
}

}  // namespace vpm::reference
