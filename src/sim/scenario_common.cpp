#include "sim/scenario_common.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace vpm::sim::scenario {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::vector<net::PathId> path_table(
    const collector::MonitoringCache::Config& cfg,
    const std::vector<net::PrefixPair>& paths) {
  std::vector<net::PathId> out;
  out.reserve(paths.size());
  for (const net::PrefixPair& pair : paths) {
    out.push_back(net::PathId{
        .header_spec_id = cfg.protocol.header_spec.id(),
        .prefixes = pair,
        .previous_hop = cfg.previous_hop,
        .next_hop = cfg.next_hop,
        .max_diff = cfg.max_diff,
    });
  }
  return out;
}

std::vector<core::RoundGap> dedupe_gaps(std::vector<core::RoundGap> raw) {
  std::map<std::uint64_t, core::RoundGap> by_first;
  for (core::RoundGap& g : raw) {
    auto [it, inserted] = by_first.try_emplace(g.first_sequence, g);
    if (inserted) continue;
    core::RoundGap& kept = it->second;
    kept.last_sequence = std::max(kept.last_sequence, g.last_sequence);
    kept.affected_paths.insert(kept.affected_paths.end(),
                               g.affected_paths.begin(),
                               g.affected_paths.end());
    std::sort(kept.affected_paths.begin(), kept.affected_paths.end());
    kept.affected_paths.erase(std::unique(kept.affected_paths.begin(),
                                          kept.affected_paths.end()),
                              kept.affected_paths.end());
  }
  std::vector<core::RoundGap> out;
  out.reserve(by_first.size());
  for (auto& [first, g] : by_first) out.push_back(std::move(g));
  return out;
}

void add_stats(dissem::FetchClient::Stats& acc,
               const dissem::FetchClient::Stats& s) {
  acc.polls += s.polls;
  acc.backoff_skips += s.backoff_skips;
  acc.envelopes_fed += s.envelopes_fed;
  acc.refetch_skips += s.refetch_skips;
  acc.deliveries += s.deliveries;
  acc.groups_delivered += s.groups_delivered;
  acc.gaps_reported += s.gaps_reported;
  acc.transient_retries += s.transient_retries;
  acc.fatal_errors += s.fatal_errors;
  acc.acks += s.acks;
  acc.ack_rejections += s.ack_rejections;
  acc.gap_wait_polls += s.gap_wait_polls;
}

net::Duration spread_hop_delay(std::uint64_t seed, std::size_t path,
                               std::size_t hop, net::Duration hop_delay,
                               std::size_t delay_spread_us) {
  const auto spread = static_cast<std::int64_t>(
      mix(seed ^ (path * 2654435761u)) % (delay_spread_us + 1));
  return (hop_delay + net::microseconds(spread)) *
         static_cast<std::int64_t>(hop);
}

trace::MultiPathConfig multi_path_config(std::size_t path_count, double zipf_s,
                                         double total_packets_per_second,
                                         net::Duration duration,
                                         std::uint64_t seed) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = path_count;
  mcfg.zipf_s = zipf_s;
  mcfg.total_packets_per_second = total_packets_per_second;
  mcfg.duration = duration;
  mcfg.seed = seed;
  return mcfg;
}

trace::MultiPathConfig multi_path_config(std::size_t path_count, double zipf_s,
                                         double total_packets_per_second,
                                         net::Duration round_length,
                                         std::size_t rounds,
                                         std::uint64_t seed) {
  return multi_path_config(path_count, zipf_s, total_packets_per_second,
                           round_length * static_cast<std::int64_t>(rounds),
                           seed);
}

net::Timestamp quantize_us(net::Timestamp t) {
  return net::Timestamp{t.nanoseconds() / 1000 * 1000};
}

std::size_t round_of(net::Timestamp origin, std::int64_t round_ns,
                     std::size_t rounds) {
  auto r = static_cast<std::size_t>(origin.nanoseconds() / round_ns);
  if (r >= rounds) r = rounds - 1;
  return r;
}

HopFeeds order_observations(std::span<const net::Packet> fg,
                            std::span<const std::uint32_t> fg_path,
                            std::size_t paths, std::size_t hops,
                            std::int64_t round_ns, std::size_t rounds,
                            PathRunner run) {
  // Counting pass: path p's packets are by_path[begin[p] .. begin[p+1]),
  // foreground indices ascending.
  std::vector<std::size_t> begin(paths + 1, 0);
  for (const std::uint32_t p : fg_path) {
    if (p >= paths) {
      throw std::invalid_argument("order_observations: path out of range");
    }
    ++begin[p + 1];
  }
  for (std::size_t p = 0; p < paths; ++p) begin[p + 1] += begin[p];
  std::vector<std::uint32_t> by_path(fg.size());
  {
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < fg.size(); ++i) {
      by_path[fill[fg_path[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Each HOP scatters its keys into a slot per foreground packet, so the
  // compacted keys come out in foreground order: already time order
  // unless something reordered packets.
  constexpr std::int64_t kUnobserved = -1;
  HopFeeds feeds;
  feeds.keys.assign(hops, std::vector<ObsKey>(fg.size(), {kUnobserved, 0}));
  std::vector<net::Packet> path_trace;
  for (std::size_t p = 0; p < paths; ++p) {
    const std::span<const std::uint32_t> to_fg(by_path.data() + begin[p],
                                               begin[p + 1] - begin[p]);
    path_trace.clear();
    for (const std::uint32_t i : to_fg) path_trace.push_back(fg[i]);
    const PathRunResult result = run(p, path_trace, to_fg);
    if (result.hop_observations.size() != hops) {
      throw std::invalid_argument("order_observations: wrong HOP count");
    }
    for (std::size_t pos = 0; pos < hops; ++pos) {
      for (const Obs& o : result.hop_observations[pos]) {
        const std::int64_t when = quantize_us(o.when).nanoseconds();
        if (when < 0) {
          throw std::invalid_argument(
              "order_observations: negative observation time");
        }
        const std::size_t i = to_fg[o.pkt];
        feeds.keys[pos][i] = ObsKey{when, i};
      }
    }
  }

  feeds.round_begin.resize(hops);
  for (std::size_t pos = 0; pos < hops; ++pos) {
    std::vector<ObsKey>& keys = feeds.keys[pos];
    std::erase_if(keys,
                  [](const ObsKey& k) { return k.when_ns == kUnobserved; });
    if (!std::is_sorted(keys.begin(), keys.end())) {
      std::sort(keys.begin(), keys.end());
    }
    // Round r starts at its first key at or past r * round_ns; the last
    // round runs to the end, stragglers included.
    std::vector<std::size_t>& b = feeds.round_begin[pos];
    b.assign(rounds + 1, keys.size());
    b[0] = 0;
    for (std::size_t r = 1; r < rounds; ++r) {
      const ObsKey edge{static_cast<std::int64_t>(r) * round_ns, 0};
      b[r] = static_cast<std::size_t>(
          std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(b[r - 1]),
                           keys.end(), edge) -
          keys.begin());
    }
  }
  return feeds;
}

}  // namespace vpm::sim::scenario
