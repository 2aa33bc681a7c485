#include "sim/path_run.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_map>

namespace vpm::sim {
namespace {

constexpr net::Duration kDefaultDomainDelay = net::microseconds(500);

void validate(const PathEnvironment& env) {
  if (env.domains.size() < 2) {
    throw std::invalid_argument("path needs at least two domains");
  }
  if (env.links.size() != env.domains.size() - 1) {
    throw std::invalid_argument("need exactly domains-1 links, have " +
                                std::to_string(env.links.size()));
  }
  if (!env.clock_offsets.empty() &&
      env.clock_offsets.size() != env.hop_count()) {
    throw std::invalid_argument("clock_offsets must be empty or one per HOP");
  }
}

}  // namespace

PathRunResult run_path(std::span<const net::Packet> trace,
                       const PathEnvironment& env) {
  validate(env);
  const std::size_t n_domains = env.domains.size();
  const std::size_t n_hops = env.hop_count();

  std::mt19937_64 rng(env.seed);
  auto jitter_of = [&rng](net::Duration max) -> net::Duration {
    if (max <= net::Duration{0}) return net::Duration{0};
    std::uniform_int_distribution<std::int64_t> dist(0, max.nanoseconds());
    return net::Duration{dist(rng)};
  };
  auto offset_of = [&env](std::size_t hop) -> net::Duration {
    return env.clock_offsets.empty() ? net::Duration{0}
                                     : env.clock_offsets[hop];
  };

  PathRunResult result;
  result.hop_observations.resize(n_hops);
  result.hops_reached.assign(trace.size(), 0);
  for (ObsSeq& seq : result.hop_observations) seq.reserve(trace.size());

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto pkt = static_cast<PacketIndex>(i);
    net::Timestamp t = trace[i].origin_time;  // at first domain's egress
    std::uint8_t hops_seen = 0;

    // First domain's egress HOP observes the packet as it leaves.
    result.hop_observations[0].push_back(Obs{pkt, t + offset_of(0)});
    ++hops_seen;

    bool alive = true;
    for (std::size_t d = 1; d < n_domains && alive; ++d) {
      // Cross the inter-domain link from domain d-1 to domain d.
      const LinkSegment& link = env.links[d - 1];
      if (link.loss != nullptr && link.loss->should_drop()) {
        alive = false;
        break;
      }
      if (link.targeted_drop && link.targeted_drop(trace[i])) {
        alive = false;
        break;
      }
      t += link.delay + jitter_of(link.jitter);

      // Domain d's ingress HOP.
      const std::size_t in_hop = PathEnvironment::ingress_hop(d);
      result.hop_observations[in_hop].push_back(Obs{pkt, t + offset_of(in_hop)});
      ++hops_seen;

      if (d == n_domains - 1) break;  // destination domain: done

      // Traverse domain d.
      const DomainSegment& dom = env.domains[d];
      if (dom.loss != nullptr && dom.loss->should_drop()) {
        alive = false;
        break;
      }
      if (dom.targeted_drop && dom.targeted_drop(trace[i])) {
        alive = false;
        break;
      }
      if (dom.drop_by_index && dom.drop_by_index(pkt)) {
        alive = false;
        break;
      }
      const net::Duration base =
          dom.delay_of ? dom.delay_of(pkt) : kDefaultDomainDelay;
      t += base + jitter_of(dom.jitter);

      const std::size_t out_hop = PathEnvironment::egress_hop(d);
      result.hop_observations[out_hop].push_back(
          Obs{pkt, t + offset_of(out_hop)});
      ++hops_seen;
    }

    result.hops_reached[i] = hops_seen;
    if (alive && hops_seen == n_hops) ++result.delivered;
  }

  // A HOP observes packets in local arrival order: jitter may have
  // reordered nearby packets relative to trace order.  Without it the
  // sequences are already in order, and the check keeps this linear.
  const auto by_time = [](const Obs& a, const Obs& b) {
    return a.when < b.when;
  };
  for (ObsSeq& seq : result.hop_observations) {
    if (!std::is_sorted(seq.begin(), seq.end(), by_time)) {
      std::stable_sort(seq.begin(), seq.end(), by_time);
    }
  }
  return result;
}

std::vector<std::pair<PacketIndex, double>> true_domain_delays_ms(
    const PathRunResult& result, const PathEnvironment& env, std::size_t d) {
  if (d == 0 || d + 1 >= env.domains.size()) {
    throw std::invalid_argument("domain has no ingress/egress HOP pair");
  }
  const std::size_t in_hop = PathEnvironment::ingress_hop(d);
  const std::size_t out_hop = PathEnvironment::egress_hop(d);
  const net::Duration in_off =
      env.clock_offsets.empty() ? net::Duration{0} : env.clock_offsets[in_hop];
  const net::Duration out_off = env.clock_offsets.empty()
                                    ? net::Duration{0}
                                    : env.clock_offsets[out_hop];

  std::unordered_map<PacketIndex, net::Timestamp> ingress_time;
  ingress_time.reserve(result.hop_observations[in_hop].size() * 2);
  for (const Obs& o : result.hop_observations[in_hop]) {
    ingress_time.emplace(o.pkt, o.when - in_off);
  }

  std::vector<std::pair<PacketIndex, double>> out;
  out.reserve(result.hop_observations[out_hop].size());
  for (const Obs& o : result.hop_observations[out_hop]) {
    const auto it = ingress_time.find(o.pkt);
    if (it == ingress_time.end()) continue;
    const net::Duration delay = (o.when - out_off) - it->second;
    out.emplace_back(o.pkt, delay.milliseconds());
  }
  return out;
}

}  // namespace vpm::sim
