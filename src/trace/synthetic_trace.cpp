#include "trace/synthetic_trace.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "trace/flow_generator.hpp"

namespace vpm::trace {
namespace {

/// Two-state Markov-modulated Poisson arrival process.
class MmppArrivals {
 public:
  MmppArrivals(const TraceConfig& cfg, std::mt19937_64& rng)
      : rng_(rng) {
    const double mean = cfg.packets_per_second;
    if (cfg.burst_multiplier < 1.0) {
      throw std::invalid_argument("burst_multiplier must be >= 1");
    }
    if (cfg.burst_fraction <= 0.0 || cfg.burst_fraction >= 1.0) {
      throw std::invalid_argument("burst_fraction must be in (0,1)");
    }
    if (cfg.burst_multiplier * cfg.burst_fraction >= 1.0) {
      throw std::invalid_argument(
          "infeasible MMPP: burst_multiplier * burst_fraction must be < 1 "
          "so the off-state rate stays positive");
    }
    rate_on_ = mean * cfg.burst_multiplier;
    rate_off_ = mean * (1.0 - cfg.burst_multiplier * cfg.burst_fraction) /
                (1.0 - cfg.burst_fraction);
    mean_on_s_ = cfg.mean_burst_duration.seconds();
    mean_off_s_ =
        mean_on_s_ * (1.0 - cfg.burst_fraction) / cfg.burst_fraction;
    if (mean_on_s_ <= 0.0) {
      throw std::invalid_argument("mean_burst_duration must be positive");
    }
    schedule_state_end();
  }

  /// Seconds until the next packet arrival.
  double next_gap() {
    for (;;) {
      const double rate = on_ ? rate_on_ : rate_off_;
      std::exponential_distribution<double> exp_gap(rate);
      const double gap = exp_gap(rng_);
      if (clock_ + gap < state_end_) {
        clock_ += gap;
        return gap;
      }
      // State flips before the tentative arrival: discard it and redraw in
      // the next state (memorylessness makes this exact).
      clock_ = state_end_;
      on_ = !on_;
      schedule_state_end();
    }
  }

 private:
  void schedule_state_end() {
    std::exponential_distribution<double> exp_hold(
        1.0 / (on_ ? mean_on_s_ : mean_off_s_));
    state_end_ = clock_ + exp_hold(rng_);
  }

  std::mt19937_64& rng_;
  double rate_on_ = 0.0;
  double rate_off_ = 0.0;
  double mean_on_s_ = 0.0;
  double mean_off_s_ = 0.0;
  double clock_ = 0.0;
  double state_end_ = 0.0;
  bool on_ = false;
};

std::uint16_t draw_size(const std::vector<SizeBucket>& sizes,
                        std::mt19937_64& rng) {
  double total = 0.0;
  for (const SizeBucket& b : sizes) total += b.weight;
  std::uniform_real_distribution<double> u(0.0, total);
  double point = u(rng);
  for (const SizeBucket& b : sizes) {
    point -= b.weight;
    if (point <= 0.0) return b.bytes;
  }
  return sizes.back().bytes;
}

void validate(const TraceConfig& cfg) {
  if (cfg.packets_per_second <= 0.0) {
    throw std::invalid_argument("packets_per_second must be positive");
  }
  if (cfg.duration <= net::Duration{0}) {
    throw std::invalid_argument("duration must be positive");
  }
  if (cfg.sizes.empty()) {
    throw std::invalid_argument("size mix must not be empty");
  }
  for (const SizeBucket& b : cfg.sizes) {
    if (b.weight < 0.0) throw std::invalid_argument("negative size weight");
  }
}

}  // namespace

std::vector<net::Packet> generate_trace(const TraceConfig& cfg) {
  validate(cfg);
  std::mt19937_64 rng(cfg.seed);
  FlowGenerator flows(cfg.prefixes, cfg.flow_count, cfg.zipf_s,
                      rng());
  MmppArrivals arrivals(cfg, rng);

  const double horizon_s = cfg.duration.seconds();
  const auto expected =
      static_cast<std::size_t>(cfg.packets_per_second * horizon_s * 1.1);
  std::vector<net::Packet> out;
  out.reserve(expected);

  double clock_s = 0.0;
  std::uint64_t seq = 0;
  for (;;) {
    clock_s += arrivals.next_gap();
    if (clock_s >= horizon_s) break;
    net::Packet p;
    p.header = flows.next_header(draw_size(cfg.sizes, rng));
    p.payload_prefix = rng();
    p.sequence = seq++;
    p.origin_time = net::Timestamp{} + net::seconds_f(clock_s);
    out.push_back(p);
  }
  return out;
}

net::PrefixPair default_prefix_pair() {
  return net::PrefixPair{
      .source = net::Prefix{net::Ipv4Address{10, 1, 0, 0}, 16},
      .destination = net::Prefix{net::Ipv4Address{172, 16, 0, 0}, 16},
  };
}

MultiPathTrace generate_multi_path(const MultiPathConfig& cfg) {
  if (cfg.path_count == 0) {
    throw std::invalid_argument("path_count must be positive");
  }
  if (cfg.total_packets_per_second <= 0.0) {
    throw std::invalid_argument("total rate must be positive");
  }
  std::mt19937_64 rng(cfg.seed);

  MultiPathTrace trace;
  trace.paths.reserve(cfg.path_count);
  std::vector<FlowGenerator> generators;
  generators.reserve(cfg.path_count);
  for (std::size_t k = 0; k < cfg.path_count; ++k) {
    // Deterministic, collision-free /24 pair for path k: source prefixes
    // enumerate 10.0.0.0/8, destinations walk a second /8 block per 64 Ki
    // paths.
    const auto a = static_cast<std::uint8_t>((k >> 8) & 0xFF);
    const auto b = static_cast<std::uint8_t>(k & 0xFF);
    const auto c = static_cast<std::uint8_t>(100 + ((k >> 16) & 0x3F));
    const net::PrefixPair pair{
        .source = net::Prefix{net::Ipv4Address{10, a, b, 0}, 24},
        .destination = net::Prefix{net::Ipv4Address{c, a, b, 0}, 24},
    };
    trace.paths.push_back(pair);
    generators.emplace_back(pair, cfg.flows_per_path, 1.0, rng());
  }

  ZipfSampler path_popularity(cfg.path_count, cfg.zipf_s);
  std::exponential_distribution<double> gap(cfg.total_packets_per_second);
  std::vector<SizeBucket> sizes = {{40, 0.50}, {400, 0.30}, {1500, 0.20}};

  const double horizon_s = cfg.duration.seconds();
  // The arrival count is Poisson(rate x horizon): eight standard
  // deviations of headroom make a regrowth vanishingly rare.
  const double expected =
      std::max(0.0, cfg.total_packets_per_second * horizon_s);
  const auto capacity =
      static_cast<std::size_t>(expected + 8.0 * std::sqrt(expected)) + 64;
  trace.packets.reserve(capacity);
  trace.path_of.reserve(capacity);
  double clock_s = 0.0;
  std::uint64_t seq = 0;
  for (;;) {
    clock_s += gap(rng);
    if (clock_s >= horizon_s) break;
    const std::size_t path = path_popularity.sample(rng);
    net::Packet p;
    p.header = generators[path].next_header(draw_size(sizes, rng));
    p.payload_prefix = rng();
    p.sequence = seq++;
    p.origin_time = net::Timestamp{} + net::seconds_f(clock_s);
    trace.packets.push_back(p);
    trace.path_of.push_back(static_cast<std::uint32_t>(path));
  }
  return trace;
}

}  // namespace vpm::trace
