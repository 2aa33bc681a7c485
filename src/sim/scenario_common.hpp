// Shared plumbing for the config-driven ScenarioEngine, the federation
// and shard drivers, and the end-to-end pipeline benchmark: deterministic
// seeds and per-path delay spreads, PathId table construction, gap
// deduplication, fetch-client stat accumulation, and the engine's
// group-by-path and per-HOP observation ordering.  The scenario grid,
// the fault and churn soaks (both run on the engine) and the federation
// soak pin these byte-for-byte — change semantics here and the pins
// fail, by design.
#ifndef VPM_SIM_SCENARIO_COMMON_HPP
#define VPM_SIM_SCENARIO_COMMON_HPP

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/function_ref.hpp"
#include "core/verifier.hpp"
#include "dissem/fetch_client.hpp"
#include "net/packet.hpp"
#include "net/path_id.hpp"
#include "net/prefix.hpp"
#include "net/time.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim::scenario {

/// splitmix64 finalizer — deterministic per-path delay offsets.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// The consumer-side PathId table for one HOP's receipts: same header
/// spec, neighbor hops, and MaxDiff the producer's collector stamps.
[[nodiscard]] std::vector<net::PathId> path_table(
    const collector::MonitoringCache::Config& cfg,
    const std::vector<net::PrefixPair>& paths);

/// Merge crash re-declarations: a client killed after reporting a gap but
/// before acking past it re-fetches and re-declares the same gap (same
/// first missing sequence) — keep the widest range and the union of
/// attributed paths.
[[nodiscard]] std::vector<core::RoundGap> dedupe_gaps(
    std::vector<core::RoundGap> raw);

/// Sum one FetchClient incarnation's stats into an accumulator (crash
/// rebuilds retire several incarnations per hop).
void add_stats(dissem::FetchClient::Stats& acc,
               const dissem::FetchClient::Stats& s);

/// Per-path, per-hop observation delay: base per hop plus a small
/// deterministic per-path offset (µs-aligned, constant per path so
/// per-path observation order is preserved and the 1 µs wire time
/// quantisation is exact).
[[nodiscard]] net::Duration spread_hop_delay(std::uint64_t seed,
                                             std::size_t path,
                                             std::size_t hop,
                                             net::Duration hop_delay,
                                             std::size_t delay_spread_us);

/// The traffic config every scenario driver builds the same way: a
/// multi-path Zipf mix over a fixed duration.
[[nodiscard]] trace::MultiPathConfig multi_path_config(
    std::size_t path_count, double zipf_s, double total_packets_per_second,
    net::Duration duration, std::uint64_t seed);

/// Round-based convenience form: duration = round_length * rounds.
[[nodiscard]] trace::MultiPathConfig multi_path_config(
    std::size_t path_count, double zipf_s, double total_packets_per_second,
    net::Duration round_length, std::size_t rounds, std::uint64_t seed);

/// Quantise a timestamp to the wire's 1 µs resolution (floor), so drains
/// round-trip `==`-equal through export/import.
[[nodiscard]] net::Timestamp quantize_us(net::Timestamp t);

/// The reporting round an origin time falls in, clamped to the last round
/// (trailing packets emitted exactly at the duration boundary).
[[nodiscard]] std::size_t round_of(net::Timestamp origin,
                                   std::int64_t round_ns, std::size_t rounds);

/// One HOP observation in feed order: the µs-quantised local time, then
/// the packet's index in the foreground trace.  The trace generator
/// assigns sequence numbers in arrival order and never reuses one, so
/// foreground order is sequence order and (when, fg) is a strict total
/// order: a HOP observes in local-clock order, same-µs packets in
/// sequence order.
struct ObsKey {
  std::int64_t when_ns = 0;
  std::size_t fg = 0;

  friend auto operator<=>(const ObsKey&, const ObsKey&) = default;
};

/// Every HOP's observations, ordered for the collector feed.
struct HopFeeds {
  std::vector<std::vector<ObsKey>> keys;  ///< per HOP position, ascending
  /// Per HOP position: rounds + 1 offsets into `keys`.
  std::vector<std::vector<std::size_t>> round_begin;

  /// Round `r`'s observations at HOP position `hop`: bucketed by
  /// observation time, stragglers past the last boundary folded into the
  /// last round.
  [[nodiscard]] std::span<const ObsKey> round(std::size_t hop,
                                              std::size_t r) const {
    const std::vector<std::size_t>& b = round_begin[hop];
    return std::span<const ObsKey>(keys[hop]).subspan(b[r], b[r + 1] - b[r]);
  }
};

/// Runs path `path` (its foreground packets `trace`, in arrival order;
/// `to_fg[i]` is trace[i]'s foreground index) through the chain.
using PathRunner = core::FunctionRef<PathRunResult(
    std::size_t path, std::span<const net::Packet> trace,
    std::span<const std::uint32_t> to_fg)>;

/// The scenario harness's group-and-order step, linear unless something
/// reorders packets: one counting pass groups the foreground trace `fg` by
/// path (`fg_path[i]` is fg[i]'s path); `run` propagates each path, in path
/// order; each HOP's observations become (when, fg) keys, emitted in
/// foreground order and sorted only if that is not already time order;
/// rounds are contiguous ranges of the ordered keys.  Throws
/// std::invalid_argument on a path index >= `paths`, a run result without
/// `hops` observation sequences, or a negative observation time.
[[nodiscard]] HopFeeds order_observations(
    std::span<const net::Packet> fg, std::span<const std::uint32_t> fg_path,
    std::size_t paths, std::size_t hops, std::int64_t round_ns,
    std::size_t rounds, PathRunner run);

}  // namespace vpm::sim::scenario

#endif  // VPM_SIM_SCENARIO_COMMON_HPP
