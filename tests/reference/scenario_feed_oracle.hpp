// Reference oracle for the scenario harness's group-and-order step: the
// straightforward algorithm sim::scenario::order_observations replaced.
// For every path it scans the whole foreground trace for that path's
// packets, buckets each HOP observation (a whole Packet copy plus its
// quantised time) into its observation round, stragglers folded into the
// last, and sorts each bucket by (time, sequence).  O(paths x packets)
// plus a sort of whole packets; scenario_feed_test.cpp asserts the
// product function feeds every (HOP, round) in exactly this order.
#ifndef VPM_TESTS_REFERENCE_SCENARIO_FEED_ORACLE_HPP
#define VPM_TESTS_REFERENCE_SCENARIO_FEED_ORACLE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "sim/scenario_common.hpp"

namespace vpm::reference {

struct MergedObs {
  net::Packet packet;
  net::Timestamp when;
};

/// obs_by_round[hop][round], each bucket ascending by (when, sequence).
/// Same arguments and `run` contract as sim::scenario::order_observations.
[[nodiscard]] std::vector<std::vector<std::vector<MergedObs>>>
bucket_observations(std::span<const net::Packet> fg,
                    std::span<const std::uint32_t> fg_path, std::size_t paths,
                    std::size_t hops, std::int64_t round_ns,
                    std::size_t rounds, sim::scenario::PathRunner run);

}  // namespace vpm::reference

#endif  // VPM_TESTS_REFERENCE_SCENARIO_FEED_ORACLE_HPP
