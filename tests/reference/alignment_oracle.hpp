// Reference oracle for the receipt-level join and §6.3 patch-up: the
// straightforward node-based (std::unordered_set / std::unordered_map)
// implementation that core/alignment.cpp replaced with flat,
// allocation-free membership tables.  Same signatures and semantics as the
// product entry points in core/alignment.hpp; the equivalence suite in
// core_alignment_test.cpp asserts byte-identical results on seeded random
// tails, hostile shapes included.
#ifndef VPM_TESTS_REFERENCE_ALIGNMENT_ORACLE_HPP
#define VPM_TESTS_REFERENCE_ALIGNMENT_ORACLE_HPP

#include <span>
#include <vector>

#include "core/alignment.hpp"

namespace vpm::reference {

[[nodiscard]] core::AlignmentResult align_aggregates(
    std::span<const core::AggregateReceipt> up,
    std::span<const core::AggregateReceipt> down, bool apply_patchup = true);

[[nodiscard]] core::PatchupResult patch_up(
    std::span<const core::AggregateReceipt> up,
    std::span<const core::AggregateReceipt> down);

core::TailConsumeStats consume_aligned_prefix(
    core::AggregateTail& tail, std::size_t margin_boundaries,
    std::vector<core::AlignedAggregate>& out);

[[nodiscard]] core::AlignmentResult align_tail(const core::AggregateTail& tail);

}  // namespace vpm::reference

#endif  // VPM_TESTS_REFERENCE_ALIGNMENT_ORACLE_HPP
