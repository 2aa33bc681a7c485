#include "core/incremental_verifier.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "stats/quantile.hpp"

namespace vpm::core {
namespace {

/// Append one round's aggregates to a pair tail, moving them out of the
/// round when no other pair needs them.
void append_aggregates(std::vector<AggregateReceipt>& tail,
                       std::vector<AggregateReceipt>& round, bool last_use) {
  if (last_use) {
    tail.insert(tail.end(), std::make_move_iterator(round.begin()),
                std::make_move_iterator(round.end()));
  } else {
    tail.insert(tail.end(), round.begin(), round.end());
  }
}

}  // namespace

IncrementalPathVerifier::IncrementalPathVerifier(Config cfg)
    : cfg_(std::move(cfg)) {
  const PathLayout& layout = cfg_.layout;
  if (layout.hops.size() != layout.domain_of.size()) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: layout hops/domains size mismatch");
  }
  if (cfg_.retain_rounds == 0) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: retain_rounds must be >= 1");
  }
  for (std::size_t i = 0; i + 1 < layout.hops.size(); ++i) {
    Pair p;
    p.is_domain = layout.domain_of[i] == layout.domain_of[i + 1];
    p.up_pos = i;
    p.down_pos = i + 1;
    pairs_.push_back(std::move(p));
  }
}

std::uint64_t IncrementalPathVerifier::rounds_ingested(net::HopId hop) const {
  const auto it = rounds_.find(hop);
  return it == rounds_.end() ? 0 : it->second;
}

std::uint64_t IncrementalPathVerifier::pair_clock(const Pair& p) const {
  return std::max(rounds_ingested(cfg_.layout.hops[p.up_pos]),
                  rounds_ingested(cfg_.layout.hops[p.down_pos]));
}

void IncrementalPathVerifier::add_round(net::HopId hop, PathDrain round) {
  const std::vector<net::HopId>& hops = cfg_.layout.hops;
  if (std::find(hops.begin(), hops.end(), hop) == hops.end()) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: HOP not in layout: " + std::to_string(hop));
  }
  ++rounds_[hop];
  HopInfo& info = hop_info_[hop];
  if (!info.seen) {
    info.seen = true;
    info.max_diff = round.samples.path.max_diff;
    info.sample_threshold = round.samples.sample_threshold;
  }

  // An interior HOP ends two pairs: its aggregates are copied into the
  // first pair's tail and moved into the last.
  std::size_t ends_left = 0;
  for (const Pair& p : pairs_) {
    ends_left += (hops[p.up_pos] == hop) + (hops[p.down_pos] == hop);
  }
  for (Pair& p : pairs_) {
    const bool as_up = hops[p.up_pos] == hop;
    const bool as_down = hops[p.down_pos] == hop;
    if (!as_up && !as_down) continue;
    AggregateTail& tail = p.is_domain ? p.loss.tail : p.link_aggregates.tail;
    if (as_up) {
      p.is_domain ? feed_domain(p, true, round) : feed_link(p, true, round);
      append_aggregates(tail.up, round.aggregates, --ends_left == 0);
    }
    if (as_down) {
      p.is_domain ? feed_domain(p, false, round)
                  : feed_link(p, false, round);
      append_aggregates(tail.down, round.aggregates, --ends_left == 0);
    }
    settle_pair(p);
  }
}

void IncrementalPathVerifier::feed_domain(Pair& p, bool is_up,
                                          const PathDrain& round) {
  const std::uint64_t clock = pair_clock(p);
  if (is_up) {
    // Ingress side: remember every sampled packet's time (markers
    // included — the batch matcher indexes them too; first record wins on
    // a digest collision, as emplace does there).  Records for one digest
    // arrive in stream order, so the first resident record is always the
    // stream-first one — matching against it here gives the same delay
    // the batch matcher computes, whichever side was fed first.
    for (const SampleRecord& s : round.samples.samples) {
      p.delay.ingress_times.emplace(s.pkt_id,
                                    DelayState::Entry{s.time, clock});
    }
    // Resolve egress samples that were buffered waiting for this side.
    std::vector<DelayState::PendingEgress>& pe = p.delay.pending_egress;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      const auto it = p.delay.ingress_times.find(pe[i].digest);
      if (it == p.delay.ingress_times.end()) {
        pe[keep++] = pe[i];
        continue;
      }
      it->second.matched = true;
      p.delay.delays.emplace_back(
          pe[i].order, (pe[i].time - it->second.time).milliseconds());
    }
    pe.resize(keep);
  } else {
    // Egress side: under lockstep feeding (upstream HOPs first within a
    // reporting round) the ingress record is already resident.  When the
    // HOPs' fetch loops drift apart, buffer the sample instead of losing
    // the match — the ingress round is late, not absent.
    for (const SampleRecord& s : round.samples.samples) {
      const std::uint64_t order = p.delay.egress_seen++;
      const auto it = p.delay.ingress_times.find(s.pkt_id);
      if (it == p.delay.ingress_times.end()) {
        p.delay.pending_egress.push_back(
            DelayState::PendingEgress{s.pkt_id, s.time, order, clock});
        continue;
      }
      it->second.matched = true;
      p.delay.delays.emplace_back(
          order, (s.time - it->second.time).milliseconds());
    }
  }
}

void IncrementalPathVerifier::feed_link(Pair& p, bool is_up,
                                        const PathDrain& round) {
  const std::uint64_t clock = pair_clock(p);
  LinkSamplesState& ls = p.link_samples;
  if (is_up) {
    ls.up_splitter.feed(round.samples.samples, [&](SampleRound&& r) {
      ls.pending_up.push_back(
          LinkSamplesState::Stamped{std::move(r), clock});
    });
  } else {
    ls.down_splitter.feed(round.samples.samples, [&](SampleRound&& r) {
      const net::PacketDigest marker = r.marker_id;
      ls.down_by_marker.emplace(
          marker, LinkSamplesState::Stamped{std::move(r), clock});
    });
  }
}

void IncrementalPathVerifier::settle_pair(Pair& p) {
  const std::uint64_t clock = pair_clock(p);
  const auto expired = [&](std::uint64_t seen) {
    return clock > seen && clock - seen > cfg_.retain_rounds;
  };

  if (p.is_domain) {
    // Finalize aligned aggregates past the stability margin.
    const TailConsumeStats consumed = consume_aligned_prefix(
        p.loss.tail, cfg_.margin_boundaries, p.loss.groups);
    p.loss.consumed_migrations += consumed.migrations;
    // Expire ingress sample entries past retention (matched entries must
    // linger the same window: a later duplicate egress sample matches
    // again in the batch semantics).
    auto& map = p.delay.ingress_times;
    for (auto it = map.begin(); it != map.end();) {
      if (expired(it->second.round)) {
        if (!it->second.matched) ++p.delay.expired;
        it = map.erase(it);
      } else {
        ++it;
      }
    }
    // Buffered egress samples age out on the same clock: an upstream
    // round still absent past retention is a gap, not a late fetch.
    std::vector<DelayState::PendingEgress>& pe = p.delay.pending_egress;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      if (expired(pe[i].round)) {
        ++p.delay.expired;
      } else {
        pe[keep++] = pe[i];
      }
    }
    pe.resize(keep);
    return;
  }

  LinkSamplesState& ls = p.link_samples;
  const HopInfo& up_info = hop_info_[cfg_.layout.hops[p.up_pos]];
  const HopInfo& down_info = hop_info_[cfg_.layout.hops[p.down_pos]];
  // Resolve pending upstream rounds strictly FIFO — the batch check walks
  // upstream rounds in stream order, so a blocked head must stall its
  // successors to keep the accumulated output identical.
  while (!ls.pending_up.empty()) {
    LinkSamplesState::Stamped& head = ls.pending_up.front();
    const auto match = ls.down_by_marker.find(head.round.marker_id);
    if (match != ls.down_by_marker.end()) {
      check_sample_round_pair(head.round, match->second.round,
                              up_info.max_diff, up_info.sample_threshold,
                              down_info.sample_threshold, ls.accumulated);
      ls.down_by_marker.erase(match);
      ls.pending_up.pop_front();
      continue;
    }
    if (!expired(head.seen)) break;
    // §5.3: a marker the upstream HOP delivered that the downstream HOP
    // has not reported within the retention window is a link loss or a
    // lie — the same verdict the batch check reaches over full streams.
    // Still counted as a retention expiry: a LATER-than-window downstream
    // round would have matched in the batch check.
    ls.accumulated.violations.push_back(Inconsistency{
        InconsistencyKind::kMarkerMissing, head.round.marker_id, 0.0});
    ++ls.expired;
    ls.pending_up.pop_front();
  }
  // Downstream rounds nobody claimed: the batch check silently ignores
  // them; drop past retention to bound the map.
  for (auto it = ls.down_by_marker.begin(); it != ls.down_by_marker.end();) {
    if (expired(it->second.seen)) {
      it = ls.down_by_marker.erase(it);
      ++ls.expired;
    } else {
      ++it;
    }
  }

  std::vector<AlignedAggregate> fresh;
  (void)consume_aligned_prefix(p.link_aggregates.tail,
                               cfg_.margin_boundaries, fresh);
  p.link_aggregates.checked += fresh.size();
  for (const AlignedAggregate& g : fresh) {
    check_aligned_counts(g, p.link_aggregates.violations);
  }
}

void IncrementalPathVerifier::report_gap(RoundGap gap) {
  gaps_.push_back(std::move(gap));
}

PathAnalysis IncrementalPathVerifier::analyze() const {
  const PathLayout& layout = cfg_.layout;
  PathAnalysis analysis;
  analysis.gaps = gaps_;

  for (const Pair& p : pairs_) {
    const net::HopId a = layout.hops[p.up_pos];
    const net::HopId b = layout.hops[p.down_pos];
    const bool have_both = rounds_ingested(a) > 0 && rounds_ingested(b) > 0;

    if (p.is_domain) {
      DomainFinding f;
      f.domain = layout.domain_of[p.up_pos];
      f.ingress = a;
      f.egress = b;
      if (have_both) {
        // Matches recorded out of feed order (a buffered egress sample
        // resolved by a late ingress round) carry their egress stream
        // position — sorting restores egress observation order, the
        // order the batch matcher reports.
        std::vector<std::pair<std::uint64_t, double>> ordered =
            p.delay.delays;
        std::sort(ordered.begin(), ordered.end());
        f.delay.sample_delays_ms.reserve(ordered.size());
        for (const auto& [order, ms] : ordered) {
          f.delay.sample_delays_ms.push_back(ms);
        }
        f.delay.common_samples = p.delay.delays.size();
        if (f.delay.common_samples > 0) {
          stats::QuantileEstimator estimator;
          estimator.add_all(f.delay.sample_delays_ms);
          f.delay.quantiles =
              estimator.estimate_many(stats::kDelayQuantiles, 0.95);
        }

        const AlignmentResult tail = align_tail(p.loss.tail);
        f.loss.details.reserve(p.loss.groups.size() + tail.aligned.size());
        f.loss.details = p.loss.groups;
        f.loss.details.insert(f.loss.details.end(), tail.aligned.begin(),
                              tail.aligned.end());
        f.loss.joined_aggregates = f.loss.details.size();
        f.loss.patchup_migrations =
            p.loss.consumed_migrations + tail.migrations;
        double total_s = 0.0;
        for (const AlignedAggregate& g : f.loss.details) {
          f.loss.offered += g.up_count;
          f.loss.delivered += g.down_count;
          const double s = g.duration_s();
          total_s += s;
          if (s > f.loss.max_granularity_s) f.loss.max_granularity_s = s;
        }
        if (!f.loss.details.empty()) {
          f.loss.mean_granularity_s =
              total_s / static_cast<double>(f.loss.details.size());
        }
      }
      analysis.domains.push_back(std::move(f));
      continue;
    }

    LinkFinding f;
    f.upstream_domain = layout.domain_of[p.up_pos];
    f.downstream_domain = layout.domain_of[p.down_pos];
    f.upstream_hop = a;
    f.downstream_hop = b;
    if (have_both) {
      const auto up_it = hop_info_.find(a);
      const auto down_it = hop_info_.find(b);
      const HopInfo& up_info = up_it->second;
      const HopInfo& down_info = down_it->second;

      LinkSampleCheck samples;
      // Batch order: the Eq.-1 MaxDiff verdict first, then per-round
      // output in upstream stream order (the finalized rounds, then the
      // still-pending ones resolved against everything seen so far).
      if (up_info.max_diff != down_info.max_diff) {
        samples.violations.push_back(Inconsistency{
            InconsistencyKind::kMaxDiffMismatch, 0,
            (up_info.max_diff - down_info.max_diff).milliseconds()});
      }
      const LinkSamplesState& ls = p.link_samples;
      samples.rounds_matched = ls.accumulated.rounds_matched;
      samples.common_samples = ls.accumulated.common_samples;
      samples.link_delays_ms = ls.accumulated.link_delays_ms;
      samples.violations.insert(samples.violations.end(),
                                ls.accumulated.violations.begin(),
                                ls.accumulated.violations.end());
      // Match-once semantics without copying the pending rounds: a
      // consumed-marker set stands in for the settle-time erase.
      std::unordered_set<net::PacketDigest> consumed;
      for (const LinkSamplesState::Stamped& pending : ls.pending_up) {
        const auto match = ls.down_by_marker.find(pending.round.marker_id);
        if (match == ls.down_by_marker.end() ||
            consumed.contains(pending.round.marker_id)) {
          samples.violations.push_back(Inconsistency{
              InconsistencyKind::kMarkerMissing, pending.round.marker_id,
              0.0});
          continue;
        }
        check_sample_round_pair(pending.round, match->second.round,
                                up_info.max_diff, up_info.sample_threshold,
                                down_info.sample_threshold, samples);
        consumed.insert(pending.round.marker_id);
      }
      f.report.samples = std::move(samples);

      LinkAggregateCheck aggregates;
      const AlignmentResult tail = align_tail(p.link_aggregates.tail);
      aggregates.aggregates_checked =
          p.link_aggregates.checked + tail.aligned.size();
      aggregates.violations = p.link_aggregates.violations;
      for (const AlignedAggregate& g : tail.aligned) {
        check_aligned_counts(g, aggregates.violations);
      }
      f.report.aggregates = std::move(aggregates);
    }
    analysis.links.push_back(std::move(f));
  }
  return analysis;
}

IncrementalPathVerifier::ResidentStats
IncrementalPathVerifier::resident_stats() const {
  ResidentStats out;
  for (const Pair& p : pairs_) {
    if (p.is_domain) {
      out.pending_ingress_samples += p.delay.ingress_times.size();
      out.pending_egress_samples += p.delay.pending_egress.size();
      out.retained_delays += p.delay.delays.size();
      out.tail_aggregate_receipts += p.loss.tail.receipt_count();
      out.retained_aligned_groups += p.loss.groups.size();
      out.expired_unmatched += p.delay.expired;
    } else {
      out.pending_sample_rounds += p.link_samples.pending_up.size() +
                                   p.link_samples.down_by_marker.size();
      out.tail_aggregate_receipts += p.link_aggregates.tail.receipt_count();
      out.expired_unmatched += p.link_samples.expired;
    }
  }
  return out;
}

}  // namespace vpm::core
