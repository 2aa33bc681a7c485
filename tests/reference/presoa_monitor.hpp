// Pre-SoA reference monitors: the original per-object DelaySampler and
// Aggregator (a grow-as-needed vector temp buffer, a power-of-two J-ring,
// a stable_partition pending list and a per-packet push into every open
// AggTrans.after window), kept verbatim as the oracle the
// structure-of-arrays kernels in core/path_state must match receipt for
// receipt.  soa_equivalence_test.cpp runs them per path behind a
// pointer-per-path cache; observation_log_test.cpp drives them one path
// at a time against the observation log's edge cases.
#ifndef VPM_TESTS_REFERENCE_PRESOA_MONITOR_HPP
#define VPM_TESTS_REFERENCE_PRESOA_MONITOR_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/time.hpp"

namespace vpm::reference {

using core::AggId;
using core::AggregateData;
using core::SampleRecord;
using net::DigestEngine;
using net::Timestamp;

class RefSampler {
 public:
  /// `marker_max_age` > 0 adds the time-keyed marker rule: a packet
  /// arriving while the oldest buffered record is at least that old acts
  /// as a marker (0, the default, is Algorithm 1 as published).
  RefSampler(const DigestEngine& engine, std::uint32_t marker_threshold,
             std::uint32_t sample_threshold,
             net::Duration marker_max_age = net::Duration{0})
      : engine_(engine),
        marker_threshold_(marker_threshold),
        sample_threshold_(sample_threshold),
        marker_max_age_(marker_max_age) {}

  std::size_t observe(const net::PacketDecisions& d, Timestamp when) {
    const bool forced = marker_max_age_ > net::Duration{0} &&
                        !buffer_.empty() &&
                        when - buffer_.front().time >= marker_max_age_;
    if (forced || d.marker_value > marker_threshold_) {
      const std::size_t swept = buffer_.size();
      for (const Buffered& q : buffer_) {
        if (DigestEngine::sample_value(q.id, d.id) > sample_threshold_) {
          emitted_.push_back(SampleRecord{
              .pkt_id = q.id, .time = q.time, .is_marker = false});
        }
      }
      buffer_.clear();
      emitted_.push_back(
          SampleRecord{.pkt_id = d.id, .time = when, .is_marker = true});
      return swept;
    }
    buffer_.push_back(Buffered{d.id, when});
    return 0;
  }

  [[nodiscard]] std::vector<SampleRecord> take_samples() {
    std::vector<SampleRecord> out;
    out.swap(emitted_);
    return out;
  }

 private:
  struct Buffered {
    net::PacketDigest id;
    Timestamp time;
  };
  DigestEngine engine_;  // the per-path copy the refactor removed
  std::uint32_t marker_threshold_;
  std::uint32_t sample_threshold_;
  net::Duration marker_max_age_;
  std::vector<Buffered> buffer_;
  std::vector<SampleRecord> emitted_;
};

class RefAggregator {
 public:
  RefAggregator(const DigestEngine& engine, std::uint32_t cut_threshold,
                net::Duration j_window)
      : engine_(engine), cut_threshold_(cut_threshold), j_window_(j_window) {
    if (j_window_ > net::Duration{0}) ring_.resize(64);
  }

  void observe(const net::PacketDecisions& d, Timestamp when) {
    const net::PacketDigest id = d.id;
    const bool is_cut = open_.has_value() && d.cut_value > cut_threshold_;

    if (!pending_.empty()) finalize_due(when);

    if (is_cut) {
      if (j_window_ > net::Duration{0}) {
        Pending pend;
        pend.boundary = when;
        pend.data.agg = open_->agg;
        pend.data.packet_count = open_->count;
        pend.data.opened_at = open_->opened_at;
        pend.data.closed_at = open_->last_at;
        const std::size_t mask = ring_.size() - 1;
        for (std::size_t i = 0; i < ring_size_; ++i) {
          const Recent& r = ring_[(ring_head_ + i) & mask];
          if (r.time + j_window_ >= when) {
            pend.data.trans.before.push_back(r.id);
          }
        }
        pending_.push_back(std::move(pend));
      } else {
        closed_.push_back(AggregateData{.agg = open_->agg,
                                        .packet_count = open_->count,
                                        .trans = {},
                                        .opened_at = open_->opened_at,
                                        .closed_at = open_->last_at});
      }
      open_.reset();
    }

    for (Pending& pend : pending_) {
      pend.data.trans.after.push_back(id);
    }

    if (!open_) {
      open_ = Open{.agg = AggId{.first = id, .last = id},
                   .count = 1,
                   .opened_at = when,
                   .last_at = when};
    } else {
      open_->agg.last = id;
      ++open_->count;
      open_->last_at = when;
    }

    if (j_window_ > net::Duration{0}) {
      if (ring_size_ == ring_.size()) ring_grow();
      ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] =
          Recent{id, when};
      ++ring_size_;
      const std::size_t mask = ring_.size() - 1;
      while (ring_size_ != 0 &&
             ring_[ring_head_ & mask].time + j_window_ < when) {
        ring_head_ = (ring_head_ + 1) & mask;
        --ring_size_;
      }
    }
  }

  [[nodiscard]] std::vector<AggregateData> take_closed() {
    std::vector<AggregateData> out;
    out.swap(closed_);
    return out;
  }

  [[nodiscard]] std::optional<AggregateData> flush_open() {
    for (Pending& pend : pending_) closed_.push_back(std::move(pend.data));
    pending_.clear();
    if (!open_) return std::nullopt;
    AggregateData d;
    d.agg = open_->agg;
    d.packet_count = open_->count;
    d.opened_at = open_->opened_at;
    d.closed_at = open_->last_at;
    open_.reset();
    return d;
  }

 private:
  struct Recent {
    net::PacketDigest id;
    Timestamp time;
  };
  struct Open {
    AggId agg;
    std::uint32_t count = 0;
    Timestamp opened_at;
    Timestamp last_at;
  };
  struct Pending {
    AggregateData data;
    Timestamp boundary;
  };

  void ring_grow() {
    std::vector<Recent> bigger(ring_.size() * 2);
    const std::size_t mask = ring_.size() - 1;
    for (std::size_t i = 0; i < ring_size_; ++i) {
      bigger[i] = ring_[(ring_head_ + i) & mask];
    }
    ring_.swap(bigger);
    ring_head_ = 0;
  }

  void finalize_due(Timestamp now) {
    auto still_pending = [&](const Pending& p) {
      return p.boundary + j_window_ >= now;
    };
    auto it = std::stable_partition(pending_.begin(), pending_.end(),
                                    still_pending);
    for (auto done = it; done != pending_.end(); ++done) {
      closed_.push_back(std::move(done->data));
    }
    pending_.erase(it, pending_.end());
  }

  DigestEngine engine_;  // the per-path copy the refactor removed
  std::uint32_t cut_threshold_;
  net::Duration j_window_;
  std::optional<Open> open_;
  std::vector<Recent> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<Pending> pending_;
  std::vector<AggregateData> closed_;
};

}  // namespace vpm::reference

#endif  // VPM_TESTS_REFERENCE_PRESOA_MONITOR_HPP
