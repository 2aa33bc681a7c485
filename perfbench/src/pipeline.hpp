// The assembled receipt pipeline the benchmark times: one workload's
// pre-generated HOP observations pushed through the library's product
// API, round by round, in the closed loop sim::run_scenario uses.
//
//   collector::ShardedCollector  observe_batch, drain(ReceiptSink&)
//                                (synchronous, one shard)
//   adversary::*                 a lying domain rewrites what it publishes
//   dissem::WireExporter         -> FaultyTransport -> ReceiptStore
//                                   (memory, or SegmentStorage on disk)
//   dissem::FetchClient          over a WireImporter, crash-restarts
//   core::IncrementalPathVerifier  add_round, report_gap, analyze
//
// Round r's observations reach the collectors only after round r-1 has
// been drained, published and polled.  build_inputs() is the set-up:
// trace synthesis, propagation through the domain chain and per-HOP round
// bucketing, none of it timed.  Pipeline::run() is the timed region, from
// round 0's first observe_batch to the last analyze() return.
//
// The pass mirrors run_scenario's seeds, feed order and settle loop, so a
// reduced copy of a workload yields run_scenario's findings exactly (the
// benchmark's cross-check).  Configs using features the assembled pipeline
// does not model (congestion loss, link failures, route flaps, lifecycle
// eviction, sharding, federation) are rejected by build_inputs().
#ifndef VPM_PERFBENCH_PIPELINE_HPP
#define VPM_PERFBENCH_PIPELINE_HPP

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/incremental_verifier.hpp"
#include "dissem/faulty_transport.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "sim/scenario_config.hpp"
#include "sim/scenario_engine.hpp"
#include "span_trace.hpp"

namespace perfbench {

using namespace vpm;

/// Everything the timed region reads, produced by the set-up.
struct Inputs {
  sim::ScenarioConfig cfg;
  core::PathLayout layout;
  std::vector<std::string> transit_domains;
  std::vector<net::PrefixPair> paths;
  std::vector<collector::MonitoringCache::Config> hop_cfg;
  /// What the domain owning each HOP does to the drains it publishes.
  std::vector<sim::AdversaryKind> adversary_at;
  /// packets[pos][r] / when[pos][r]: HOP pos's round-r observations in
  /// local-clock order, ready for observe_batch.
  std::vector<std::vector<std::vector<net::Packet>>> packets;
  std::vector<std::vector<std::vector<net::Timestamp>>> when;
  /// Ground truth: truth[path][transit], observed[pos][path].
  std::vector<std::vector<sim::DomainTruth>> truth;
  std::vector<std::vector<std::uint64_t>> observed;
  std::uint64_t observations = 0;  ///< HOP observations, all rounds

  double trace_s = 0;      ///< trace synthesis
  double propagate_s = 0;  ///< per-path propagation through the chain
  double bucket_s = 0;     ///< per-HOP round bucketing and sort

  [[nodiscard]] std::size_t hops() const { return layout.hops.size(); }
  [[nodiscard]] std::size_t rounds() const { return cfg.rounds; }
};

/// The set-up.  Throws std::invalid_argument on configs the assembled
/// pipeline does not model.
[[nodiscard]] Inputs build_inputs(const sim::ScenarioConfig& cfg);

/// What one pass measured and what it concluded.
struct PassResult {
  /// Findings, gaps and conservation counts in run_scenario's shape, so
  /// the correctness gate and the cross-check share its predicates.
  sim::ScenarioOutcome outcome;
  double timed_s = 0;
  /// One sample per (path, round) whose receipts reached the verifier
  /// from every HOP: round close to the last add_round return.
  std::vector<double> freshness_ms;

  std::uint64_t groups_published = 0;  ///< (HOP, path, round) groups
  std::uint64_t groups_ingested = 0;
  std::uint64_t groups_in_gaps = 0;    ///< undelivered, inside a RoundGap
  std::uint64_t groups_lost_silently = 0;
  std::uint64_t groups_ingested_twice = 0;

  collector::DataPlaneOps ops;
  std::uint64_t unknown_path_packets = 0;
  std::uint64_t sample_records = 0;  ///< drained by the collectors
  std::uint64_t aggregates = 0;
  std::size_t hop_arena_peak = 0;    ///< busiest HOP's arena_bytes()
  std::size_t total_arena_peak = 0;  ///< all HOPs' arena_bytes() summed

  std::uint64_t envelopes = 0;
  std::uint64_t envelope_bytes = 0;
  std::uint64_t payload_bytes = 0;
  dissem::FaultStats faults;  ///< summed over HOP transports
  std::size_t store_accepted = 0;
  std::size_t store_rejected = 0;
  std::size_t store_disk_peak = 0;
  dissem::FetchClient::Stats fetch;  ///< summed over client incarnations
  std::size_t consumer_lag_end = 0;

  std::size_t pending_samples_peak = 0;  ///< traced passes only
};

/// One pass's pipeline, constructed fresh (construction is set-up work).
/// Callbacks capture `this`, so it is neither copyable nor movable.
class Pipeline {
 public:
  /// `store_dir` empty selects the memory store; otherwise the store is a
  /// SegmentStorage in that (fresh) directory.
  Pipeline(const Inputs& in, const std::filesystem::path& store_dir,
           Tracer& tracer);
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// The timed region.  Call once.
  [[nodiscard]] PassResult run();

 private:
  class DrainSink;
  class CaptureSink;

  void build_client(std::size_t pos);
  void retire_client(std::size_t pos);
  void on_rounds(std::size_t pos, std::vector<core::IndexedPathDrain>&& g);
  void publish_hop(std::size_t pos, std::size_t round, bool flush_open);
  void sample_state(PassResult& out);
  void account_undelivered(PassResult& out) const;

  const Inputs& in_;
  Tracer& tracer_;
  bool faults_on_ = true;

  std::vector<std::optional<collector::ShardedCollector>> collectors_;
  std::unique_ptr<dissem::ReceiptStore> store_;
  std::vector<std::optional<dissem::FaultyTransport>> transports_;
  std::vector<std::optional<dissem::WireExporter>> exporters_;
  std::vector<core::IncrementalPathVerifier> verifiers_;
  std::vector<std::optional<dissem::WireImporter>> importers_;
  std::vector<std::unique_ptr<dissem::FetchClient>> clients_;
  dissem::FetchClient::Stats fetch_stats_;
  std::vector<std::vector<core::RoundGap>> raw_gaps_;

  /// What a lying HOP's rewrite reads: the previous HOP's published groups
  /// of the current round, by path index (prev), while the liar's own
  /// published groups are captured for a colluding successor (cur).
  std::vector<std::optional<core::PathDrain>> published_prev_;
  std::vector<std::optional<core::PathDrain>> published_cur_;

  // Round bookkeeping (indices: pos, round; round == rounds is the
  // closing flush_open drain).  Envelope sequence range of each published
  // round; unpublished rounds read UINT64_MAX so last_seq_ stays sorted.
  std::vector<std::vector<std::uint64_t>> first_seq_, last_seq_;
  std::vector<std::vector<std::uint8_t>> published_;  ///< [pos][r*paths+p]
  std::vector<std::vector<std::uint8_t>> ingested_;   ///< [pos][r*paths+p]
  std::vector<std::uint8_t> hops_in_;  ///< [r*paths+p]: HOPs ingested
  std::vector<std::int64_t> close_ns_;  ///< round close times
  std::vector<double> freshness_ms_;
  std::uint64_t groups_ingested_ = 0;
  std::uint64_t ingested_twice_ = 0;
  std::uint64_t sample_records_ = 0;
  std::uint64_t aggregates_ = 0;
  std::vector<std::vector<std::uint64_t>> wire_packets_;
};

}  // namespace perfbench

#endif  // VPM_PERFBENCH_PIPELINE_HPP
