#include "pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "adversary/strategies.hpp"
#include "dissem/segment_store.hpp"
#include "loss/bernoulli.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/path_run.hpp"
#include "sim/scenario_common.hpp"
#include "trace/synthetic_trace.hpp"

namespace perfbench {
namespace {

// The same producer key run_scenario uses: envelopes are byte-identical.
constexpr dissem::DomainKey kKey = 0x5CE7A110;
constexpr const char* kConsumer = "fleet";

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::size_t transit_index(const sim::ScenarioConfig& cfg,
                          const std::string& name) {
  for (std::size_t d = 1; d + 1 < cfg.domains.size(); ++d) {
    if (cfg.domains[d] == name) return d;
  }
  throw std::invalid_argument("'" + name + "' is not a transit domain");
}

void reject_unmodelled(const sim::ScenarioConfig& cfg) {
  const auto no = [](bool bad, const char* what) {
    if (bad) {
      throw std::invalid_argument(std::string("pipeline bench: ") + what +
                                  " is not modelled");
    }
  };
  no(cfg.domains.size() < 3, "a chain without a transit domain");
  no(cfg.paths == 0 || cfg.rounds == 0, "an empty run");
  no(cfg.loss == sim::LossKind::kCongestion, "congestion loss");
  no(cfg.link_down.duration_rounds != 0, "link_down");
  no(cfg.route_flap.duration_rounds != 0, "route_flap");
  no(cfg.ttl_rounds != 0, "ttl_rounds");
  no(cfg.shards != 1, "sharding");
  no(cfg.fed_domains != 0, "federation");
  no(cfg.faults.delay_rate > 0.0 &&
         cfg.gap_patience_polls < cfg.faults.max_delay_ticks,
     "gap patience below the fault delay");
}

/// One observation waiting for its per-HOP round bucket: the sort key
/// and the packet's index in the path-grouped trace.
struct MergedObs {
  std::int64_t when_ns;
  std::uint64_t sequence;
  std::size_t packet;
};

/// A competent liar publishes well-formed receipts (run_scenario's rule).
void clamp_monotone(core::SampleReceipt& r) {
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    if (r.samples[i].time < r.samples[i - 1].time) {
      r.samples[i].time = r.samples[i - 1].time;
    }
  }
}

}  // namespace

Inputs build_inputs(const sim::ScenarioConfig& cfg) {
  reject_unmodelled(cfg);
  Inputs in;
  in.cfg = cfg;
  const std::size_t n_domains = cfg.domains.size();
  const std::size_t n_hops = 2 * (n_domains - 1);
  const std::int64_t round_ns = cfg.round_length.nanoseconds();
  in.layout.hops.resize(n_hops);
  in.layout.domain_of.resize(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    in.layout.hops[pos] = static_cast<net::HopId>(pos + 1);
    in.layout.domain_of[pos] = cfg.domains[(pos + 1) / 2];
  }
  in.transit_domains.assign(cfg.domains.begin() + 1, cfg.domains.end() - 1);

  in.adversary_at.assign(n_hops, sim::AdversaryKind::kHonest);
  for (const sim::ScenarioAdversary& a : cfg.adversaries) {
    const std::size_t d = transit_index(cfg, a.domain);
    const std::size_t pos = a.kind == sim::AdversaryKind::kCoverUpstream
                                ? sim::PathEnvironment::ingress_hop(d)
                                : sim::PathEnvironment::egress_hop(d);
    if (in.adversary_at[pos] != sim::AdversaryKind::kHonest) {
      throw std::invalid_argument("two adversaries on one HOP");
    }
    in.adversary_at[pos] = a.kind;
  }
  const std::size_t loss_d =
      cfg.loss == sim::LossKind::kNone
          ? 0
          : (cfg.loss_domain.empty() ? 1
                                     : transit_index(cfg, cfg.loss_domain));
  const std::size_t jitter_d =
      cfg.jitter_domain.empty() ? 0 : transit_index(cfg, cfg.jitter_domain);

  // --- trace synthesis ----------------------------------------------------
  std::int64_t t0 = now_ns();
  trace::MultiPathTrace multi = trace::generate_multi_path(
      sim::scenario::multi_path_config(cfg.paths, cfg.zipf_s,
                                       cfg.packets_per_second,
                                       cfg.round_length, cfg.rounds,
                                       cfg.seed));
  in.paths = multi.paths;
  in.trace_s = seconds_since(t0);

  // --- propagation: one linear pass groups packets by path, then each
  // path runs through the chain with run_scenario's per-path seeds --------
  t0 = now_ns();
  std::int64_t bucket_ns = 0;
  std::vector<std::size_t> path_begin(cfg.paths + 1, 0);
  for (const std::uint32_t p : multi.path_of) ++path_begin[p + 1];
  for (std::size_t p = 0; p < cfg.paths; ++p) {
    path_begin[p + 1] += path_begin[p];
  }
  std::vector<net::Packet> by_path(multi.packets.size());
  {
    std::vector<std::size_t> fill(path_begin.begin(), path_begin.end() - 1);
    for (std::size_t i = 0; i < multi.packets.size(); ++i) {
      net::Packet p = multi.packets[i];
      p.origin_time = sim::scenario::quantize_us(p.origin_time);
      by_path[fill[multi.path_of[i]]++] = p;
    }
  }
  multi = trace::MultiPathTrace{};

  in.truth.assign(cfg.paths,
                  std::vector<sim::DomainTruth>(in.transit_domains.size()));
  in.observed.assign(n_hops, std::vector<std::uint64_t>(cfg.paths, 0));
  std::vector<std::vector<std::vector<MergedObs>>> buckets(
      n_hops, std::vector<std::vector<MergedObs>>(cfg.rounds));
  for (std::size_t p = 0; p < cfg.paths; ++p) {
    const std::span<const net::Packet> path_trace(
        by_path.data() + path_begin[p], path_begin[p + 1] - path_begin[p]);
    sim::PathEnvironment env;
    env.seed = sim::scenario::mix(cfg.seed ^ (0x9E3779B97F4A7C15ull + p));
    env.domains.resize(n_domains);
    env.links.resize(n_domains - 1);
    for (std::size_t d = 1; d + 1 < n_domains; ++d) {
      env.domains[d].delay_of = [delay = cfg.domain_delay](sim::PacketIndex) {
        return delay;
      };
    }
    if (jitter_d != 0) env.domains[jitter_d].jitter = cfg.jitter;
    std::unique_ptr<loss::LossModel> loss_model;
    if (cfg.loss == sim::LossKind::kBernoulli) {
      loss_model = std::make_unique<loss::BernoulliLoss>(
          cfg.loss_rate, sim::scenario::mix(cfg.seed ^ (0xB10Bull + p)));
    } else if (cfg.loss == sim::LossKind::kGilbertElliott) {
      loss_model = std::make_unique<loss::GilbertElliott>(
          loss::GilbertElliott::with_target_loss(
              cfg.loss_rate, cfg.loss_burst,
              sim::scenario::mix(cfg.seed ^ (0x6EB0ull + p))));
    }
    if (loss_model) env.domains[loss_d].loss = loss_model.get();
    for (std::size_t l = 0; l + 1 < n_domains; ++l) {
      env.links[l].delay = cfg.link_delay;
    }

    const sim::PathRunResult run = sim::run_path(path_trace, env);
    for (std::size_t d = 1; d + 1 < n_domains; ++d) {
      in.truth[p][d - 1].offered =
          run.hop_observations[sim::PathEnvironment::ingress_hop(d)].size();
      in.truth[p][d - 1].delivered =
          run.hop_observations[sim::PathEnvironment::egress_hop(d)].size();
    }
    const std::int64_t b0 = now_ns();
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      in.observed[pos][p] = run.hop_observations[pos].size();
      in.observations += run.hop_observations[pos].size();
      for (const sim::Obs& o : run.hop_observations[pos]) {
        // Bucket by observation time, stragglers folded into the last
        // round -- run_scenario's rule.
        const net::Timestamp when = sim::scenario::quantize_us(o.when);
        const std::size_t r = std::min<std::size_t>(
            cfg.rounds - 1,
            static_cast<std::size_t>(when.nanoseconds() / round_ns));
        buckets[pos][r].push_back(
            MergedObs{.when_ns = when.nanoseconds(),
                      .sequence = path_trace[o.pkt].sequence,
                      .packet = path_begin[p] + o.pkt});
      }
    }
    bucket_ns += now_ns() - b0;
  }
  in.propagate_s = seconds_since(t0) - static_cast<double>(bucket_ns) * 1e-9;

  // --- per-HOP round buckets in local-clock order --------------------------
  t0 = now_ns();
  in.packets.assign(n_hops, std::vector<std::vector<net::Packet>>(cfg.rounds));
  in.when.assign(n_hops, std::vector<std::vector<net::Timestamp>>(cfg.rounds));
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    for (std::size_t r = 0; r < cfg.rounds; ++r) {
      std::vector<MergedObs>& bucket = buckets[pos][r];
      std::sort(bucket.begin(), bucket.end(),
                [](const MergedObs& a, const MergedObs& b) {
                  if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
                  return a.sequence < b.sequence;
                });
      std::vector<net::Packet>& packets = in.packets[pos][r];
      std::vector<net::Timestamp>& when = in.when[pos][r];
      packets.reserve(bucket.size());
      when.reserve(bucket.size());
      for (const MergedObs& o : bucket) {
        packets.push_back(by_path[o.packet]);
        when.push_back(net::Timestamp{o.when_ns});
      }
      bucket = {};
    }
  }
  by_path = {};
  in.bucket_s = seconds_since(t0) + static_cast<double>(bucket_ns) * 1e-9;

  in.hop_cfg.resize(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    collector::MonitoringCache::Config c;
    c.protocol.digest_mode = cfg.digest_mode;
    c.protocol.marker_rate = cfg.marker_rate;
    c.protocol.marker_max_age = cfg.marker_max_age;
    c.tuning = cfg.tuning;
    c.self = in.layout.hops[pos];
    c.previous_hop = pos == 0 ? net::kNoHop : in.layout.hops[pos - 1];
    c.next_hop = pos + 1 == n_hops ? net::kNoHop : in.layout.hops[pos + 1];
    c.max_diff = cfg.max_diff;
    in.hop_cfg[pos] = c;
  }
  return in;
}

// ---------------------------------------------------------------- sinks

/// Streams one HOP's drain into its exporter, timing each exporter call
/// as a dissem.export span, and records which (path, round) groups were
/// published.  With `capture`, it also keeps a copy of each published
/// group for the next HOP's lying rewrite.
class Pipeline::DrainSink final : public core::ReceiptSink {
 public:
  DrainSink(Pipeline& p, std::size_t pos, std::size_t round, bool capture,
            bool count_receipts)
      : p_(p),
        exporter_(*p.exporters_[pos]),
        published_(p.published_[pos]),
        base_(round * p.in_.paths.size()),
        capture_(capture),
        count_(count_receipts) {}

  void begin_path(std::size_t index, const net::PathId& id) override {
    if (published_[base_ + index] != 0) {
      throw std::logic_error("a path drained twice in one round");
    }
    published_[base_ + index] = 1;
    path_ = index;
    if (capture_) p_.published_cur_[index].emplace();
    Scope s(p_.tracer_, SpanName::kExport);
    exporter_.begin_path(index, id);
  }
  void on_samples(core::SampleReceipt samples) override {
    if (count_) p_.sample_records_ += samples.samples.size();
    if (capture_) {
      Scope s(p_.tracer_, SpanName::kGlue);
      p_.published_cur_[path_]->samples = samples;
    }
    Scope s(p_.tracer_, SpanName::kExport);
    exporter_.on_samples(std::move(samples));
  }
  void on_aggregate(core::AggregateReceipt aggregate) override {
    if (count_) ++p_.aggregates_;
    if (capture_) {
      Scope s(p_.tracer_, SpanName::kGlue);
      p_.published_cur_[path_]->aggregates.push_back(aggregate);
    }
    Scope s(p_.tracer_, SpanName::kExport);
    exporter_.on_aggregate(std::move(aggregate));
  }
  void end_path() override {
    Scope s(p_.tracer_, SpanName::kExport);
    exporter_.end_path();
  }

 private:
  Pipeline& p_;
  dissem::WireExporter& exporter_;
  std::vector<std::uint8_t>& published_;
  std::size_t base_;
  bool capture_;
  bool count_;
  std::size_t path_ = 0;
};

/// Holds a lying HOP's truthful drain until the rewrite.
class Pipeline::CaptureSink final : public core::ReceiptSink {
 public:
  explicit CaptureSink(Pipeline& p) : p_(p) {}

  void begin_path(std::size_t index, const net::PathId&) override {
    groups.push_back(core::IndexedPathDrain{.path = index, .drain = {}});
  }
  void on_samples(core::SampleReceipt samples) override {
    p_.sample_records_ += samples.samples.size();
    groups.back().drain.samples = std::move(samples);
  }
  void on_aggregate(core::AggregateReceipt aggregate) override {
    ++p_.aggregates_;
    groups.back().drain.aggregates.push_back(std::move(aggregate));
  }
  void end_path() override {}

  std::vector<core::IndexedPathDrain> groups;

 private:
  Pipeline& p_;
};

// ------------------------------------------------------------- pipeline

Pipeline::Pipeline(const Inputs& in, const std::filesystem::path& store_dir,
                   Tracer& tracer)
    : in_(in), tracer_(tracer) {
  const std::size_t n_hops = in.hops();
  const std::size_t n_paths = in.paths.size();
  const std::size_t n_rounds = in.rounds() + 1;  // + the closing drain

  collectors_ =
      std::vector<std::optional<collector::ShardedCollector>>(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    collector::ShardedCollector::Config scfg;
    scfg.cache = in.hop_cfg[pos];
    scfg.shard_count = 1;
    collectors_[pos].emplace(scfg, in.paths);
  }

  store_ = store_dir.empty()
               ? std::make_unique<dissem::ReceiptStore>()
               : std::make_unique<dissem::ReceiptStore>(
                     dissem::make_segment_storage(
                         dissem::SegmentStoreConfig{.directory = store_dir}));
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    store_->register_producer(in.layout.hops[pos], kKey);
  }
  store_->register_consumer(kConsumer);

  transports_ = std::vector<std::optional<dissem::FaultyTransport>>(n_hops);
  exporters_ = std::vector<std::optional<dissem::WireExporter>>(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    transports_[pos].emplace(in.cfg.faults, in.cfg.fault_seed + pos,
                             [this](dissem::Envelope&& e) {
                               Scope s(tracer_, SpanName::kStore);
                               (void)store_->ingest(std::move(e));
                             });
    exporters_[pos].emplace(
        dissem::WireExporter::Config{.producer = in.layout.hops[pos],
                                     .key = kKey,
                                     .max_chunk_bytes =
                                         in.cfg.max_chunk_bytes},
        [this, pos](dissem::Envelope&& e) {
          if (faults_on_) {
            Scope s(tracer_, SpanName::kTransport);
            transports_[pos]->send(std::move(e));
          } else {
            Scope s(tracer_, SpanName::kStore);
            (void)store_->ingest(std::move(e));
          }
        });
  }

  const core::IncrementalPathVerifier::Config vcfg{
      .layout = in.layout,
      .retain_rounds = in.rounds() + 16,
      .margin_boundaries = 2,
  };
  verifiers_.reserve(n_paths);
  for (std::size_t p = 0; p < n_paths; ++p) verifiers_.emplace_back(vcfg);

  importers_ = std::vector<std::optional<dissem::WireImporter>>(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    importers_[pos].emplace(
        sim::scenario::path_table(in.hop_cfg[pos], in.paths));
  }
  raw_gaps_.resize(n_hops);
  clients_.resize(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) build_client(pos);

  published_prev_.resize(n_paths);
  published_cur_.resize(n_paths);
  constexpr std::uint64_t kUnpublished = ~std::uint64_t{0};
  first_seq_.assign(n_hops, std::vector<std::uint64_t>(n_rounds, kUnpublished));
  last_seq_.assign(n_hops, std::vector<std::uint64_t>(n_rounds, kUnpublished));
  published_.assign(n_hops, std::vector<std::uint8_t>(n_rounds * n_paths, 0));
  ingested_.assign(n_hops, std::vector<std::uint8_t>(n_rounds * n_paths, 0));
  hops_in_.assign(n_rounds * n_paths, 0);
  close_ns_.assign(in.rounds(), 0);
  wire_packets_.assign(n_hops, std::vector<std::uint64_t>(n_paths, 0));
}

void Pipeline::build_client(std::size_t pos) {
  dissem::FetchClient::Config ccfg;
  ccfg.consumer = kConsumer;
  ccfg.producer = in_.layout.hops[pos];
  ccfg.producer_name = in_.layout.domain_of[pos];
  ccfg.hop = in_.layout.hops[pos];
  ccfg.gap_patience_polls = in_.cfg.gap_patience_polls;
  ccfg.seed = in_.cfg.seed ^ (0xC11E57ull + pos);
  clients_[pos] = std::make_unique<dissem::FetchClient>(
      *importers_[pos], *store_, ccfg,
      [this, pos](std::vector<core::IndexedPathDrain>&& groups) {
        on_rounds(pos, std::move(groups));
      },
      [this, pos](core::RoundGap&& gap) {
        raw_gaps_[pos].push_back(std::move(gap));
      });
}

void Pipeline::retire_client(std::size_t pos) {
  sim::scenario::add_stats(fetch_stats_, clients_[pos]->stats());
  clients_[pos].reset();
}

void Pipeline::on_rounds(std::size_t pos,
                         std::vector<core::IndexedPathDrain>&& groups) {
  const std::size_t n_paths = in_.paths.size();
  const std::size_t n_hops = in_.hops();
  // A delivery ends at a round mark, i.e. at the last envelope of some
  // published round; earlier groups in it belong to earlier rounds (a
  // round's paths ascend, so a non-ascending step is a round boundary).
  std::vector<std::size_t> round_of(groups.size());
  {
    Scope s(tracer_, SpanName::kGlue);
    const std::vector<std::uint64_t>& last = last_seq_[pos];
    const std::uint64_t fed = clients_[pos]->last_fed();
    const auto it = std::lower_bound(last.begin(), last.end(), fed);
    if (it == last.end() || *it != fed) {
      throw std::logic_error("a delivery that does not end a round");
    }
    std::size_t r = static_cast<std::size_t>(it - last.begin());
    for (std::size_t i = groups.size(); i-- > 0;) {
      if (i + 1 < groups.size() && groups[i].path >= groups[i + 1].path) {
        if (r == 0) throw std::logic_error("a delivery before round 0");
        --r;
      }
      round_of[i] = r;
      for (const core::AggregateReceipt& a : groups[i].drain.aggregates) {
        wire_packets_[pos][groups[i].path] += a.packet_count;
      }
    }
  }
  const net::HopId hop = in_.layout.hops[pos];
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const std::size_t path = groups[i].path;
    {
      Scope s(tracer_, SpanName::kAddRound);
      verifiers_[path].add_round(hop, std::move(groups[i].drain));
    }
    const std::size_t r = round_of[i];
    const std::size_t cell = r * n_paths + path;
    if (ingested_[pos][cell] != 0) {
      ++ingested_twice_;
      continue;
    }
    ingested_[pos][cell] = 1;
    ++groups_ingested_;
    if (++hops_in_[cell] == n_hops && r < in_.rounds()) {
      freshness_ms_.push_back(static_cast<double>(now_ns() - close_ns_[r]) *
                              1e-6);
    }
  }
}

void Pipeline::publish_hop(std::size_t pos, std::size_t round,
                           bool flush_open) {
  const std::size_t n_hops = in_.hops();
  const sim::AdversaryKind lie = in_.adversary_at[pos];
  const bool feeds_liar = pos + 1 < n_hops &&
                          in_.adversary_at[pos + 1] !=
                              sim::AdversaryKind::kHonest;
  dissem::WireExporter& exporter = *exporters_[pos];
  first_seq_[pos][round] = exporter.next_sequence();
  if (feeds_liar) {
    Scope s(tracer_, SpanName::kGlue);
    for (auto& g : published_cur_) g.reset();
  }

  if (lie == sim::AdversaryKind::kHonest) {
    DrainSink sink(*this, pos, round, feeds_liar, /*count_receipts=*/true);
    Scope s(tracer_, SpanName::kDrain);
    collectors_[pos]->drain(sink, flush_open);
  } else {
    CaptureSink truthful(*this);
    {
      Scope s(tracer_, SpanName::kDrain);
      collectors_[pos]->drain(truthful, flush_open);
    }
    DrainSink sink(*this, pos, round, feeds_liar, /*count_receipts=*/false);
    const sim::ScenarioConfig& cfg = in_.cfg;
    for (core::IndexedPathDrain& g : truthful.groups) {
      {
        Scope s(tracer_, SpanName::kAdversary);
        const std::optional<core::PathDrain>& up = published_prev_[g.path];
        switch (lie) {
          case sim::AdversaryKind::kHideLoss:
            if (!up) break;
            g.drain.samples = adversary::hide_loss_samples(
                g.drain.samples, up->samples, cfg.fake_delay);
            clamp_monotone(g.drain.samples);
            g.drain.aggregates = adversary::hide_loss_aggregates(
                g.drain.aggregates, up->aggregates);
            break;
          case sim::AdversaryKind::kUnderstateDelay:
            g.drain.samples =
                adversary::understate_delay(g.drain.samples, cfg.shave);
            break;
          case sim::AdversaryKind::kCoverUpstream:
            if (!up) break;
            g.drain.samples = adversary::cover_neighbor_samples(
                g.drain.samples, up->samples, cfg.link_delay);
            clamp_monotone(g.drain.samples);
            g.drain.aggregates = adversary::cover_neighbor_aggregates(
                g.drain.aggregates, up->aggregates, cfg.link_delay);
            break;
          case sim::AdversaryKind::kHonest:
            break;
        }
      }
      core::emit_drain(sink, g.path, std::move(g.drain));
    }
  }
  if (feeds_liar) std::swap(published_prev_, published_cur_);

  {
    Scope s(tracer_, SpanName::kExport);
    if (flush_open) {
      exporter.finish();
    } else {
      exporter.end_round();
      exporter.flush();
    }
  }
  if (faults_on_) {
    Scope s(tracer_, SpanName::kTransport);
    transports_[pos]->tick();
  }
  last_seq_[pos][round] = exporter.next_sequence() - 1;
}

void Pipeline::sample_state(PassResult& out) {
  Scope s(tracer_, SpanName::kGlue);
  std::size_t total = 0;
  for (const auto& c : collectors_) {
    const std::size_t bytes = c->arena_bytes();
    out.hop_arena_peak = std::max(out.hop_arena_peak, bytes);
    total += bytes;
  }
  out.total_arena_peak = std::max(out.total_arena_peak, total);
}

PassResult Pipeline::run() {
  const std::size_t n_hops = in_.hops();
  const std::size_t n_rounds = in_.rounds();
  const sim::ScenarioConfig& cfg = in_.cfg;
  PassResult out;

  const std::int64_t t_start = now_ns();
  const std::uint32_t root =
      tracer_.enabled() ? tracer_.open(SpanName::kPass) : 0;
  for (std::size_t r = 0; r < n_rounds; ++r) {
    tracer_.set_round(static_cast<std::uint32_t>(r));
    if (cfg.crash_every_rounds != 0 && r != 0 &&
        r % cfg.crash_every_rounds == 0) {
      Scope s(tracer_, SpanName::kFetch);
      for (std::size_t pos = 0; pos < n_hops; ++pos) {
        retire_client(pos);
        build_client(pos);
        ++out.outcome.client_rebuilds;
      }
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      {
        Scope s(tracer_, SpanName::kObserve);
        collectors_[pos]->observe_batch(in_.packets[pos][r],
                                        in_.when[pos][r]);
      }
      if (pos + 1 == n_hops) close_ns_[r] = now_ns();
      sample_state(out);
      publish_hop(pos, r, /*flush_open=*/false);
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      Scope s(tracer_, SpanName::kFetch);
      clients_[pos]->poll();
    }
    Scope s(tracer_, SpanName::kGlue);
    out.store_disk_peak =
        std::max(out.store_disk_peak, store_->storage_stats().bytes_on_disk);
    if (tracer_.enabled()) {
      std::size_t pending = 0;
      for (const core::IncrementalPathVerifier& v : verifiers_) {
        const auto st = v.resident_stats();
        pending += st.pending_ingress_samples + st.pending_egress_samples;
      }
      out.pending_samples_peak = std::max(out.pending_samples_peak, pending);
    }
  }

  // The clean closing drain: tail losses surface only once something
  // arrives behind them, so the final flush_open round ships on a perfect
  // wire and the consumers settle.
  tracer_.set_round(static_cast<std::uint32_t>(n_rounds));
  {
    Scope s(tracer_, SpanName::kTransport);
    for (auto& t : transports_) t->flush();
  }
  faults_on_ = false;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    publish_hop(pos, n_rounds, /*flush_open=*/true);
  }
  const std::size_t settle = cfg.gap_patience_polls + 16;
  for (std::size_t i = 0; i < settle; ++i) {
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      Scope s(tracer_, SpanName::kFetch);
      clients_[pos]->poll();
    }
  }
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    Scope s(tracer_, SpanName::kFetch);
    clients_[pos]->finalize();
    retire_client(pos);
  }

  sim::ScenarioOutcome& o = out.outcome;
  {
    Scope s(tracer_, SpanName::kGlue);
    o.gaps.resize(n_hops);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      o.gaps[pos] = sim::scenario::dedupe_gaps(std::move(raw_gaps_[pos]));
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> index_of_key;
  for (std::size_t p = 0; p < in_.paths.size(); ++p) {
    index_of_key[importers_[0]->path_at(p).path_key()] = p;
  }
  for (const std::vector<core::RoundGap>& per_hop : o.gaps) {
    for (const core::RoundGap& g : per_hop) {
      for (const std::uint64_t key : g.affected_paths) {
        const auto it = index_of_key.find(key);
        if (it == index_of_key.end()) continue;
        Scope s(tracer_, SpanName::kReportGap);
        verifiers_[it->second].report_gap(g);
      }
    }
  }
  o.analysis.reserve(verifiers_.size());
  for (const core::IncrementalPathVerifier& v : verifiers_) {
    Scope s(tracer_, SpanName::kAnalyze);
    o.analysis.push_back(v.analyze());
  }
  out.timed_s = seconds_since(t_start);
  if (root != 0) tracer_.close(root);

  // --- untimed: what the pass did, in run_scenario's outcome shape --------
  o.layout = in_.layout;
  o.transit_domains = in_.transit_domains;
  o.repro = cfg.to_string();
  o.truth = in_.truth;
  o.observed_packets = in_.observed;
  o.wire_packets = std::move(wire_packets_);
  for (const core::IncrementalPathVerifier& v : verifiers_) {
    o.expired_unmatched += v.resident_stats().expired_unmatched;
  }
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    o.consumer_lag_end.push_back(
        store_->consumer_lag(kConsumer, in_.layout.hops[pos]));
    out.consumer_lag_end += o.consumer_lag_end.back();
    const dissem::FaultStats& ts = transports_[pos]->stats();
    o.envelopes_destroyed += ts.dropped + ts.corrupted;
    o.envelopes_duplicated += ts.duplicated;
    out.faults.offered += ts.offered;
    out.faults.delivered += ts.delivered;
    out.faults.dropped += ts.dropped;
    out.faults.corrupted += ts.corrupted;
    out.faults.duplicated += ts.duplicated;
    out.faults.reordered += ts.reordered;
    out.faults.delayed += ts.delayed;
    const dissem::WireExporter::Stats& es = exporters_[pos]->stats();
    out.envelopes += es.chunks;
    out.envelope_bytes += es.envelope_bytes;
    out.payload_bytes += es.payload_bytes;
    out.ops += collectors_[pos]->ops();
    out.unknown_path_packets += collectors_[pos]->unknown_path_packets();
  }
  o.store_envelopes_end = store_->stored_envelopes();
  o.store_rejected = store_->rejected_count();
  o.store_gc_erased = store_->gc_erased_count();
  o.ack_rejections = fetch_stats_.ack_rejections;
  o.gaps_reported = fetch_stats_.gaps_reported;
  o.groups_delivered = fetch_stats_.groups_delivered;
  out.store_accepted = store_->accepted_count();
  out.store_rejected = store_->rejected_count();
  out.store_disk_peak =
      std::max(out.store_disk_peak, store_->storage_stats().bytes_on_disk);
  out.fetch = fetch_stats_;
  out.sample_records = sample_records_;
  out.aggregates = aggregates_;
  out.freshness_ms = std::move(freshness_ms_);
  out.groups_ingested = groups_ingested_;
  out.groups_ingested_twice = ingested_twice_;
  account_undelivered(out);
  return out;
}

void Pipeline::account_undelivered(PassResult& out) const {
  const std::size_t n_paths = in_.paths.size();
  for (std::size_t pos = 0; pos < in_.hops(); ++pos) {
    const std::vector<core::RoundGap>& gaps = out.outcome.gaps[pos];
    for (std::size_t r = 0; r <= in_.rounds(); ++r) {
      for (std::size_t p = 0; p < n_paths; ++p) {
        const std::size_t cell = r * n_paths + p;
        if (published_[pos][cell] == 0) continue;
        ++out.groups_published;
        if (ingested_[pos][cell] != 0) continue;
        const bool in_gap = std::any_of(
            gaps.begin(), gaps.end(), [&](const core::RoundGap& g) {
              return g.first_sequence <= last_seq_[pos][r] &&
                     g.last_sequence >= first_seq_[pos][r];
            });
        ++(in_gap ? out.groups_in_gaps : out.groups_lost_silently);
      }
    }
  }
}

}  // namespace perfbench
