// OVH-P — measures the data-plane cost per packet of the collector module
// with google-benchmark, grounding the §7.1 processing claim ("three
// memory accesses, one hash function, and one timestamp computation per
// packet ... within the capabilities of modern hardware").
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/aggregator.hpp"
#include "core/config.hpp"
#include "core/sampler.hpp"
#include "experiment.hpp"
#include "net/digest.hpp"
#include "net/simd_dispatch.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

const std::vector<net::Packet>& shared_trace() {
  static const std::vector<net::Packet> trace = [] {
    trace::TraceConfig cfg;
    cfg.prefixes = trace::default_prefix_pair();
    cfg.packets_per_second = 100'000;
    cfg.duration = net::seconds(2);
    cfg.seed = 7;
    return trace::generate_trace(cfg);
  }();
  return trace;
}

core::ProtocolParams protocol() {
  core::ProtocolParams p;
  p.marker_rate = 1e-3;
  return p;
}

void BM_Digest(benchmark::State& state) {
  const auto& trace = shared_trace();
  const net::DigestEngine engine;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.packet_id(trace[i]));
    if (++i == trace.size()) i = 0;  // avoid a division per packet
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Digest);

// One hash pass producing all three role values — the data-plane digest
// step after the single-hash refactor.  Compare against BM_Digest: the
// seeded avalanche finalizers should cost a few cycles, not a re-hash.
void BM_Decide(benchmark::State& state) {
  const auto& trace = shared_trace();
  const net::DigestEngine engine;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(trace[i]));
    if (++i == trace.size()) i = 0;  // avoid a division per packet
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decide);

void BM_SamplerObserve(benchmark::State& state) {
  const auto& trace = shared_trace();
  const auto params = protocol();
  const net::DigestEngine engine = params.make_engine();
  core::DelaySampler sampler(
      engine, params.marker_threshold(),
      core::sample_threshold_for(params, 0.01));
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.observe(trace[i], trace[i].origin_time);
    if (++i == trace.size()) i = 0;  // avoid a division per packet
    if (i == 0) (void)sampler.take_samples();  // drain, stay bounded
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerObserve);

void BM_AggregatorObserve(benchmark::State& state) {
  const auto& trace = shared_trace();
  const auto params = protocol();
  const net::DigestEngine engine = params.make_engine();
  core::Aggregator agg(engine, core::cut_threshold_for(1e-5),
                       params.reorder_window_j);
  // Keep observation time monotone across trace replays: a backwards time
  // jump would freeze the J-window drain and grow the recent buffer to the
  // whole trace, measuring an artifact instead of the steady state.
  net::Duration offset{0};
  std::size_t i = 0;
  for (auto _ : state) {
    agg.observe(trace[i], trace[i].origin_time + offset);
    if (++i == trace.size()) i = 0;  // avoid a division per packet
    if (i == 0) {
      (void)agg.take_closed();
      offset += net::seconds(2);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggregatorObserve);

void BM_FullCollectorObserve(benchmark::State& state) {
  const auto paths_n = static_cast<std::size_t>(state.range(0));
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths_n;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 3;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  collector::MonitoringCache cache(ccfg, multi.paths);

  net::Duration offset{0};
  std::size_t i = 0;
  for (auto _ : state) {
    cache.observe(multi.packets[i], multi.packets[i].origin_time + offset);
    if (++i == multi.packets.size()) i = 0;
    if (i == 0) {
      state.PauseTiming();
      for (std::size_t p = 0; p < multi.paths.size(); ++p) {
        (void)cache.collect_samples(p);
        (void)cache.collect_aggregates(p);
      }
      offset += net::seconds(1);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullCollectorObserve)->Arg(1)->Arg(100)->Arg(10000);

// Cache-wide packet rate through the batch entry point: classify, digest
// and dispatch in one tight loop (flat-table classifier, one hash/packet,
// cost counters in registers).
void BM_CacheObserveBatch(benchmark::State& state) {
  const auto paths_n = static_cast<std::size_t>(state.range(0));
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths_n;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 3;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  collector::MonitoringCache cache(ccfg, multi.paths);

  // Reused timestamp span, shifted each replay to keep local time monotone
  // (see BM_AggregatorObserve).
  std::vector<net::Timestamp> when(multi.packets.size());
  net::Duration offset{0};
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < multi.packets.size(); ++k) {
      when[k] = multi.packets[k].origin_time + offset;
    }
    offset += net::seconds(1);
    state.ResumeTiming();

    cache.observe_batch(multi.packets, when);

    state.PauseTiming();
    for (std::size_t p = 0; p < multi.paths.size(); ++p) {
      (void)cache.collect_samples(p);
      (void)cache.collect_aggregates(p);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(multi.packets.size()));
}
BENCHMARK(BM_CacheObserveBatch)->Arg(1)->Arg(100)->Arg(10000);

// Path-count sweep over a uniformly random path mix: the cache-resident
// (1k paths) vs pointer-chase (100k paths) regime of the §7.1 monitoring
// cache.  The workload is synthesized directly (same /24 path enumeration
// as trace::generate_multi_path, splitmix64-mixed headers) so that the
// 100k-path case costs milliseconds to set up, not minutes.  Reports
// ns/packet (items processed) and the modeled hot-state bytes per path.
struct SweepWorkload {
  std::vector<net::PrefixPair> paths;
  std::vector<net::Packet> packets;
  std::vector<net::Timestamp> when;
};

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const SweepWorkload& sweep_workload(std::size_t paths_n) {
  static std::map<std::size_t, SweepWorkload> cache;
  auto it = cache.find(paths_n);
  if (it != cache.end()) return it->second;

  SweepWorkload w;
  w.paths.reserve(paths_n);
  for (std::size_t k = 0; k < paths_n; ++k) {
    const auto a = static_cast<std::uint8_t>((k >> 8) & 0xFF);
    const auto b = static_cast<std::uint8_t>(k & 0xFF);
    const auto c = static_cast<std::uint8_t>(100 + ((k >> 16) & 0x3F));
    w.paths.push_back(net::PrefixPair{
        .source = net::Prefix{net::Ipv4Address{10, a, b, 0}, 24},
        .destination = net::Prefix{net::Ipv4Address{c, a, b, 0}, 24},
    });
  }

  constexpr std::size_t kPackets = 1u << 20;
  w.packets.reserve(kPackets);
  w.when.reserve(kPackets);
  std::uint64_t rng = 0x5EEDBA5Eull + paths_n;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::size_t k = splitmix64(rng) % paths_n;  // uniform path mix
    const std::uint64_t r = splitmix64(rng);
    const auto a = static_cast<std::uint8_t>((k >> 8) & 0xFF);
    const auto b = static_cast<std::uint8_t>(k & 0xFF);
    const auto c = static_cast<std::uint8_t>(100 + ((k >> 16) & 0x3F));
    net::Packet p;
    p.header.src = net::Ipv4Address{10, a, b, static_cast<std::uint8_t>(r)};
    p.header.dst =
        net::Ipv4Address{c, a, b, static_cast<std::uint8_t>(r >> 8)};
    p.header.src_port = static_cast<std::uint16_t>(r >> 16);
    p.header.dst_port = static_cast<std::uint16_t>(r >> 32);
    p.header.ip_id = static_cast<std::uint16_t>(r >> 48);
    p.header.total_length = 400;
    p.payload_prefix = splitmix64(rng);
    p.sequence = i;
    // 1 us inter-arrival: ~1 Mpps aggregate, ~1 s span per replay.
    p.origin_time = net::Timestamp{} + net::microseconds(
                                           static_cast<std::int64_t>(i));
    w.packets.push_back(p);
    w.when.push_back(p.origin_time);
  }
  return cache.emplace(paths_n, std::move(w)).first->second;
}

void sweep_body(benchmark::State& state,
                const collector::MonitoringCache::Config& ccfg,
                const SweepWorkload& w) {
  collector::MonitoringCache cache(ccfg, w.paths);

  // Shift the replayed timestamps each iteration to keep local time
  // monotone (see BM_AggregatorObserve).
  std::vector<net::Timestamp> when = w.when;
  net::Duration offset{0};
  for (auto _ : state) {
    cache.observe_batch(w.packets, when);

    state.PauseTiming();
    offset += net::seconds(2);
    for (std::size_t k = 0; k < when.size(); ++k) {
      when[k] = w.packets[k].origin_time + offset;
    }
    for (std::size_t p = 0; p < w.paths.size(); ++p) {
      (void)cache.collect_samples(p);
      (void)cache.collect_aggregates(p);
    }
    state.ResumeTiming();
  }
  const std::int64_t packets =
      state.iterations() * static_cast<std::int64_t>(w.packets.size());
  state.SetItemsProcessed(packets);
  state.counters["B/path"] = static_cast<double>(cache.modeled_cache_bytes()) /
                             static_cast<double>(w.paths.size());
  state.counters["hashes/pkt"] =
      static_cast<double>(cache.ops().hash_computations) /
      static_cast<double>(packets);
  state.counters["buf_peak"] =
      static_cast<double>(cache.temp_buffer_peak_records());
  // Buffered volume, the sweep's real working set: observation-log
  // records still retained after the last replay, at 12 B each.
  state.counters["log_records"] = static_cast<double>(cache.log_records());
  state.counters["log_bytes_per_record"] =
      static_cast<double>(collector::MonitoringCache::log_bytes_per_record());
}

// The deployable configuration: the time-keyed marker rule keeps every
// path's temp buffer bounded (one forced sweep per path per trace replay
// at this age), so the steady state measures the protocol, not unbounded
// buffer growth.  This is the headline 100k-path number BENCH_fastpath.json
// records for the roadmap's optimization curve — and it is deliberately
// REGISTERED BEFORE the unbounded variant: that one grows a multi-GB
// arena whose heap wreckage would otherwise pollute whatever runs after
// it in the same process.
void BM_CacheObservePathSweepBounded(benchmark::State& state) {
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol();
  ccfg.protocol.marker_max_age = net::milliseconds(1500);
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  sweep_body(state, ccfg,
             sweep_workload(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_CacheObservePathSweepBounded)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// Unbounded variant (marker_max_age off).  NON-STATIONARY at high path
// counts by construction — temp buffers grow for the whole run, so its
// reported ns/pkt depends on how long the benchmark runs.  Kept for the
// growth-pathology contrast (buf_peak counter), not as a perf record.
void BM_CacheObservePathSweep(benchmark::State& state) {
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  sweep_body(state, ccfg,
             sweep_workload(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_CacheObservePathSweep)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// The per-packet classify step in isolation (flat table vs the former
// std::unordered_map lookup).
void BM_Classify(benchmark::State& state) {
  const auto paths_n = static_cast<std::size_t>(state.range(0));
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths_n;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 3;
  const auto multi = trace::generate_multi_path(mcfg);
  const collector::PathClassifier classifier(multi.paths);

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(multi.packets[i].header));
    if (++i == multi.packets.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Classify)->Arg(100)->Arg(10000);

// The batch classify under the SIMD dispatch shim (8-wide multiply-hash
// phase A + prefetched probes): compare against BM_Classify for the
// per-packet win of batching alone, and run under VPM_SIMD=scalar for the
// vectorization share.
void BM_ClassifySimd(benchmark::State& state) {
  const auto paths_n = static_cast<std::size_t>(state.range(0));
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths_n;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 3;
  const auto multi = trace::generate_multi_path(mcfg);
  const collector::PathClassifier classifier(multi.paths);

  std::vector<std::uint32_t> out(multi.packets.size());
  for (auto _ : state) {
    classifier.classify_batch(multi.packets.data(), multi.packets.size(),
                              out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(multi.packets.size()));
}
BENCHMARK(BM_ClassifySimd)->Arg(100)->Arg(10000);

// The batch digest under the dispatch shim (8-wide lookup3): compare
// against BM_Decide (scalar one-at-a-time) for the SIMD win on the pure
// hash stage.
void BM_DigestBatch8(benchmark::State& state) {
  const auto& trace = shared_trace();
  const net::DigestEngine engine;
  std::vector<net::PacketDecisions> out(trace.size());
  for (auto _ : state) {
    engine.decide_batch(trace.data(), nullptr, trace.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DigestBatch8);

}  // namespace

int main(int argc, char** argv) {
  return vpm::bench::run_benchmarks_with_json(argc, argv, "fastpath",
                                              "BENCH_fastpath.json");
}
