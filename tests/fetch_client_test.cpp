// FetchClient's error branches, driven by hand-sealed payloads: envelopes
// with a valid MAC whose chunk framing a well-formed producer never
// emits.  The fault soak cannot reach these — FaultyTransport damage dies
// at the MAC check, and its runs end on a clean round — so each test
// here pins one branch with an exact gap.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/receipt_batch.hpp"
#include "dissem/envelope.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "net/wire.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

constexpr dissem::DomainKey kKey = 0xFE7C4;
constexpr dissem::DomainId kProducer = 5;

net::PathId test_path() {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  id.previous_hop = 1;
  id.next_hop = 3;
  return id;
}

core::SampleReceipt valid_samples() {
  core::SampleReceipt r;
  r.path = test_path();
  r.sample_threshold = 1000;
  r.marker_threshold = 2000;
  for (std::uint32_t i = 0; i < 4; ++i) {
    r.samples.push_back(core::SampleRecord{
        .pkt_id = i + 1,
        .time = net::Timestamp{} + net::microseconds(50 * i),
        .is_marker = i == 3});
  }
  return r;
}

/// One chunk section; `declared` overrides the length field.
struct Section {
  std::uint8_t kind = dissem::kRoundMarkKind;
  std::uint64_t key = 0;
  std::vector<std::byte> body;
  std::optional<std::uint32_t> declared;
};

std::vector<std::byte> chunk(const std::vector<Section>& sections,
                             std::uint8_t tag = dissem::kChunkTag) {
  net::ByteWriter w;
  w.u8(tag);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.u8(s.kind);
    w.u64(s.key);
    w.u32(s.declared.value_or(static_cast<std::uint32_t>(s.body.size())));
    w.bytes(s.body);
  }
  return std::move(w).take();
}

const Section kRoundMark{};

class FetchClientBranches : public ::testing::Test {
 protected:
  FetchClientBranches() : importer_({test_path()}) {
    store_.register_producer(kProducer, kKey);
    store_.register_consumer("c");
  }

  void publish(std::uint64_t seq, std::vector<std::byte> payload) {
    ASSERT_EQ(store_.ingest(dissem::seal(kProducer, seq, std::move(payload),
                                         kKey)),
              dissem::IngestResult::kAccepted);
  }

  dissem::FetchClient& client() {
    if (!client_) {
      dissem::FetchClient::Config cfg;
      cfg.consumer = "c";
      cfg.producer = kProducer;
      cfg.producer_name = "P";
      cfg.hop = 2;
      cfg.gap_patience_polls = 3;
      client_ = std::make_unique<dissem::FetchClient>(
          importer_, store_, cfg,
          [this](std::vector<core::IndexedPathDrain>&& groups) {
            for (core::IndexedPathDrain& g : groups) {
              delivered_.push_back(std::move(g));
            }
          },
          [this](core::RoundGap&& gap) { gaps_.push_back(std::move(gap)); });
    }
    return *client_;
  }

  [[nodiscard]] std::uint64_t key() const {
    return importer_.path_at(0).path_key();
  }

  dissem::WireImporter importer_;
  dissem::ReceiptStore store_;
  std::unique_ptr<dissem::FetchClient> client_;
  std::vector<core::IndexedPathDrain> delivered_;
  std::vector<core::RoundGap> gaps_;
};

// A section declaring more bytes than the payload carries fails the
// transient (truncated-fetch) tier forever: the store serves the whole
// stored payload every time.  Retrying it without bound stalled the
// consumer silently — no gap, no ack, no GC.  It must close as a corrupt
// gap once patience runs out, and the stream must resume behind it.
TEST_F(FetchClientBranches, PersistentlyShortPayloadClosesAsCorruptGap) {
  publish(1, chunk({Section{.kind = dissem::kSampleSectionKind,
                            .key = key(),
                            .body = std::vector<std::byte>(8),
                            .declared = 64}}));
  for (std::uint64_t seq = 2; seq <= 6; ++seq) {
    publish(seq, chunk({kRoundMark}));
  }

  for (int i = 0; i < 1000; ++i) client().poll();
  client().finalize();

  const dissem::FetchClient::Stats& s = client().stats();
  EXPECT_EQ(s.transient_retries, 3u) << "retries are bounded by patience";
  EXPECT_EQ(s.envelopes_fed, 5u);
  ASSERT_EQ(gaps_.size(), 1u);
  EXPECT_EQ(gaps_[0].cause, core::RoundGap::Cause::kCorrupt);
  EXPECT_EQ(gaps_[0].first_sequence, 1u);
  // The round mark that ends the resync walk is consumed by it.
  EXPECT_EQ(gaps_[0].last_sequence, 2u);
  EXPECT_EQ(gaps_[0].producer, "P");
  EXPECT_EQ(gaps_[0].hop, 2u);
  EXPECT_EQ(store_.consumer_lag("c", kProducer), 0u);
  EXPECT_EQ(store_.stored_envelopes(), 0u) << "the store never collected";
}

// finalize() never retries a transient payload: no more polls are coming.
TEST_F(FetchClientBranches, FinalizeSpendsNoPatienceOnShortPayload) {
  publish(1, chunk({Section{.kind = dissem::kSampleSectionKind,
                            .key = key(),
                            .body = {},
                            .declared = 16}}));
  client().finalize();
  EXPECT_EQ(client().stats().transient_retries, 0u);
  ASSERT_EQ(gaps_.size(), 1u);
  EXPECT_EQ(gaps_[0].cause, core::RoundGap::Cause::kCorrupt);
  EXPECT_EQ(gaps_[0].first_sequence, 1u);
  EXPECT_EQ(gaps_[0].last_sequence, 1u);
}

// Sequence 2 never arrives and the stream ends while the resync walk is
// still hunting a round mark (sequence 3 carries none): finalize() must
// close the gap over everything consumed, naming the skipped path.
TEST_F(FetchClientBranches, FinalizeClosesGapWhenStreamEndsMidResync) {
  publish(1, chunk({kRoundMark}));
  publish(3, chunk({Section{.kind = dissem::kSampleSectionKind,
                            .key = key(),
                            .body = std::vector<std::byte>(4),
                            .declared = {}}}));

  client().poll();  // feeds 1, then waits on the hole inside patience
  EXPECT_TRUE(gaps_.empty());
  client().finalize();

  ASSERT_EQ(gaps_.size(), 1u);
  EXPECT_EQ(gaps_[0].cause, core::RoundGap::Cause::kLost);
  EXPECT_EQ(gaps_[0].first_sequence, 2u);
  EXPECT_EQ(gaps_[0].last_sequence, 3u);
  EXPECT_EQ(gaps_[0].affected_paths, std::vector<std::uint64_t>{key()});
  EXPECT_FALSE(client().gap_open());
  EXPECT_EQ(client().stats().gaps_reported, 1u);
  EXPECT_TRUE(delivered_.empty());
}

// A payload whose framing defeats both the decode and the resync skip
// walk (a foreign chunk tag) is swallowed whole into the gap; the next
// round mark resyncs and the following round delivers normally.
TEST_F(FetchClientBranches, UnwalkableFramingIsSwallowedIntoTheGap) {
  const core::SampleReceipt samples = valid_samples();
  net::ByteWriter body;
  core::encode_sample_batch(samples, body);

  publish(1, chunk({}, /*tag=*/0x00));
  publish(2, chunk({kRoundMark}));
  publish(3, chunk({Section{.kind = dissem::kSampleSectionKind,
                            .key = key(),
                            .body = std::move(body).take(),
                            .declared = {}},
                    kRoundMark}));

  client().poll();

  EXPECT_EQ(client().stats().fatal_errors, 2u)
      << "the decode and the skip walk both fail";
  ASSERT_EQ(gaps_.size(), 1u);
  EXPECT_EQ(gaps_[0].cause, core::RoundGap::Cause::kCorrupt);
  EXPECT_EQ(gaps_[0].first_sequence, 1u);
  EXPECT_EQ(gaps_[0].last_sequence, 2u);
  EXPECT_TRUE(gaps_[0].affected_paths.empty());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].path, 0u);
  EXPECT_EQ(delivered_[0].drain.samples, samples);
  EXPECT_EQ(store_.consumer_lag("c", kProducer), 0u);
}

}  // namespace
}  // namespace vpm
