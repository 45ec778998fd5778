// Durability layer (DESIGN.md §15): the WAL record codec (round-trip,
// torn tails, corruption), the per-shard journal (rotation, replay,
// quarantine, compaction), the snapshot manifest (bit-exact render/parse,
// durable save + `.prev` fallback), and PredictionService recovery end to
// end — including a real kill -9: the WalCrash test forks a child process
// that ingests under `--wal-fsync always` semantics and SIGKILLs itself
// mid-traffic, then recovers the wreckage and asserts bit-identical
// forecasts. The TSan CI job runs this file ("Wal" is in its filter): the
// parallel per-shard replay genuinely overlaps on the shared pool.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hpp"
#include "fault/injector.hpp"
#include "serving/protocol.hpp"
#include "serving/service.hpp"
#include "test_util.hpp"
#include "wal/journal.hpp"
#include "wal/record.hpp"
#include "wal/snapshot.hpp"

namespace {

using namespace ld;
namespace fs = std::filesystem;

std::shared_ptr<core::TrainedModel> quick_model(std::span<const double> series,
                                                std::uint64_t seed = 7) {
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 6;
  const core::Hyperparameters hp{.history_length = 12, .cell_size = 8, .num_layers = 1,
                                 .batch_size = 32};
  const std::size_t n_train = series.size() * 3 / 4;
  return std::make_shared<core::TrainedModel>(series.subspan(0, n_train),
                                              series.subspan(n_train), hp, training, seed);
}

serving::ServiceConfig quick_service(std::size_t shards = 1) {
  serving::ServiceConfig cfg;
  cfg.shards = shards;
  cfg.background_retrain = false;  // deterministic versions/retrain counts
  cfg.adaptive.base.space = core::HyperparameterSpace::reduced();
  cfg.adaptive.base.space.history_max = 16;
  cfg.adaptive.base.space.cell_max = 12;
  cfg.adaptive.base.space.layers_max = 1;
  cfg.adaptive.base.training.trainer.max_epochs = 3;
  cfg.adaptive.refresh_candidates = 1;
  cfg.adaptive.retrain_history_cap = 120;
  cfg.adaptive.drift.monitor_window = 16;
  return cfg;
}

/// Slurp a file as raw bytes.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream slurp;
  slurp << in.rdbuf();
  return slurp.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Values whose bit patterns a decimal round trip could destroy.
const std::vector<double> kExactValues = {120.5, -0.0, 1e-308,
                                          std::nextafter(1.0, 2.0), 98.25};

// ---------------------------------------------------------------------------
// WalRecord: the codec alone, no files.

TEST(WalRecord, RoundTripAllTypes) {
  std::string bytes;
  wal::append_register(bytes, "wiki");
  wal::append_observe(bytes, "az-vm-2017", 12345, kExactValues);
  wal::append_promote(bytes, "gcd-job", 42);

  std::string_view rest = bytes;
  wal::Decoded reg = wal::decode_record(rest);
  ASSERT_EQ(reg.status, wal::DecodeStatus::kRecord);
  EXPECT_EQ(reg.record.type, wal::RecordType::kRegister);
  EXPECT_EQ(reg.record.name, "wiki");
  rest.remove_prefix(reg.consumed);

  wal::Decoded obs = wal::decode_record(rest);
  ASSERT_EQ(obs.status, wal::DecodeStatus::kRecord);
  EXPECT_EQ(obs.record.type, wal::RecordType::kObserve);
  EXPECT_EQ(obs.record.name, "az-vm-2017");
  EXPECT_EQ(obs.record.first_step, 12345u);
  ASSERT_EQ(obs.record.values.size(), kExactValues.size());
  for (std::size_t i = 0; i < kExactValues.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(obs.record.values[i]),
              std::bit_cast<std::uint64_t>(kExactValues[i]))
        << "value " << i << " changed bits through the journal";
  rest.remove_prefix(obs.consumed);

  wal::Decoded promote = wal::decode_record(rest);
  ASSERT_EQ(promote.status, wal::DecodeStatus::kRecord);
  EXPECT_EQ(promote.record.type, wal::RecordType::kPromote);
  EXPECT_EQ(promote.record.name, "gcd-job");
  EXPECT_EQ(promote.record.version, 42u);
  EXPECT_EQ(promote.consumed, rest.size()) << "trailing bytes after the last record";
}

TEST(WalRecord, NanPayloadBitsSurvive) {
  // A NaN with a deliberate payload: the WAL must not canonicalize it.
  const double weird_nan = std::bit_cast<double>(0x7FF800000000BEEFULL);
  std::string bytes;
  wal::append_observe(bytes, "w", 0, {weird_nan});
  const wal::Decoded d = wal::decode_record(bytes);
  ASSERT_EQ(d.status, wal::DecodeStatus::kRecord);
  ASSERT_EQ(d.record.values.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.record.values[0]), 0x7FF800000000BEEFULL);
}

TEST(WalRecord, EveryPrefixIsATornTailNotAnError) {
  std::string bytes;
  wal::append_observe(bytes, "wiki", 7, {1.5, 2.5});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const wal::Decoded d = wal::decode_record(std::string_view(bytes).substr(0, cut));
    EXPECT_EQ(d.status, wal::DecodeStatus::kNeedMore)
        << "a " << cut << "-byte prefix is what a crash leaves — never corrupt";
  }
}

TEST(WalRecord, AnyFlippedByteIsDetected) {
  std::string bytes;
  wal::append_observe(bytes, "wiki", 7, {1.5, 2.5});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    const wal::Decoded d = wal::decode_record(corrupt);
    EXPECT_NE(d.status, wal::DecodeStatus::kRecord)
        << "byte " << i << " flipped yet the record decoded";
  }
}

TEST(WalRecord, HostileHeaderFieldsAreBadNotAllocations) {
  // Unknown type.
  std::string unknown;
  unknown.push_back(static_cast<char>(wal::kRecordMagic));
  unknown.push_back(static_cast<char>(9));
  unknown.append(4, '\0');
  EXPECT_EQ(wal::decode_record(unknown).status, wal::DecodeStatus::kBad);
  // A 2 GiB length claim must be rejected immediately, not buffered for.
  std::string oversized;
  oversized.push_back(static_cast<char>(wal::kRecordMagic));
  oversized.push_back(static_cast<char>(wal::RecordType::kObserve));
  for (const char c : {'\xff', '\xff', '\xff', '\x7f'}) oversized.push_back(c);
  const wal::Decoded d = wal::decode_record(oversized);
  EXPECT_EQ(d.status, wal::DecodeStatus::kBad);
  EXPECT_FALSE(d.error.empty());
  // Not a record stream at all.
  EXPECT_EQ(wal::decode_record("PREDICT wiki 4\n").status, wal::DecodeStatus::kBad);
}

TEST(WalRecord, ReplayBufferTruncatesAtFirstBadCrc) {
  std::string clean;
  wal::append_register(clean, "a");
  wal::append_observe(clean, "a", 0, {1.0, 2.0});
  wal::append_promote(clean, "a", 3);
  std::size_t seen = 0;
  const wal::BufferReplay all =
      wal::replay_buffer(clean, [&](const wal::Record&) { ++seen; });
  EXPECT_EQ(all.records, 3u);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(all.consumed, clean.size());
  EXPECT_FALSE(all.torn);
  EXPECT_FALSE(all.bad);

  // Torn tail: the clean prefix replays, the partial record is cut.
  std::string torn = clean.substr(0, clean.size() - 3);
  const wal::BufferReplay cut = wal::replay_buffer(torn, [](const wal::Record&) {});
  EXPECT_EQ(cut.records, 2u);
  EXPECT_TRUE(cut.torn);
  EXPECT_FALSE(cut.bad);

  // Corruption in the middle record stops replay there — records after the
  // hole cannot be ordered safely.
  std::string bad = clean;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0xFF);
  const wal::BufferReplay stopped = wal::replay_buffer(bad, [](const wal::Record&) {});
  EXPECT_TRUE(stopped.bad);
  EXPECT_LT(stopped.records, 3u);
  EXPECT_FALSE(stopped.error.empty());
}

// ---------------------------------------------------------------------------
// WalJournal: segments on disk.

wal::WalConfig tiny_segments(const std::string& dir) {
  wal::WalConfig config;
  config.dir = dir;
  config.fsync = wal::Fsync::kNever;  // tests care about bytes, not power loss
  config.segment_bytes = 64;          // force rotation every record or two
  return config;
}

TEST(WalJournal, AppendRotateReplayRoundTrip) {
  testutil::ScopedTempDir tmp("wal_journal");
  const wal::WalConfig config = tiny_segments(tmp.path().string());
  wal::Journal journal(tmp.file("shard-0"), config);
  for (int i = 0; i < 5; ++i) {
    std::string rec;
    wal::append_observe(rec, "wiki", static_cast<std::uint64_t>(i), {100.0 + i});
    journal.append(rec);
  }
  EXPECT_GT(journal.segment_count(), 1u) << "64-byte segments must have rotated";

  std::vector<std::uint64_t> steps;
  const wal::ReplayStats stats = journal.replay(
      0, [&](const wal::Record& rec) { steps.push_back(rec.first_step); });
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.torn_segments, 0u);
  EXPECT_EQ(stats.quarantined_segments, 0u);
  ASSERT_EQ(steps.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_EQ(steps[i], i) << "replay order must match append order";
}

TEST(WalJournal, RestartStartsAFreshSegment) {
  testutil::ScopedTempDir tmp("wal_fresh");
  const wal::WalConfig config = tiny_segments(tmp.path().string());
  std::uint64_t first_seq = 0;
  {
    wal::Journal journal(tmp.file("shard-0"), config);
    std::string rec;
    wal::append_register(rec, "wiki");
    journal.append(rec);
    first_seq = journal.active_seq();
  }
  // A pre-existing segment's tail may be torn; appending to it would bury
  // new records behind the truncation point.
  wal::Journal reopened(tmp.file("shard-0"), config);
  EXPECT_GT(reopened.active_seq(), first_seq);
  std::string rec;
  wal::append_register(rec, "gcd-job");
  reopened.append(rec);
  std::size_t records = 0;
  (void)reopened.replay(0, [&](const wal::Record&) { ++records; });
  EXPECT_EQ(records, 2u) << "both generations must replay";
}

TEST(WalJournal, TornTailKeepsCleanPrefix) {
  testutil::ScopedTempDir tmp("wal_torn");
  wal::WalConfig config = tiny_segments(tmp.path().string());
  config.segment_bytes = 1u << 20;  // keep everything in one segment
  const std::string dir = tmp.file("shard-0");
  std::string segment_path;
  {
    wal::Journal journal(dir, config);
    std::string rec;
    wal::append_observe(rec, "wiki", 0, {1.0, 2.0});
    journal.append(rec);
    segment_path = (fs::path(dir) / "wal-00000001.log").string();
  }
  // Simulate a crash mid-append: half a record at the tail.
  std::string partial;
  wal::append_observe(partial, "wiki", 2, {3.0, 4.0});
  std::ofstream(segment_path, std::ios::binary | std::ios::app)
      << partial.substr(0, partial.size() / 2);

  wal::Journal reopened(dir, config);
  std::size_t records = 0;
  const wal::ReplayStats stats = reopened.replay(0, [&](const wal::Record&) { ++records; });
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(stats.torn_segments, 1u);
  EXPECT_EQ(stats.quarantined_segments, 0u);
  EXPECT_TRUE(fs::exists(segment_path)) << "torn segments stay until compaction";
}

TEST(WalJournal, CorruptSegmentIsQuarantinedAndStopsReplay) {
  testutil::ScopedTempDir tmp("wal_quarantine");
  const wal::WalConfig config = tiny_segments(tmp.path().string());
  const std::string dir = tmp.file("shard-0");
  {
    wal::Journal journal(dir, config);
    for (int i = 0; i < 4; ++i) {
      std::string rec;
      wal::append_observe(rec, "wiki", static_cast<std::uint64_t>(i), {100.0 + i});
      journal.append(rec);
    }
  }
  // Bit-rot the first segment inside its FIRST record, so nothing in the
  // file (or any later segment) may be applied.
  const std::string first = (fs::path(dir) / "wal-00000001.log").string();
  std::string bytes = read_file(first);
  ASSERT_GT(bytes.size(), 10u);
  bytes[10] = static_cast<char>(bytes[10] ^ 0xFF);
  write_file(first, bytes);

  wal::Journal reopened(dir, config);
  std::size_t records = 0;
  const wal::ReplayStats stats = reopened.replay(0, [&](const wal::Record&) { ++records; });
  EXPECT_EQ(stats.quarantined_segments, 1u);
  EXPECT_EQ(records, 0u)
      << "records after a quarantined segment cannot be ordered, so replay stops";
  EXPECT_FALSE(fs::exists(first));
  EXPECT_TRUE(fs::exists(first + ".quarantine")) << "the evidence is kept for inspection";
}

TEST(WalJournal, RotateBoundaryCompactsOnlyBelow) {
  testutil::ScopedTempDir tmp("wal_compact");
  wal::WalConfig config = tiny_segments(tmp.path().string());
  config.segment_bytes = 1u << 20;
  wal::Journal journal(tmp.file("shard-0"), config);
  std::string rec;
  wal::append_register(rec, "wiki");
  journal.append(rec);
  const std::uint64_t boundary = journal.rotate();
  journal.append(rec);  // lands in the post-boundary segment
  EXPECT_EQ(journal.segment_count(), 2u);
  journal.remove_segments_below(boundary);
  EXPECT_EQ(journal.segment_count(), 1u);
  std::size_t records = 0;
  (void)journal.replay(boundary, [&](const wal::Record&) { ++records; });
  EXPECT_EQ(records, 1u) << "the post-boundary record must survive compaction";
}

// ---------------------------------------------------------------------------
// WalSnapshot: the manifest format.

wal::Manifest sample_manifest() {
  wal::Manifest manifest;
  manifest.shard_wal_seq = {3, 1};
  wal::TenantState t;
  t.name = "az-vm-2017";
  t.version = 4;
  t.observations = 100;
  t.retrains = 3;
  t.baseline_mape = 6.74041e-2;
  t.last_fit_step = 96;
  t.has_model = true;
  t.history = kExactValues;
  manifest.tenants.push_back(t);
  wal::TenantState cold;
  cold.name = "wiki";
  cold.observations = 2;
  cold.history = {1.0, 2.0};
  manifest.tenants.push_back(cold);
  return manifest;
}

TEST(WalSnapshot, RenderParseRoundTripIsBitExact) {
  const wal::Manifest manifest = sample_manifest();
  const wal::Manifest parsed = wal::parse_manifest(wal::render_manifest(manifest));
  EXPECT_EQ(parsed.shard_wal_seq, manifest.shard_wal_seq);
  ASSERT_EQ(parsed.tenants.size(), manifest.tenants.size());
  for (std::size_t i = 0; i < manifest.tenants.size(); ++i) {
    const wal::TenantState& a = manifest.tenants[i];
    const wal::TenantState& b = parsed.tenants[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.version, a.version);
    EXPECT_EQ(b.observations, a.observations);
    EXPECT_EQ(b.retrains, a.retrains);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.baseline_mape),
              std::bit_cast<std::uint64_t>(a.baseline_mape));
    EXPECT_EQ(b.last_fit_step, a.last_fit_step);
    EXPECT_EQ(b.has_model, a.has_model);
    ASSERT_EQ(b.history.size(), a.history.size());
    for (std::size_t k = 0; k < a.history.size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.history[k]),
                std::bit_cast<std::uint64_t>(a.history[k]))
          << "history[" << k << "] of " << a.name << " changed bits";
  }
}

TEST(WalSnapshot, TamperedManifestIsRejected) {
  std::string text = wal::render_manifest(sample_manifest());
  EXPECT_THROW((void)wal::parse_manifest(text.substr(0, text.size() / 2)),
               std::runtime_error);
  const std::size_t at = text.find("observations 100");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 16, "observations 999");
  EXPECT_THROW((void)wal::parse_manifest(text), std::runtime_error)
      << "edited body with a stale CRC must not parse";
}

TEST(WalSnapshot, DuplicateTenantIsRejected) {
  // write_snapshot captures each shard's registry snapshot once per tenant,
  // so a repeated name can only be corruption or a hand edit — replaying it
  // would apply one tenant's history twice. Re-render (not byte-patch) so
  // the CRC is valid and the rejection is provably the semantic check.
  wal::Manifest manifest = sample_manifest();
  manifest.tenants.push_back(manifest.tenants.front());
  EXPECT_THROW((void)wal::parse_manifest(wal::render_manifest(manifest)),
               std::runtime_error);
}

TEST(WalSnapshot, CorruptFileFallsBackToPrev) {
  log::set_level(log::Level::kError);
  testutil::ScopedTempDir tmp("wal_manifest");
  const std::string path = tmp.file("snapshot.manifest");
  wal::Manifest first = sample_manifest();
  wal::save_manifest(first, path);
  wal::Manifest second = first;
  second.tenants[0].observations = 150;
  second.tenants[0].history.push_back(5.5);
  wal::save_manifest(second, path);
  ASSERT_TRUE(fs::exists(path + ".prev")) << "the durable write must keep a fallback";

  // Clean load sees the newest snapshot.
  std::string loaded_from;
  EXPECT_EQ(wal::load_manifest(path, &loaded_from).tenants[0].observations, 150u);
  EXPECT_EQ(loaded_from, path);

  // Corrupt the primary: quarantine + fall back to `.prev`.
  write_file(path, "loaddynamics-snapshot garbage\n");
  const wal::Manifest recovered = wal::load_manifest(path, &loaded_from);
  EXPECT_EQ(recovered.tenants[0].observations, 100u);
  EXPECT_EQ(loaded_from, path + ".prev");
  EXPECT_TRUE(fs::exists(path + ".quarantine"));
  log::set_level(log::Level::kInfo);
}

// ---------------------------------------------------------------------------
// WalService: PredictionService recovery end to end.

class WalServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { log::set_level(log::Level::kError); }
  void TearDown() override {
    fault::Injector::instance().reset();
    log::set_level(log::Level::kInfo);
  }

  serving::ServiceConfig durable_config(const testutil::ScopedTempDir& tmp,
                                        std::size_t shards = 1) {
    serving::ServiceConfig cfg = quick_service(shards);
    cfg.wal.dir = tmp.file("wal");
    cfg.wal.fsync = wal::Fsync::kNever;  // process exit, not power loss
    cfg.checkpoint_dir = tmp.file("ckpt");
    return cfg;
  }
};

TEST_F(WalServiceTest, RecoversBitIdenticalFromWalTailAlone) {
  testutil::ScopedTempDir tmp("wal_service");
  const std::vector<double> series = testutil::seasonal_series(96);
  std::vector<double> expected;
  {
    serving::PredictionService service(durable_config(tmp));
    service.publish("web", *quick_model(series));
    service.observe_many("web", series);
    expected = service.predict("web", 4);
    // No snapshot, no drain: the journal (and the model checkpoint) is all
    // that survives this scope.
  }
  serving::PredictionService reborn(durable_config(tmp));
  const serving::RecoveryStats stats = reborn.recover();
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_GE(stats.replayed_records, 2u);  // register + at least one observe
  EXPECT_EQ(stats.replayed_values, series.size());
  EXPECT_EQ(stats.quarantined_segments, 0u);
  EXPECT_EQ(reborn.stats("web").observations, series.size());

  const std::vector<double> after = reborn.predict("web", 4);
  ASSERT_EQ(after.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "forecast[" << i << "] differs after recovery";
}

TEST_F(WalServiceTest, SnapshotCompactsAndRecoversWithoutReplay) {
  testutil::ScopedTempDir tmp("wal_snapshot_svc");
  const serving::ServiceConfig cfg = durable_config(tmp);
  const std::vector<double> series = testutil::seasonal_series(96);
  std::vector<double> expected;
  {
    serving::PredictionService service(cfg);
    service.publish("web", *quick_model(series));
    service.observe_many("web", series);
    expected = service.predict("web", 4);
    const std::string path = service.write_snapshot();
    EXPECT_TRUE(fs::exists(path));
  }
  // Compaction deleted the pre-snapshot segments; only empty post-boundary
  // segments may remain.
  serving::PredictionService reborn(cfg);
  const serving::RecoveryStats stats = reborn.recover();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.tenants, 1u);
  EXPECT_EQ(stats.models, 1u);
  EXPECT_EQ(stats.replayed_records, 0u) << "everything was compacted into the manifest";
  EXPECT_EQ(reborn.stats("web").observations, series.size());
  const std::vector<double> after = reborn.predict("web", 4);
  ASSERT_EQ(after.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after[i]),
              std::bit_cast<std::uint64_t>(expected[i]));
}

TEST_F(WalServiceTest, ReplayIsIdempotentAcrossSnapshotOverlap) {
  // A crash between "manifest durable" and "segments deleted" leaves records
  // the snapshot already covers. Hand-build exactly that wreckage.
  testutil::ScopedTempDir tmp("wal_idempotent");
  serving::ServiceConfig cfg = quick_service(1);
  cfg.wal.dir = tmp.file("wal");
  cfg.wal.fsync = wal::Fsync::kNever;
  {
    wal::Journal journal(tmp.file("wal/shard-0"), cfg.wal);
    std::string rec;
    wal::append_register(rec, "web");
    journal.append(rec);
    rec.clear();
    wal::append_observe(rec, "web", 0, {1.0, 2.0, 3.0});
    journal.append(rec);
    rec.clear();
    wal::append_observe(rec, "web", 0, {1.0, 2.0, 3.0});  // duplicate batch
    journal.append(rec);
    rec.clear();
    wal::append_observe(rec, "web", 3, {4.0});
    journal.append(rec);
  }
  serving::PredictionService service(cfg);
  const serving::RecoveryStats stats = service.recover();
  EXPECT_EQ(stats.replayed_records, 4u);
  EXPECT_EQ(stats.skipped_records, 1u) << "the duplicate batch must be skipped whole";
  EXPECT_EQ(stats.replayed_values, 4u);
  const serving::WorkloadStats web = service.stats("web");
  EXPECT_EQ(web.observations, 4u);
  EXPECT_EQ(web.history_size, 4u) << "duplicates must not double the history";
}

TEST_F(WalServiceTest, WalAppendFaultDegradesDurabilityNotAvailability) {
  testutil::ScopedTempDir tmp("wal_fault");
  serving::PredictionService service(durable_config(tmp));
  const testutil::CounterDelta failures("ld_wal_append_failures_total");
  fault::Injector::instance().configure("wal.append:n=1", /*seed=*/7);
  service.observe("web", 100.0);  // must not throw
  EXPECT_EQ(failures.delta(), 1u)
      << "the armed fault fails exactly one append (the registration record)";
  EXPECT_EQ(service.stats("web").observations, 1u)
      << "the in-memory mutation must proceed despite the journal failure";
}

TEST_F(WalServiceTest, SnapshotWriteFaultKeepsSegments) {
  testutil::ScopedTempDir tmp("wal_snapfault");
  const serving::ServiceConfig cfg = durable_config(tmp);
  serving::PredictionService service(cfg);
  service.observe_many("web", std::vector<double>{1.0, 2.0, 3.0});
  fault::Injector::instance().configure("snapshot.write:n=1", /*seed=*/7);
  EXPECT_THROW((void)service.write_snapshot(), std::runtime_error);
  // No record may be deleted before a manifest covering it is durable: the
  // journaled batch must still replay in a fresh process.
  fault::Injector::instance().reset();
  serving::PredictionService reborn(cfg);
  const serving::RecoveryStats stats = reborn.recover();
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_values, 3u) << "the failed snapshot lost journaled records";
  EXPECT_EQ(reborn.stats("web").observations, 3u);
}

TEST_F(WalServiceTest, ShardedRecoveryReplaysEveryTenant) {
  // Multi-shard: the parallel per-shard replay must restore every tenant
  // (this is the TSan-observed overlap — shard replays share the pool).
  testutil::ScopedTempDir tmp("wal_sharded");
  const serving::ServiceConfig cfg = durable_config(tmp, /*shards=*/4);
  const std::vector<std::string> names = {"wiki", "az-vm-2017", "gcd-job", "web"};
  const std::vector<double> series = testutil::seasonal_series(48);
  {
    serving::PredictionService service(cfg);
    for (const std::string& name : names) service.observe_many(name, series);
  }
  serving::PredictionService reborn(cfg);
  const serving::RecoveryStats stats = reborn.recover();
  EXPECT_EQ(stats.replayed_values, names.size() * series.size());
  for (const std::string& name : names)
    EXPECT_EQ(reborn.stats(name).observations, series.size()) << name;
}

TEST_F(WalServiceTest, ProtocolExposesSnapshotAndRecoveryCounters) {
  testutil::ScopedTempDir tmp("wal_protocol");
  serving::PredictionService service(durable_config(tmp));
  service.observe_many("web", std::vector<double>{1.0, 2.0});
  serving::LineProtocol protocol(service);

  std::ostringstream snap;
  ASSERT_TRUE(protocol.handle("SNAPSHOT", snap));
  EXPECT_EQ(snap.str().rfind("OK snapshot ", 0), 0u) << snap.str();

  std::ostringstream stats;
  ASSERT_TRUE(protocol.handle("STATS", stats));
  std::string last;
  std::istringstream lines(stats.str());
  for (std::string line; std::getline(lines, line);) last = line;
  // The fleet summary keeps its historical prefix and appends the WAL fields.
  EXPECT_EQ(last.rfind("OK stats ", 0), 0u) << last;
  for (const char* key : {" wal_recovered=", " wal_replayed=", " wal_torn=",
                          " wal_quarantined="})
    EXPECT_NE(last.find(key), std::string::npos) << "missing " << key << " in " << last;

  // Without a WAL, SNAPSHOT is an error, and STATS has no WAL fields.
  serving::PredictionService plain(quick_service());
  plain.observe("web", 1.0);
  serving::LineProtocol plain_protocol(plain);
  std::ostringstream err;
  ASSERT_TRUE(plain_protocol.handle("SNAPSHOT", err));
  EXPECT_EQ(err.str().rfind("ERR", 0), 0u) << err.str();
  std::ostringstream plain_stats;
  ASSERT_TRUE(plain_protocol.handle("STATS", plain_stats));
  EXPECT_EQ(plain_stats.str().find("wal_recovered="), std::string::npos);
}

// ---------------------------------------------------------------------------
// WalCrash: a real SIGKILL mid-traffic, recovered in this process.

/// Child half: runs only when re-exec'd by KilledProcessRecoversBitIdentical
/// with LD_WAL_CRASH_DIR set. Ingests durably, then dies without any
/// destructor or flush — the closest a test can get to yanking the cord.
TEST(WalCrashChild, IngestThenSigkillSelf) {
  const char* dir = std::getenv("LD_WAL_CRASH_DIR");
  if (dir == nullptr) GTEST_SKIP() << "parent-driven child test";
  serving::ServiceConfig cfg = quick_service(1);
  cfg.wal.dir = std::string(dir) + "/wal";
  cfg.wal.fsync = wal::Fsync::kAlways;  // survive SIGKILL, not just exit
  cfg.checkpoint_dir = std::string(dir) + "/ckpt";
  serving::PredictionService service(cfg);
  const std::vector<double> series = testutil::seasonal_series(96);
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);
  service.observe_many("web", std::vector<double>{150.0, 151.5, 149.25});
  (void)service.predict("web", 4);
  (void)std::raise(SIGKILL);  // no flush, no snapshot, no destructors
  FAIL() << "SIGKILL did not kill the child";
}

TEST(WalCrash, KilledProcessRecoversBitIdentical) {
  testutil::ScopedTempDir tmp("wal_crash");
  const std::vector<double> series = testutil::seasonal_series(96);
  const std::vector<double> tail = {150.0, 151.5, 149.25};

  // Reference: the same traffic in-process, no crash, no WAL.
  std::vector<double> expected;
  {
    serving::PredictionService reference(quick_service(1));
    reference.publish("web", *quick_model(series));
    reference.observe_many("web", series);
    reference.observe_many("web", tail);
    expected = reference.predict("web", 4);
  }

  // Re-exec this binary as the crash child and let it SIGKILL itself.
  ::setenv("LD_WAL_CRASH_DIR", tmp.path().string().c_str(), 1);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::execl("/proc/self/exe", "wal_test",
            "--gtest_filter=WalCrashChild.IngestThenSigkillSelf", nullptr);
    ::_exit(127);  // exec failed
  }
  ::unsetenv("LD_WAL_CRASH_DIR");
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing: " << status;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Recover the wreckage: the journal tail plus the model checkpoint must
  // reproduce the pre-crash forecast bit for bit.
  serving::ServiceConfig cfg = quick_service(1);
  cfg.wal.dir = tmp.file("wal");
  cfg.wal.fsync = wal::Fsync::kAlways;
  cfg.checkpoint_dir = tmp.file("ckpt");
  serving::PredictionService reborn(cfg);
  const serving::RecoveryStats stats = reborn.recover();
  EXPECT_EQ(stats.replayed_values, series.size() + tail.size());
  EXPECT_EQ(stats.quarantined_segments, 0u);
  EXPECT_EQ(reborn.stats("web").observations, series.size() + tail.size());
  const std::vector<double> after = reborn.predict("web", 4);
  ASSERT_EQ(after.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "forecast[" << i << "] differs after the kill -9 recovery";
}

}  // namespace
