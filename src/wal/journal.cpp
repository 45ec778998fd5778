#include "wal/journal.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"

namespace ld::wal {

namespace {

namespace fs = std::filesystem;

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".log";

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return buf;
}

/// Parse "wal-00000042.log" -> 42; 0 = not a segment file.
std::uint64_t segment_seq(const std::string& filename) {
  const std::size_t prefix = std::strlen(kSegmentPrefix);
  const std::size_t suffix = std::strlen(kSegmentSuffix);
  if (filename.size() <= prefix + suffix) return 0;
  if (filename.compare(0, prefix, kSegmentPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix, suffix, kSegmentSuffix) != 0) return 0;
  const std::string digits = filename.substr(prefix, filename.size() - prefix - suffix);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  try {
    return std::stoull(digits);
  } catch (const std::exception&) {
    return 0;
  }
}

struct Counters {
  obs::Counter* appends;
  obs::Counter* append_failures;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Counter* rotations;
  obs::Counter* replayed_records;
  obs::Counter* torn_segments;
  obs::Counter* quarantined_segments;
};

Counters& counters() {
  static Counters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return Counters{&reg.counter("ld_wal_appends_total"),
                    &reg.counter("ld_wal_append_failures_total"),
                    &reg.counter("ld_wal_bytes_total"),
                    &reg.counter("ld_wal_fsync_total"),
                    &reg.counter("ld_wal_rotations_total"),
                    &reg.counter("ld_wal_replayed_records_total"),
                    &reg.counter("ld_wal_torn_segments_total"),
                    &reg.counter("ld_wal_quarantined_segments_total")};
  }();
  return c;
}

}  // namespace

Fsync parse_fsync(const std::string& name) {
  if (name == "always") return Fsync::kAlways;
  if (name == "interval" || name.empty()) return Fsync::kInterval;
  if (name == "never") return Fsync::kNever;
  throw std::invalid_argument("wal: bad fsync policy '" + name +
                              "' (use always|interval|never)");
}

const char* to_string(Fsync policy) noexcept {
  switch (policy) {
    case Fsync::kAlways: return "always";
    case Fsync::kInterval: return "interval";
    case Fsync::kNever: return "never";
  }
  return "?";
}

Journal::Journal(std::string dir, const WalConfig& config)
    : dir_(std::move(dir)), config_(config) {
  fs::create_directories(dir_);
  // Never append to a pre-existing segment: its tail may be torn, and bytes
  // after a truncation point would be unreachable to replay. Start fresh
  // after the highest sequence on disk.
  std::uint64_t max_seq = 0;
  for (const auto& [seq, path] : segments_locked()) max_seq = std::max(max_seq, seq);
  seq_ = max_seq + 1;
}

Journal::~Journal() {
  std::scoped_lock lock(mu_);
  close_active_locked(/*do_sync=*/config_.fsync != Fsync::kNever);
}

std::vector<std::pair<std::uint64_t, std::string>> Journal::segments_locked() const {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::uint64_t seq = segment_seq(entry.path().filename().string());
    if (seq > 0) out.emplace_back(seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Journal::open_active_locked() {
  if (fd_ >= 0) return;
  const std::string path = (fs::path(dir_) / segment_name(seq_)).string();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0)
    throw std::runtime_error("wal: cannot open segment '" + path + "' (" +
                             std::strerror(errno) + ")");
  active_bytes_ = 0;
  dirty_ = false;
  last_sync_ = steady_seconds();
}

void Journal::close_active_locked(bool do_sync) {
  if (fd_ < 0) return;
  if (do_sync && dirty_) ::fsync(fd_);
  ::close(fd_);
  fd_ = -1;
  dirty_ = false;
}

void Journal::sync_locked() {
  if (fd_ < 0 || !dirty_) return;
  LD_FAULT_POINT("wal.fsync");
  if (::fsync(fd_) != 0)
    throw std::runtime_error(std::string("wal: fsync failed (") + std::strerror(errno) +
                             ")");
  dirty_ = false;
  last_sync_ = steady_seconds();
  counters().fsyncs->inc();
}

void Journal::append(const std::string& encoded) {
  std::scoped_lock lock(mu_);
  LD_FAULT_POINT("wal.append");
  open_active_locked();
  std::size_t written = 0;
  while (written < encoded.size()) {
    const ::ssize_t n = ::write(fd_, encoded.data() + written, encoded.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Counted by the caller (ld_wal_append_failures_total in the service
      // hook) — the journal reports the failure by throwing.
      throw std::runtime_error(std::string("wal: append failed (") + std::strerror(errno) +
                               ")");
    }
    written += static_cast<std::size_t>(n);
  }
  active_bytes_ += encoded.size();
  dirty_ = true;
  counters().appends->inc();
  counters().bytes->inc(encoded.size());

  switch (config_.fsync) {
    case Fsync::kAlways:
      sync_locked();
      break;
    case Fsync::kInterval:
      if (steady_seconds() - last_sync_ >= config_.fsync_interval_seconds) sync_locked();
      break;
    case Fsync::kNever:
      break;
  }

  if (active_bytes_ >= config_.segment_bytes) {
    close_active_locked(/*do_sync=*/config_.fsync != Fsync::kNever);
    ++seq_;
    counters().rotations->inc();
  }
}

void Journal::sync() {
  std::scoped_lock lock(mu_);
  sync_locked();
}

std::uint64_t Journal::rotate() {
  std::scoped_lock lock(mu_);
  // Sync regardless of policy: the snapshot about to be taken claims every
  // record below the boundary is durable-or-superseded, so the segment must
  // actually reach disk before its successor snapshot does.
  if (fd_ >= 0) sync_locked();
  close_active_locked(/*do_sync=*/false);
  ++seq_;
  counters().rotations->inc();
  return seq_;
}

ReplayStats Journal::replay(std::uint64_t from_seq,
                            const std::function<void(const Record&)>& handler) {
  std::scoped_lock lock(mu_);
  ReplayStats stats;
  for (const auto& [seq, path] : segments_locked()) {
    if (seq < from_seq) continue;
    ++stats.segments;
    std::string data;
    {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        log::warn("wal: cannot read segment '", path, "', skipping");
        continue;
      }
      std::ostringstream slurp;
      slurp << in.rdbuf();
      data = slurp.str();
    }
    const BufferReplay r = replay_buffer(data, handler);
    stats.records += r.records;
    counters().replayed_records->inc(r.records);
    if (r.bad) {
      // Corrupt mid-stream: quarantine the file for inspection and stop this
      // shard's replay — records in later segments postdate the corruption
      // and cannot be applied over the hole.
      ++stats.quarantined_segments;
      counters().quarantined_segments->inc();
      std::error_code ec;
      fs::rename(path, path + ".quarantine", ec);
      log::warn("wal: quarantined corrupt segment '", path, "' (", r.error,
                ") after ", r.records, " records");
      break;
    }
    if (r.torn) {
      // The expected crash artifact: a partial record at the tail of the
      // last-written segment. The clean prefix was applied; keep the file —
      // compaction deletes it once the replayed state is re-snapshotted.
      ++stats.torn_segments;
      counters().torn_segments->inc();
      log::info("wal: truncated torn tail of '", path, "' at byte ", r.consumed);
    }
  }
  return stats;
}

void Journal::remove_segments_below(std::uint64_t boundary) {
  std::scoped_lock lock(mu_);
  for (const auto& [seq, path] : segments_locked()) {
    if (seq >= boundary) continue;
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) log::warn("wal: could not remove compacted segment '", path, "'");
  }
}

std::uint64_t Journal::active_seq() const {
  std::scoped_lock lock(mu_);
  return seq_;
}

std::size_t Journal::segment_count() const {
  std::scoped_lock lock(mu_);
  return segments_locked().size();
}

WalManager::WalManager(const WalConfig& config, std::size_t shards) : config_(config) {
  journals_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    journals_.push_back(std::make_unique<Journal>(
        (std::filesystem::path(config.dir) / ("shard-" + std::to_string(i))).string(),
        config));
}

void WalManager::sync_all() {
  for (auto& journal : journals_) journal->sync();
}

std::size_t WalManager::total_segments() const {
  std::size_t total = 0;
  for (const auto& journal : journals_) total += journal->segment_count();
  return total;
}

}  // namespace ld::wal
