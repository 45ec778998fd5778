// Fleet snapshot manifest (DESIGN.md §15): the compaction point for the
// per-shard journals. One text file — same hex-float + crc32-footer
// discipline as the .ldm checkpoints — recording, atomically:
//
//   - per shard, the WAL sequence boundary: every journal record in a
//     segment below it is reflected in this manifest, so recovery replays
//     only segments >= the boundary;
//   - per tenant, the serving state that is not derivable from the model
//     checkpoint: registry membership, published version / retrain count,
//     the absolute observation count, the EWMA/drift baseline MAPE, the
//     last-fit step, whether a model checkpoint exists, and the full capped
//     history tail as exact hex doubles (bit-identical forecasts need
//     bit-identical history).
//
// Written via core::save_file_durable (write-temp + fsync + rename +
// `.prev`), loaded via core::load_file_durable (the quarantine-and-fall-back
// load_checkpoint uses). A missing manifest is a cold start, not an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ld::wal {

struct TenantState {
  std::string name;
  std::uint64_t version = 0;
  std::uint64_t observations = 0;   ///< absolute step count
  std::uint64_t retrains = 0;
  double baseline_mape = 0.0;
  std::uint64_t last_fit_step = 0;
  bool has_model = false;           ///< a .ldm checkpoint existed at capture
  std::vector<double> history;      ///< capped tail, bit-exact
};

struct Manifest {
  /// Per-shard replay start: segments with seq >= shard_wal_seq[i] postdate
  /// this manifest. Size must equal the service's shard count; a manifest
  /// written under a different shard count is rejected at load (workload →
  /// shard placement changes with the count, so the boundaries are
  /// meaningless).
  std::vector<std::uint64_t> shard_wal_seq;
  std::vector<TenantState> tenants;
};

/// Render/parse the manifest text format (exposed for tests and fuzzing).
[[nodiscard]] std::string render_manifest(const Manifest& manifest);
[[nodiscard]] Manifest parse_manifest(const std::string& content);

/// Atomic durable write to `path` (+ `.prev` of any previous manifest).
/// Checks the `snapshot.write` fault site. Throws on I/O failure.
void save_manifest(const Manifest& manifest, const std::string& path);

/// Strict single-file load. Throws on any format/CRC problem.
[[nodiscard]] Manifest load_manifest_file(const std::string& path);

/// Fault-tolerant load: try `path`; quarantine a corrupt file (bumping
/// ld_wal_manifest_quarantined_total) and fall back to `<path>.prev`.
/// Throws only when a manifest exists but no readable copy remains.
[[nodiscard]] Manifest load_manifest(const std::string& path,
                                     std::string* loaded_from = nullptr);

/// The manifest's location under a WAL root directory.
[[nodiscard]] std::string manifest_path(const std::string& wal_dir);

}  // namespace ld::wal
