// Model persistence: save a fitted predictor (hyperparameters + scaler +
// network weights) to a portable text format and load it back, so a
// predictor tuned once (the expensive part) can be shipped to the serving
// path — what a production deployment of LoadDynamics would do.
//
// Durability (format v2, see DESIGN.md §10): every file ends in a `crc32`
// footer covering the whole body, verified on load; file saves go through
// write-temp + fsync + atomic rename, keeping the previous snapshot as
// `<path>.prev`; load_checkpoint() quarantines a corrupt file and falls
// back to the previous good one instead of aborting. Version-1 files
// (pre-footer) still load.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/model.hpp"

namespace ld::obs {
class Counter;
}  // namespace ld::obs

namespace ld::core {

/// Serialize a trained model. Format: a small self-describing text header
/// (magic, version, hyperparameters, scaler bounds) followed by the weight
/// values in full hex-float precision (lossless round-trip) and a crc32
/// footer over everything above it.
void save_model(const TrainedModel& model, std::ostream& out);

/// Crash-safe file save: render, write `<path>.tmp`, fsync, atomically
/// rename over `path` — an interrupted save never leaves a torn `path`.
/// An existing `path` is preserved as `<path>.prev` first (the
/// last-known-good fallback for load_checkpoint).
void save_model_file(const TrainedModel& model, const std::string& path);

/// The same write-temp + fsync + rename + `.prev` discipline for arbitrary
/// bytes — shared by checkpoints and the WAL snapshot manifest, so every
/// durable artifact in the system tears (or rather, doesn't) the same way.
/// `fault_site` (when non-null) is an LD_FAULT_POINT checked after the temp
/// write and before the rename: the chaos harness's torn-save window.
void save_file_durable(const std::string& path, const std::string& data,
                       const char* fault_site = nullptr);

/// Deserialize. Throws std::runtime_error on format mismatch, a missing
/// crc32 footer (torn write), or a checksum mismatch (bit corruption).
[[nodiscard]] std::shared_ptr<TrainedModel> load_model(std::istream& in);
[[nodiscard]] std::shared_ptr<TrainedModel> load_model_file(const std::string& path);

/// Fault-tolerant checkpoint load: try `path`; when it is corrupt, move it
/// aside to `<path>.quarantine` (bumping ld_checkpoint_quarantined_total)
/// and fall back to `<path>.prev`. Throws only when no readable snapshot
/// remains. On success `*loaded_from` (when non-null) receives the path
/// actually read.
[[nodiscard]] std::shared_ptr<TrainedModel> load_checkpoint(
    const std::string& path, std::string* loaded_from = nullptr);

/// How load_file_durable names and counts one kind of durable file.
struct DurableKind {
  const char* log_prefix;          ///< starts every log line and the error
  const char* noun;                ///< precedes the quoted path ("manifest ")
  const char* fault_site;          ///< LD_FAULT_POINT before the primary load, or nullptr
  obs::Counter& (*quarantined)();  ///< bumped per file moved aside
};

/// The load side of save_file_durable, shared by checkpoints and the WAL
/// snapshot manifest: `load(path)`; when that throws, move `path` aside to
/// `<path>.quarantine` and `load(<path>.prev)`. Throws std::runtime_error
/// naming both failures when neither file loads. On success `*loaded_from`
/// (when non-null) receives the path actually read.
void load_file_durable(const std::string& path, const DurableKind& kind,
                       std::string* loaded_from,
                       const std::function<void(const std::string&)>& load);

}  // namespace ld::core
