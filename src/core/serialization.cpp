#include "core/serialization.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"

namespace ld::core {

namespace {
constexpr const char* kMagic = "loaddynamics-model";
constexpr int kVersion = 2;  // v2 adds the crc32 footer; v1 files still load
constexpr const char* kFooterKeyword = "\ncrc32 ";

std::string expect_token(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) throw std::runtime_error(std::string("load_model: missing ") + what);
  return token;
}

/// Parse a size field, converting stoul's invalid_argument/out_of_range into
/// the documented std::runtime_error and rejecting absurd values before they
/// turn into multi-gigabyte allocations (fuzzed/corrupt files reach here).
std::size_t parse_size(const std::string& token, const char* what, std::size_t max_value) {
  unsigned long long v = 0;
  try {
    std::size_t used = 0;
    v = std::stoull(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("load_model: bad value for ") + what + " '" +
                             token + "'");
  }
  if (v > max_value)
    throw std::runtime_error(std::string("load_model: implausible ") + what + " " + token);
  return static_cast<std::size_t>(v);
}

// Sanity ceilings for structural fields. Far above anything this project
// produces (the largest paper-scale network is ~1M weights) yet small enough
// that a corrupt count cannot drive reserve()/restore() into bad_alloc.
constexpr std::size_t kMaxDim = 1u << 20;       // history/cell/layers/batch/window
constexpr std::size_t kMaxWeights = 1u << 26;   // 64M doubles = 512 MB hard stop

double parse_hex_double(const std::string& token, const char* what) {
  double v = 0.0;
  if (std::sscanf(token.c_str(), "%la", &v) != 1)
    throw std::runtime_error(std::string("load_model: bad value for ") + what);
  // %la happily parses "nan"/"inf", and a v1 file has no CRC to catch the
  // corruption. A single NaN weight silently poisons every forecast, so a
  // non-finite value anywhere in a checkpoint is a load error, not data.
  // (Found by the checkpoint fuzz driver; regression input in
  // tests/golden/corpus/checkpoint_nan_weight.ldm.)
  if (!std::isfinite(v))
    throw std::runtime_error(std::string("load_model: non-finite value for ") + what + " '" +
                             token + "'");
  return v;
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Render the model body (header + weights, no footer) to text.
std::string render_body(const TrainedModel& model) {
  const ModelSnapshot snap = model.snapshot();
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "hyperparameters " << snap.hyperparameters.history_length << ' '
      << snap.hyperparameters.cell_size << ' ' << snap.hyperparameters.num_layers << ' '
      << snap.hyperparameters.batch_size << '\n';
  out << "extended " << nn::cell_type_name(snap.hyperparameters.cell) << ' '
      << nn::activation_name(snap.hyperparameters.activation) << ' '
      << nn::loss_name(snap.hyperparameters.loss) << ' '
      << hex_double(snap.hyperparameters.learning_rate) << ' '
      << hex_double(snap.hyperparameters.dropout) << '\n';
  out << "window " << snap.effective_window << '\n';
  out << "scaler " << hex_double(snap.scaler_min) << ' ' << hex_double(snap.scaler_max) << '\n';
  out << "validation_mape " << hex_double(snap.validation_mape) << '\n';
  out << "weights " << snap.weights.size() << '\n';
  for (std::size_t i = 0; i < snap.weights.size(); ++i) {
    out << hex_double(snap.weights[i]);
    out << ((i + 1) % 8 == 0 ? '\n' : ' ');
  }
  out << '\n';
  return out.str();
}

std::string render_with_footer(const TrainedModel& model) {
  std::string body = render_body(model);
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32 %08" PRIx32 "\n", crc32(body));
  body += footer;
  return body;
}

/// Parse the body (everything after the "<magic> <version>" header line has
/// already been consumed from `in`).
std::shared_ptr<TrainedModel> parse_body(std::istream& in) {
  ModelSnapshot snap;
  auto expect_keyword = [&](const char* kw) {
    if (expect_token(in, kw) != kw)
      throw std::runtime_error(std::string("load_model: expected keyword ") + kw);
  };

  expect_keyword("hyperparameters");
  snap.hyperparameters.history_length = parse_size(expect_token(in, "history"), "history", kMaxDim);
  snap.hyperparameters.cell_size = parse_size(expect_token(in, "cell"), "cell", kMaxDim);
  snap.hyperparameters.num_layers = parse_size(expect_token(in, "layers"), "layers", kMaxDim);
  snap.hyperparameters.batch_size = parse_size(expect_token(in, "batch"), "batch", kMaxDim);
  expect_keyword("extended");
  try {
    snap.hyperparameters.cell = nn::cell_type_from_name(expect_token(in, "cell type"));
    snap.hyperparameters.activation = nn::activation_from_name(expect_token(in, "activation"));
    snap.hyperparameters.loss = nn::loss_from_name(expect_token(in, "loss"));
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("load_model: bad extended field: ") + e.what());
  }
  snap.hyperparameters.learning_rate =
      parse_hex_double(expect_token(in, "learning rate"), "learning rate");
  snap.hyperparameters.dropout = parse_hex_double(expect_token(in, "dropout"), "dropout");
  expect_keyword("window");
  snap.effective_window = parse_size(expect_token(in, "window value"), "window", kMaxDim);
  expect_keyword("scaler");
  snap.scaler_min = parse_hex_double(expect_token(in, "scaler min"), "scaler min");
  snap.scaler_max = parse_hex_double(expect_token(in, "scaler max"), "scaler max");
  expect_keyword("validation_mape");
  snap.validation_mape =
      parse_hex_double(expect_token(in, "validation_mape"), "validation_mape");
  expect_keyword("weights");
  const std::size_t count = parse_size(expect_token(in, "weight count"), "weight count", kMaxWeights);
  // Reserve only what a small file can plausibly back; a lying header then
  // costs token-read failures, not a giant upfront allocation.
  snap.weights.reserve(std::min<std::size_t>(count, 4096));
  for (std::size_t i = 0; i < count; ++i)
    snap.weights.push_back(parse_hex_double(expect_token(in, "weight"), "weight"));

  try {
    return TrainedModel::restore(snap);
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception& e) {
    // restore() validates structure (window/weight-count consistency) with
    // invalid_argument; surface it as the documented load failure type.
    throw std::runtime_error(std::string("load_model: rejected snapshot: ") + e.what());
  }
}

/// Write `data` to `path` with an fsync before close so the bytes are
/// durable before the caller renames the file into place.
void write_durable(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("save_model: cannot open '" + path + "'");
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      ::close(fd);
      throw std::runtime_error("save_model: write failed for '" + path + "'");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("save_model: fsync failed for '" + path + "'");
  }
  if (::close(fd) != 0) throw std::runtime_error("save_model: close failed for '" + path + "'");
}

void fsync_parent_dir(const std::string& path) {
  // Best effort: make the rename itself durable. Failure here is not fatal
  // (some filesystems refuse O_RDONLY on directories).
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

obs::Counter& quarantined_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ld_checkpoint_quarantined_total");
  return counter;
}
}  // namespace

void save_model(const TrainedModel& model, std::ostream& out) {
  out << render_with_footer(model);
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

void save_file_durable(const std::string& path, const std::string& data,
                       const char* fault_site) {
  const std::string tmp = path + ".tmp";
  try {
    write_durable(tmp, data);
    if (fault_site != nullptr) LD_FAULT_POINT(fault_site);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // never leave a torn temp behind
    throw;
  }
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Keep the previous good snapshot: it is the fallback load_checkpoint
    // reaches for when the new file turns out corrupt.
    std::filesystem::rename(path, path + ".prev", ec);
    if (ec) log::warn("save_model: could not keep previous snapshot for '", path, "': ",
                      ec.message());
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw std::runtime_error("save_model: rename to '" + path + "' failed: " + ec.message());
  }
  fsync_parent_dir(path);
}

void save_model_file(const TrainedModel& model, const std::string& path) {
  save_file_durable(path, render_with_footer(model), "checkpoint.write");
}

std::shared_ptr<TrainedModel> load_model(std::istream& in) {
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string content = slurp.str();

  std::istringstream header(content);
  if (expect_token(header, "magic") != kMagic)
    throw std::runtime_error("load_model: not a loaddynamics model file");
  const std::size_t version = parse_size(expect_token(header, "version"), "version", 1000);
  if (version != 1 && version != static_cast<std::size_t>(kVersion))
    throw std::runtime_error("load_model: unsupported version");

  if (version == 1) return parse_body(header);  // legacy: no footer

  const std::size_t footer_pos = content.rfind(kFooterKeyword);
  if (footer_pos == std::string::npos)
    throw std::runtime_error("load_model: missing crc32 footer (truncated file?)");
  const std::string_view body(content.data(), footer_pos + 1);  // incl. '\n'
  std::uint32_t stored = 0;
  if (std::sscanf(content.c_str() + footer_pos + std::strlen(kFooterKeyword), "%8" SCNx32,
                  &stored) != 1)
    throw std::runtime_error("load_model: unreadable crc32 footer");
  const std::uint32_t actual = crc32(body);
  if (actual != stored) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "load_model: crc32 mismatch (stored %08" PRIx32 ", computed %08" PRIx32 ")",
                  stored, actual);
    throw std::runtime_error(msg);
  }

  std::istringstream verified{std::string(body)};
  expect_token(verified, "magic");
  expect_token(verified, "version");
  return parse_body(verified);
}

std::shared_ptr<TrainedModel> load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model: cannot open '" + path + "'");
  return load_model(in);
}

void load_file_durable(const std::string& path, const DurableKind& kind,
                       std::string* loaded_from,
                       const std::function<void(const std::string&)>& load) {
  std::string primary_error;
  try {
    if (kind.fault_site != nullptr) LD_FAULT_POINT(kind.fault_site);
    load(path);
    if (loaded_from != nullptr) *loaded_from = path;
    return;
  } catch (const std::exception& e) {
    primary_error = e.what();
  }

  // Move the bad file aside so the next save cannot .prev-preserve garbage
  // and a human can inspect what went wrong.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, path + ".quarantine", ec);
    if (!ec) {
      kind.quarantined().inc();
      log::warn(kind.log_prefix, "quarantined corrupt ", kind.noun, "'", path, "' (",
                primary_error, ")");
    }
  }

  const std::string prev = path + ".prev";
  try {
    load(prev);
    log::warn(kind.log_prefix, "recovered ", kind.noun, "from previous snapshot '", prev, "'");
    if (loaded_from != nullptr) *loaded_from = prev;
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(kind.log_prefix) + kind.noun + "'" + path +
                             "' failed (" + primary_error + ") and fallback '" + prev +
                             "' failed (" + e.what() + ")");
  }
}

std::shared_ptr<TrainedModel> load_checkpoint(const std::string& path,
                                              std::string* loaded_from) {
  std::shared_ptr<TrainedModel> model;
  load_file_durable(path, {"load_checkpoint: ", "", "checkpoint.load", quarantined_counter},
                    loaded_from, [&](const std::string& file) { model = load_model_file(file); });
  return model;
}

}  // namespace ld::core
