#include "wal/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "common/checksum.hpp"
#include "core/serialization.hpp"
#include "obs/registry.hpp"

namespace ld::wal {

namespace {

constexpr const char* kMagic = "loaddynamics-snapshot";
constexpr int kVersion = 1;
constexpr const char* kFooterKeyword = "\ncrc32 ";

// Mirrors the .ldm ceilings: a corrupt count fails fast instead of driving
// reserve() into a giant allocation.
constexpr std::size_t kMaxShards = 1u << 16;
constexpr std::size_t kMaxTenants = 1u << 24;
constexpr std::size_t kMaxHistory = 1u << 24;

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string expect_token(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token))
    throw std::runtime_error(std::string("wal: manifest missing ") + what);
  return token;
}

void expect_keyword(std::istream& in, const char* kw) {
  if (expect_token(in, kw) != kw)
    throw std::runtime_error(std::string("wal: manifest expected keyword ") + kw);
}

std::uint64_t parse_u64(const std::string& token, const char* what, std::uint64_t max) {
  unsigned long long v = 0;
  try {
    std::size_t used = 0;
    v = std::stoull(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("wal: manifest bad value for ") + what + " '" +
                             token + "'");
  }
  if (v > max)
    throw std::runtime_error(std::string("wal: manifest implausible ") + what + " " + token);
  return v;
}

double parse_hex_double(const std::string& token, const char* what) {
  double v = 0.0;
  if (std::sscanf(token.c_str(), "%la", &v) != 1)
    throw std::runtime_error(std::string("wal: manifest bad value for ") + what);
  if (!std::isfinite(v))
    throw std::runtime_error(std::string("wal: manifest non-finite ") + what + " '" + token +
                             "'");
  return v;
}

obs::Counter& quarantined_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ld_wal_manifest_quarantined_total");
  return counter;
}

}  // namespace

std::string render_manifest(const Manifest& manifest) {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "shards " << manifest.shard_wal_seq.size() << '\n';
  for (std::size_t i = 0; i < manifest.shard_wal_seq.size(); ++i)
    out << "shard " << i << " wal_seq " << manifest.shard_wal_seq[i] << '\n';
  out << "tenants " << manifest.tenants.size() << '\n';
  for (const TenantState& t : manifest.tenants) {
    out << "tenant " << t.name << " version " << t.version << " observations "
        << t.observations << " retrains " << t.retrains << " baseline_mape "
        << hex_double(t.baseline_mape) << " last_fit_step " << t.last_fit_step
        << " model " << (t.has_model ? 1 : 0) << " history " << t.history.size() << '\n';
    for (std::size_t i = 0; i < t.history.size(); ++i) {
      out << hex_double(t.history[i]);
      out << ((i + 1) % 8 == 0 ? '\n' : ' ');
    }
    if (!t.history.empty() && t.history.size() % 8 != 0) out << '\n';
  }
  std::string body = out.str();
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32 %08" PRIx32 "\n", crc32(body));
  body += footer;
  return body;
}

Manifest parse_manifest(const std::string& content) {
  // Footer first: everything else is only trustworthy once the CRC matches.
  const std::size_t footer_pos = content.rfind(kFooterKeyword);
  if (footer_pos == std::string::npos)
    throw std::runtime_error("wal: manifest missing crc32 footer (truncated file?)");
  const std::string_view body(content.data(), footer_pos + 1);  // incl. '\n'
  std::uint32_t stored = 0;
  if (std::sscanf(content.c_str() + footer_pos + std::strlen(kFooterKeyword), "%8" SCNx32,
                  &stored) != 1)
    throw std::runtime_error("wal: manifest unreadable crc32 footer");
  const std::uint32_t actual = crc32(body);
  if (actual != stored) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "wal: manifest crc32 mismatch (stored %08" PRIx32 ", computed %08" PRIx32
                  ")",
                  stored, actual);
    throw std::runtime_error(msg);
  }

  std::istringstream in{std::string(body)};
  if (expect_token(in, "magic") != kMagic)
    throw std::runtime_error("wal: not a loaddynamics snapshot manifest");
  if (parse_u64(expect_token(in, "version"), "version", 1000) !=
      static_cast<std::uint64_t>(kVersion))
    throw std::runtime_error("wal: unsupported manifest version");

  Manifest manifest;
  expect_keyword(in, "shards");
  const std::size_t shards =
      static_cast<std::size_t>(parse_u64(expect_token(in, "shard count"), "shard count",
                                         kMaxShards));
  manifest.shard_wal_seq.resize(shards, 0);
  for (std::size_t i = 0; i < shards; ++i) {
    expect_keyword(in, "shard");
    const std::size_t index = static_cast<std::size_t>(
        parse_u64(expect_token(in, "shard index"), "shard index", kMaxShards));
    if (index >= shards) throw std::runtime_error("wal: manifest shard index out of range");
    expect_keyword(in, "wal_seq");
    manifest.shard_wal_seq[index] =
        parse_u64(expect_token(in, "wal_seq"), "wal_seq", ~0ULL >> 1);
  }
  expect_keyword(in, "tenants");
  const std::size_t tenants = static_cast<std::size_t>(
      parse_u64(expect_token(in, "tenant count"), "tenant count", kMaxTenants));
  manifest.tenants.reserve(std::min<std::size_t>(tenants, 4096));
  for (std::size_t i = 0; i < tenants; ++i) {
    expect_keyword(in, "tenant");
    TenantState t;
    t.name = expect_token(in, "tenant name");
    expect_keyword(in, "version");
    t.version = parse_u64(expect_token(in, "version"), "version", ~0ULL >> 1);
    expect_keyword(in, "observations");
    t.observations = parse_u64(expect_token(in, "observations"), "observations", ~0ULL >> 1);
    expect_keyword(in, "retrains");
    t.retrains = parse_u64(expect_token(in, "retrains"), "retrains", ~0ULL >> 1);
    expect_keyword(in, "baseline_mape");
    t.baseline_mape = parse_hex_double(expect_token(in, "baseline_mape"), "baseline_mape");
    expect_keyword(in, "last_fit_step");
    t.last_fit_step =
        parse_u64(expect_token(in, "last_fit_step"), "last_fit_step", ~0ULL >> 1);
    expect_keyword(in, "model");
    t.has_model = parse_u64(expect_token(in, "model flag"), "model flag", 1) == 1;
    expect_keyword(in, "history");
    const std::size_t count = static_cast<std::size_t>(
        parse_u64(expect_token(in, "history count"), "history count", kMaxHistory));
    if (count > t.observations)
      throw std::runtime_error("wal: manifest history longer than observations");
    t.history.reserve(std::min<std::size_t>(count, 4096));
    for (std::size_t k = 0; k < count; ++k)
      t.history.push_back(parse_hex_double(expect_token(in, "history value"), "history"));
    manifest.tenants.push_back(std::move(t));
  }
  // write_snapshot captures each shard's tenant set exactly once (and the
  // registry map holds one entry per name), so a repeated tenant can only
  // mean a corrupt or hand-edited manifest. Recovery must reject it rather
  // than silently double-applying one tenant's history on replay.
  std::unordered_set<std::string_view> seen;
  seen.reserve(manifest.tenants.size());
  for (const TenantState& t : manifest.tenants)
    if (!seen.insert(t.name).second)
      throw std::runtime_error("wal: manifest lists tenant '" + t.name + "' twice");
  return manifest;
}

void save_manifest(const Manifest& manifest, const std::string& path) {
  core::save_file_durable(path, render_manifest(manifest), "snapshot.write");
}

Manifest load_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("wal: cannot open manifest '" + path + "'");
  std::ostringstream slurp;
  slurp << in.rdbuf();
  return parse_manifest(slurp.str());
}

Manifest load_manifest(const std::string& path, std::string* loaded_from) {
  Manifest manifest;
  core::load_file_durable(path, {"wal: ", "manifest ", nullptr, quarantined_counter},
                          loaded_from,
                          [&](const std::string& file) { manifest = load_manifest_file(file); });
  return manifest;
}

std::string manifest_path(const std::string& wal_dir) {
  return (std::filesystem::path(wal_dir) / "snapshot.manifest").string();
}

}  // namespace ld::wal
