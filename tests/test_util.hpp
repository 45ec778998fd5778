// Shared helpers for the test suite: temp-dir lifecycle, deterministic
// series, and metrics-registry isolation. Every test target links
// test_util.cpp (see tests/CMakeLists.txt).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace ld::testutil {

/// RAII scratch directory under the system temp root: a fresh, empty
/// directory named ld_test_<tag>_XXXXXX, unique per instance (so tests
/// running in parallel processes never collide), recursively removed on
/// destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag);
  ~ScopedTempDir();
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }
  /// path()/name, as the std::string most APIs here take.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// The canonical deterministic test series: base + amplitude*sin(2*pi*i /
/// period), plus a small seeded uniform jitter when noise_seed != 0.
/// Strictly positive for the defaults, so MAPE and scaling are well-defined.
[[nodiscard]] std::vector<double> seasonal_series(std::size_t n, double base = 100.0,
                                                  double amplitude = 12.0,
                                                  double period = 24.0,
                                                  std::uint64_t noise_seed = 0);

/// Retire all series in the process-wide metrics registry (graveyard
/// semantics — see MetricsRegistry::reset_for_testing). Call from SetUp()
/// when a test asserts absolute counter values.
void reset_metrics();

/// Current value of a counter in the global registry (0 if never bumped).
[[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                          const obs::Labels& labels = {});

/// Snapshot of one counter at construction; delta() is the growth since.
/// Immune to other tests' leftovers, unlike asserting absolute values.
class CounterDelta {
 public:
  explicit CounterDelta(std::string name, obs::Labels labels = {})
      : name_(std::move(name)), labels_(std::move(labels)),
        start_(counter_value(name_, labels_)) {}

  [[nodiscard]] std::uint64_t delta() const { return counter_value(name_, labels_) - start_; }

 private:
  std::string name_;
  obs::Labels labels_;
  std::uint64_t start_;
};

}  // namespace ld::testutil
