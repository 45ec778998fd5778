#include "test_util.hpp"

#include <stdlib.h>

#include <cerrno>
#include <cmath>
#include <numbers>
#include <system_error>

#include "common/rng.hpp"

namespace ld::testutil {

ScopedTempDir::ScopedTempDir(const std::string& tag) {
  // mkdtemp picks a fresh name atomically, so concurrent test processes
  // (ctest -j runs each case as its own process) never share a directory.
  std::string pattern =
      (std::filesystem::temp_directory_path() / ("ld_test_" + tag + "_XXXXXX")).string();
  if (mkdtemp(pattern.data()) == nullptr)
    throw std::system_error(errno, std::generic_category(), "mkdtemp " + pattern);
  path_ = pattern;
}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;  // best-effort: never throw out of a destructor
  std::filesystem::remove_all(path_, ec);
}

std::vector<double> seasonal_series(std::size_t n, double base, double amplitude,
                                    double period, std::uint64_t noise_seed) {
  std::vector<double> series(n);
  Rng rng(noise_seed == 0 ? 1 : noise_seed);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = base + amplitude * std::sin(2.0 * std::numbers::pi *
                                            static_cast<double>(i) / period);
    if (noise_seed != 0) series[i] += rng.uniform(-1.0, 1.0);
  }
  return series;
}

void reset_metrics() { obs::MetricsRegistry::global().reset_for_testing(); }

std::uint64_t counter_value(const std::string& name, const obs::Labels& labels) {
  return obs::MetricsRegistry::global().counter(name, labels).value();
}

}  // namespace ld::testutil
