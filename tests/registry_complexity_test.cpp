// Serving-scale guards, marked `slow`:
//
//  - PublishComplexity: under a copy-on-write std::map, every insert copied
//    the whole shard, so per-insert cost grew linearly with occupancy (the
//    last 5k of a 10k-tenant registration sweep took ~12s). The persistent
//    trie copies only the root-to-leaf spine, so the p99 of the *last*
//    thousand inserts into a 10k shard must stay within a constant factor
//    of the *first* thousand. Timing is measured directly with Stopwatch
//    into raw vectors (exact percentile by sort) rather than through
//    ld_registry_publish_latency — the metrics registry has no histogram
//    subtraction, so it cannot be windowed per-thousand; it is only
//    sanity-checked for total count here.
//  - TenantFootprint: resident memory per registered tenant when a fleet
//    shares one published model, read from /proc/self/statm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include <fstream>

#include "common/stopwatch.hpp"
#include "core/model.hpp"
#include "obs/registry.hpp"
#include "serving/registry.hpp"
#include "serving/service.hpp"
#include "test_util.hpp"

namespace {

using namespace ld;

/// Exact (not bucketed) p99 of one window of per-publish seconds.
double exact_p99(std::vector<double> window) {
  std::sort(window.begin(), window.end());
  return window[(window.size() * 99) / 100];
}

TEST(PublishComplexity, LastThousandPublishesNoWorseThanFirst) {
  constexpr std::size_t kTenants = 10000;
  constexpr std::size_t kWindow = 1000;

  // A trivial value: the loop times pure table work (hash + spine copy +
  // root swap), not tenant construction.
  serving::ShardedTable<int> table(1);  // one shard: occupancy grows 0 -> 10k
  const metrics::LatencyHistogram before =
      obs::MetricsRegistry::global()
          .histogram("ld_registry_publish_latency", {{"shard", "0"}}, 1e-7, 1e2)
          .snapshot();

  std::vector<double> publish_seconds;
  publish_seconds.reserve(kTenants);
  char name[16];
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::snprintf(name, sizeof name, "t%05zu", i);
    Stopwatch clock;
    (void)table.insert(name, [] { return 1; });
    publish_seconds.push_back(clock.seconds());
  }

  ASSERT_EQ(table.size(), kTenants);
  std::vector<double> first(publish_seconds.begin(), publish_seconds.begin() + kWindow);
  std::vector<double> last(publish_seconds.end() - kWindow, publish_seconds.end());
  const double p99_first = exact_p99(std::move(first));
  const double p99_last = exact_p99(std::move(last));

  // The gate: sub-linear insert cost. A copy-on-write map
  // fails this by ~two orders of magnitude (10k/100 element copies); the
  // trie's spine depth grows ~log32, so 8x absorbs timer noise with margin.
  // The 1us floor keeps an absurdly fast first window from turning jitter
  // into a failure.
  EXPECT_LE(p99_last, 8.0 * std::max(p99_first, 1e-6))
      << "first-1k p99 " << p99_first * 1e6 << "us vs last-1k p99 " << p99_last * 1e6
      << "us — insert cost is growing with shard occupancy";

  // The production histogram saw every insert (the bench gate and ops
  // endpoints consume this series; it must not silently detach).
  const metrics::LatencyHistogram after =
      obs::MetricsRegistry::global()
          .histogram("ld_registry_publish_latency", {{"shard", "0"}}, 1e-7, 1e2)
          .snapshot();
  EXPECT_EQ(after.count() - before.count(), kTenants);
}

/// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  in >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(TenantFootprint, SharedModelFleetStaysUnderBytesPerTenantBound) {
#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer pads every allocation with redzones and quarantines
  // freed blocks, so resident growth no longer measures the program.
  GTEST_SKIP() << "resident-memory bound is meaningless under AddressSanitizer";
#endif
  constexpr std::size_t kTenants = 10000;
  constexpr std::size_t kWarmup = 200;
  // Measured at 10k tenants sharing one model on x86-64 Linux with glibc
  // malloc: ~6000 bytes per tenant (history, counters, drift monitor, the
  // published version, ten per-tenant metric series and the trie entry).
  // The bound is about twice that.
  constexpr std::size_t kMaxBytesPerTenant = 12800;

  const std::vector<double> series = testutil::seasonal_series(64);
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 4;
  const core::Hyperparameters hp{.history_length = 12, .cell_size = 8, .num_layers = 1,
                                 .batch_size = 32};
  const std::size_t n_train = series.size() * 3 / 4;
  const core::TrainedModel model(std::span<const double>(series).subspan(0, n_train),
                                 std::span<const double>(series).subspan(n_train), hp,
                                 training, 7);
  const std::vector<double> history(series.end() - 16, series.end());

  serving::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.background_retrain = false;
  serving::PredictionService service(cfg);
  char name[16];
  const auto register_tenant = [&](std::size_t i) {
    std::snprintf(name, sizeof name, "t%05zu", i);
    service.publish(name, model);
    service.observe_many(name, history);
  };
  // One-off allocations (metric families, trie roots, thread-local scratch)
  // are not charged to the fleet.
  for (std::size_t i = 0; i < kWarmup; ++i) register_tenant(i);
  (void)service.predict("t00000", 4);

  const std::size_t before = resident_bytes();
  for (std::size_t i = kWarmup; i < kWarmup + kTenants; ++i) register_tenant(i);
  const std::size_t after = resident_bytes();
  ASSERT_EQ(service.workload_names().size(), kWarmup + kTenants);

  const double per_tenant =
      static_cast<double>(after > before ? after - before : 0) / static_cast<double>(kTenants);
  std::printf("resident growth: %.0f bytes per tenant over %zu tenants\n", per_tenant,
              kTenants);
  EXPECT_LE(per_tenant, static_cast<double>(kMaxBytesPerTenant));
  // Every tenant still answers from the one shared model.
  EXPECT_EQ(service.predict(name, 4), service.current_model("t00000")->predict_horizon(
                                          history, 4));
}

}  // namespace
