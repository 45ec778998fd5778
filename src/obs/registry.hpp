// Process-wide metrics registry: named Counter / Gauge / Histogram
// instruments with optional labels (workload=, stage=, ...), scraped as
// Prometheus text format or single-line JSON.
//
// Design (see DESIGN.md §9):
//  - Counters and gauges are single relaxed atomics — safe to bump from any
//    thread, including pool workers and the retrain worker.
//  - Histograms generalize metrics::LatencyHistogram with per-thread shards:
//    each recording thread owns a private shard (uncontended mutex, taken
//    only against the scraper), and snapshot() merges all shards. Recording
//    never contends with other recorders.
//  - Instrument lookup (counter()/gauge()/histogram()) takes the registry
//    mutex; hot paths should resolve instruments once and cache the
//    reference — instruments live as long as the registry.
//
// Naming convention: ld_<subsystem>_<what>_<unit>, e.g.
// ld_serving_predict_latency_seconds{shard="0"}.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.hpp"

namespace ld::obs {

/// Label set for one time series. Order-insensitive: the registry
/// canonicalizes by key before keying the series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-sharded latency/size distribution. observe() touches only the
/// calling thread's shard; snapshot() merges every shard into one
/// metrics::LatencyHistogram.
class Histogram {
 public:
  Histogram(double min_value, double max_value);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);
  [[nodiscard]] metrics::LatencyHistogram snapshot() const;
  [[nodiscard]] std::uint64_t count() const;  ///< total across shards
  [[nodiscard]] double min_value() const noexcept { return min_value_; }
  [[nodiscard]] double max_value() const noexcept { return max_value_; }

 private:
  struct Shard {
    std::mutex mu;  ///< owner thread vs. scraper only — effectively uncontended
    metrics::LatencyHistogram hist;
    Shard(double lo, double hi) : hist(lo, hi) {}
  };

  Shard& local_shard();

  const std::uint64_t id_;  ///< process-unique, never reused (thread cache key)
  const double min_value_;
  const double max_value_;
  mutable std::mutex shards_mu_;  ///< guards the shard list, not the shards
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Shared label value that absorbs the long-tail workloads once the series
/// cap is reached (see MetricsRegistry::set_max_series).
inline constexpr const char* kOtherWorkload = "__other";

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (intentionally leaked: instruments stay valid
  /// through static destruction, so pool workers can record at exit).
  [[nodiscard]] static MetricsRegistry& global();

  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime. Throws std::invalid_argument when the same series name+labels
  /// was already registered as a different instrument kind.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// Histogram bounds are fixed by the first registration of the series.
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       double min_value = 1e-7, double max_value = 1e3);

  /// Prometheus text exposition: counters/gauges verbatim, histograms as
  /// summaries (quantile="0.5|0.9|0.95|0.99" plus _sum/_count/_min/_max).
  /// Runs registered scrape hooks, then a governor rebalance, then emits.
  [[nodiscard]] std::string prometheus_text();
  /// Compact single-line JSON (protocol-friendly): {"metrics":[...]}.
  [[nodiscard]] std::string json();

  [[nodiscard]] std::size_t series_count() const;
  /// Series that would appear in the next scrape (excludes series hidden by
  /// a governor demotion). Equals series_count() when ungoverned.
  [[nodiscard]] std::size_t exposed_series_count() const;

  // --- Cardinality governance -------------------------------------------
  //
  // With a cap set (LD_METRICS_MAX_SERIES or set_max_series), registrations
  // carrying a workload= label are admission-controlled: new workloads are
  // admitted with full per-workload series while headroom remains; past the
  // cap their series are redirected to a shared workload="__other" twin, so
  // the exposition and the scrape cost stay O(cap) regardless of fleet size.
  // A Space-Saving heavy-hitter sketch fed by touch_workload() ranks
  // workloads by traffic; each scrape may swap a hot rolled-up workload for
  // a cold tracked one (×2 hysteresis, so a uniform fleet never churns).
  // Counter monotonicity is preserved across demote/promote: a demoted
  // series' post-demotion delta is folded into the __other twin's displayed
  // value, and on promotion that delta is committed into the twin before the
  // series reappears at its full cumulative value.
  //
  // Self-metrics: ld_metrics_series_total (exposed series, gauge) and
  // ld_metrics_rollup_total (series rolled into __other, counter).

  /// Set the series cap. 0 disables governance (the default). Reads
  /// LD_METRICS_MAX_SERIES on first global() access.
  void set_max_series(std::size_t cap);
  [[nodiscard]] std::size_t max_series() const;

  /// Slow path of touch_workload() — offers `name` to the traffic sketch.
  void touch_workload_slow(const std::string& name);

  /// Register a callback invoked at the start of every scrape (before the
  /// registry mutex is taken), for refreshing derived gauges such as SLO
  /// burn rates. Hooks persist across reset_for_testing().
  void add_scrape_hook(std::function<void()> hook);

  /// Retire every registered series so the next scrape starts empty. For
  /// tests only: the process-wide registry otherwise accumulates counters
  /// across test cases, so assertions on absolute values interfere.
  ///
  /// Retired instruments are moved to a graveyard instead of destroyed —
  /// code that cached an instrument reference (the hot-path contract above)
  /// keeps a valid, silently-ignored instrument rather than a dangling one.
  /// Such callers must re-resolve after a reset to be scraped again.
  /// Also disables governance and clears all governor state (scrape hooks
  /// are kept: they re-resolve their gauges on every scrape).
  void reset_for_testing();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    Labels labels;  ///< canonicalized (sorted by key)
    std::string workload;  ///< value of the workload= label ("" when absent)
    bool rolled_up = false;  ///< demoted: hidden from scrapes, delta → __other
    std::uint64_t folded = 0;  ///< counter value at demotion time
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  ///< (name, rendered labels)

  /// Space-Saving top-K traffic sketch: bounded map; at capacity, a miss
  /// evicts an entry holding the minimum count and inherits min+1 (classic
  /// over-estimate). O(1) amortized; the eviction scan is bounded by the
  /// sketch capacity and only runs for long-tail misses.
  struct SpaceSaving {
    std::size_t capacity = 1024;
    std::uint64_t min_count = 0;  ///< cached lower bound for eviction scans
    std::unordered_map<std::string, std::uint64_t> counts;
    void offer(const std::string& name);
    [[nodiscard]] std::uint64_t estimate(const std::string& name) const;
  };

  Series& find_or_create(const std::string& name, const Labels& labels, Kind kind,
                         double min_value, double max_value);
  Series& create_locked(const Key& key, const Labels& canon, Kind kind,
                        double min_value, double max_value);
  /// Rewrites the workload label to __other when the series is governed out.
  /// Returns true when redirected. Requires mu_ held.
  bool redirect_locked(Labels& canon);
  /// One promote/demote pass driven by the sketch. Requires mu_ held.
  void rebalance_locked();
  void demote_locked(const std::string& workload);
  void promote_locked(const std::string& workload);
  /// Per-scrape view: displayed extras for __other counters + exposed count.
  std::unordered_map<const Series*, std::uint64_t> scrape_extras_locked();
  [[nodiscard]] Key other_twin_key(const std::string& name, const Series& s) const;
  void run_scrape_hooks();

  mutable std::mutex mu_;
  std::map<Key, Series> series_;  ///< sorted by name → stable scrape grouping
  std::vector<Series> graveyard_;  ///< retired by reset_for_testing(), never scraped

  // governor state (mu_), traffic sketch (sketch_mu_), scrape hooks
  // (hooks_mu_); lock order mu_ → sketch_mu_, hooks run lock-free.
  std::size_t max_series_ = 0;  ///< 0 = governance off
  std::size_t hidden_count_ = 0;  ///< series with rolled_up set
  std::unordered_set<std::string> tracked_;  ///< workloads with real series
  std::unordered_set<std::string> rolled_;  ///< workloads redirected to __other
  Counter* rollup_total_ = nullptr;  ///< ld_metrics_rollup_total
  Gauge* series_total_ = nullptr;  ///< ld_metrics_series_total
  mutable std::mutex sketch_mu_;
  SpaceSaving sketch_;
  mutable std::mutex hooks_mu_;
  std::vector<std::function<void()>> hooks_;
};

namespace detail {
/// True iff a series cap is active. Lives outside the registry so the
/// disabled touch_workload() path is a single relaxed load (≈1 ns).
extern std::atomic<bool> g_workload_governed;
}  // namespace detail

/// Heavy-hitter hook: call once per served request for `name` so the
/// cardinality governor can rank workloads by traffic. Free when governance
/// is off (one relaxed atomic load; see BM_ObsTouchWorkloadDisabled).
inline void touch_workload(const std::string& name) {
  if (!detail::g_workload_governed.load(std::memory_order_relaxed)) return;
  MetricsRegistry::global().touch_workload_slow(name);
}

}  // namespace ld::obs
