// The serving layer's tenant index and its published model versions.
//
// A PublishedModel is one immutable model version: a shared, const
// core::TrainedModel plus its version number. Inference is const (DESIGN.md
// §8), so any number of threads predict through one version at once.
//
// A ShardedTable maps workload names to values with RCU semantics: each
// name hashes (stable FNV-1a) to one of N shards, and each shard is an
// atomic shared_ptr to an immutable persistent hash-array-mapped trie
// (persistent_map.hpp, DESIGN.md §16). Readers load the shard root and never
// lock. The table is insert-only: an insert path-copies the O(log n) spine
// under the shard's writer mutex and swaps the new root in. Values are never
// replaced, so whatever changes about an entry lives behind the value's own
// synchronisation (the service's per-tenant mutex).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/model.hpp"
#include "obs/registry.hpp"
#include "serving/persistent_map.hpp"

namespace ld::serving {

/// Stable workload -> shard placement (64-bit FNV-1a, reduced mod `shards`).
/// Deliberately not std::hash: the same workload set must land on the same
/// shards in every process, so shard-local artifacts (queues, metrics) are
/// comparable across runs and the LD_SHARDS determinism tests are exact.
[[nodiscard]] std::size_t workload_shard(std::string_view name, std::size_t shards) noexcept;

/// Shard count from LD_SHARDS (clamped to [1, 256]), falling back to
/// std::thread::hardware_concurrency(). Mirrors ThreadPool::default_threads.
[[nodiscard]] std::size_t default_shards();

/// One immutable published model version.
class PublishedModel {
 public:
  PublishedModel(std::shared_ptr<const core::TrainedModel> model, std::uint64_t version);

  /// Destruction runs arbitrary model teardown; declared throwing so the
  /// make() deleter guard below is meaningful (and testable).
  ~PublishedModel() noexcept(false);

  PublishedModel(const PublishedModel&) = delete;
  PublishedModel& operator=(const PublishedModel&) = delete;

  /// Preferred factory: the returned shared_ptr carries a deleter that
  /// swallows (logs + counts in ld_registry_drop_errors_total) anything the
  /// destructor throws. Without it, a throwing teardown of a version dropped
  /// mid-swap would propagate through shared_ptr::reset() and terminate the
  /// process.
  [[nodiscard]] static std::shared_ptr<const PublishedModel> make(
      std::shared_ptr<const core::TrainedModel> model, std::uint64_t version);

  /// Test-only: invoked at the top of the destructor when set, so fault
  /// tests can simulate a throwing teardown. Not used in production.
  static std::function<void()> destroy_hook_for_test;

  /// Forecast through the shared model. Safe to call from any number of
  /// threads; takes no lock.
  [[nodiscard]] double predict_next(std::span<const double> history) const {
    return model_->predict_next(history);
  }
  [[nodiscard]] std::vector<double> predict_horizon(std::span<const double> history,
                                                    std::size_t steps) const {
    return model_->predict_horizon(history, steps);
  }

  [[nodiscard]] const core::Hyperparameters& hyperparameters() const noexcept {
    return model_->hyperparameters();
  }
  [[nodiscard]] double validation_mape() const noexcept { return model_->validation_mape(); }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const core::TrainedModel& model() const noexcept { return *model_; }

 private:
  std::shared_ptr<const core::TrainedModel> model_;
  std::uint64_t version_ = 0;
};

/// Merge per-shard name-sorted runs into one globally sorted list.
[[nodiscard]] std::vector<std::string> merge_sorted_runs(
    std::vector<std::vector<std::string>> runs);

/// Sharded, insert-only persistent-map name -> V table. Reads are wait-free
/// with respect to writers: find() never blocks on an insert, and an insert
/// never blocks on readers — or on inserts into other shards.
template <typename V>
class ShardedTable {
 public:
  /// One shard's immutable map version. Exposed so a caller can pin a
  /// single consistent version and walk it.
  using Map = PersistentHashMap<V>;

  /// `shards` = 0 resolves default_shards() (LD_SHARDS / hardware threads).
  explicit ShardedTable(std::size_t shards = 1) {
    if (shards == 0) shards = default_shards();
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->map.store(std::make_shared<const Map>());
      shard->insert_latency = &obs::MetricsRegistry::global().histogram(
          "ld_registry_publish_latency", {{"shard", std::to_string(i)}}, 1e-7, 1e2);
      shards_.push_back(std::move(shard));
    }
  }

  /// The value stored under `name`, or V{} when absent. One FNV-1a hash
  /// serves both the shard placement and the trie path.
  [[nodiscard]] V find(std::string_view name) const {
    const std::uint64_t hash = fnv1a64(name);
    const std::shared_ptr<const Map> map =
        shards_[hash % shards_.size()]->map.load(std::memory_order_acquire);
    const V* found = map->find(name, hash);
    return found == nullptr ? V{} : *found;
  }

  /// The value stored under `name`, inserting make() first when absent.
  /// make() runs under the shard's writer lock, at most once per name, and
  /// before the value becomes visible to any reader; inserts into the same
  /// shard serialize with it. Cost is O(log shard-size): the persistent map
  /// copies the root-to-leaf spine, never the shard (the copy and swap are
  /// timed by ld_registry_publish_latency{shard=}).
  template <typename Make>
  V insert(const std::string& name, Make&& make) {
    const std::uint64_t hash = fnv1a64(name);
    Shard& shard = *shards_[hash % shards_.size()];
    std::shared_ptr<const Map> old;
    V value;
    {
      std::scoped_lock lock(shard.write_mu);
      const std::shared_ptr<const Map> cur = shard.map.load(std::memory_order_acquire);
      if (const V* found = cur->find(name, hash)) return *found;
      value = make();
      const Stopwatch clock;
      auto next = std::make_shared<const Map>(cur->set(name, value));
      old = shard.map.exchange(std::move(next), std::memory_order_acq_rel);
      shard.insert_latency->observe(clock.seconds());
    }
    // The displaced map version is dropped here, outside the writer lock.
    return value;
  }

  /// All names, globally sorted (k-way merge of the per-shard name-sorted
  /// runs — sort keys are workload names, never hashes).
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::vector<std::string>> runs;
    runs.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) runs.push_back(shard_names(i));
    return merge_sorted_runs(std::move(runs));
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) total += shard_snapshot(i)->size();
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(std::string_view name) const noexcept {
    return workload_shard(name, shards_.size());
  }
  /// Names on one shard, sorted (the trie iterates in hash order, so this
  /// collects and name-sorts — O(k log k)).
  [[nodiscard]] std::vector<std::string> shard_names(std::size_t shard) const {
    return shard_snapshot(shard)->sorted_keys();
  }

  /// Pin one shard's current map version. The returned map is immutable and
  /// stays valid (and unchanging) however many inserts follow.
  [[nodiscard]] std::shared_ptr<const Map> shard_snapshot(std::size_t shard) const {
    return shards_.at(shard)->map.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    std::atomic<std::shared_ptr<const Map>> map;
    std::mutex write_mu;  ///< serializes this shard's inserts only
    obs::Histogram* insert_latency = nullptr;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ld::serving
