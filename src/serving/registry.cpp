#include "serving/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/log.hpp"

namespace ld::serving {

namespace {
obs::Counter& drop_errors_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ld_registry_drop_errors_total");
  return counter;
}
}  // namespace

std::size_t workload_shard(std::string_view name, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  // 64-bit FNV-1a: stable across processes/platforms, unlike std::hash.
  // The same hash feeds the shard's persistent trie (persistent_map.hpp),
  // so one key is hashed identically for placement and for its trie path.
  return static_cast<std::size_t>(fnv1a64(name) % shards);
}

std::size_t default_shards() {
  if (const char* env = std::getenv("LD_SHARDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return std::min<std::size_t>(static_cast<std::size_t>(v), 256);
    log::warn("serving: ignoring invalid LD_SHARDS='", env, "'");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, 256);
}

std::function<void()> PublishedModel::destroy_hook_for_test;

PublishedModel::PublishedModel(std::shared_ptr<const core::TrainedModel> model,
                               std::uint64_t version)
    : model_(std::move(model)), version_(version) {
  if (!model_) throw std::invalid_argument("PublishedModel: null model");
}

PublishedModel::~PublishedModel() noexcept(false) {
  if (destroy_hook_for_test) destroy_hook_for_test();
}

std::shared_ptr<const PublishedModel> PublishedModel::make(
    std::shared_ptr<const core::TrainedModel> model, std::uint64_t version) {
  return std::shared_ptr<const PublishedModel>(
      new PublishedModel(std::move(model), version), [](const PublishedModel* p) {
        try {
          delete p;
        } catch (const std::exception& e) {
          drop_errors_counter().inc();
          log::warn("registry: model v-drop destructor threw (swallowed): ", e.what());
        } catch (...) {
          drop_errors_counter().inc();
          log::warn("registry: model v-drop destructor threw (swallowed): unknown");
        }
      });
}

std::vector<std::string> merge_sorted_runs(std::vector<std::vector<std::string>> runs) {
  // The runs are disjoint (shards partition the namespace), so a k-way merge
  // yields the globally sorted list without one fleet-wide sort.
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  std::vector<std::size_t> pos(runs.size(), 0);
  const auto later = [&](std::size_t a, std::size_t b) {
    return runs[a][pos[a]] > runs[b][pos[b]];
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)> heads(later);
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (!runs[i].empty()) heads.push(i);
  std::vector<std::string> out;
  out.reserve(total);
  while (!heads.empty()) {
    const std::size_t i = heads.top();
    heads.pop();
    out.push_back(std::move(runs[i][pos[i]]));
    if (++pos[i] < runs[i].size()) heads.push(i);
  }
  return out;
}

}  // namespace ld::serving
