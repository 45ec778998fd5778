// Verification surface for the persistent-map registry core (DESIGN.md §16):
//
//  - RegistryProperty: seeded random op sequences (publish / overwrite /
//    lookup / iterate / version-snapshot) driven differentially against a
//    std::map oracle, including adversarial hashers whose keys collide in
//    the *top* hash bits (forcing maximum-depth splits) or in all 64 bits
//    (forcing collision leaves). All randomness flows from ld::Rng, the
//    verify::Mutator seeding discipline from DESIGN.md §11: a failure
//    reproduces from (seed, iteration) alone.
//  - RegistryFuzz: verify::run_fuzz mutations of op scripts plus replay of
//    the tests/golden/corpus/registry_* seed corpus — the same
//    structure-aware corpus workflow the protocol/CSV/WAL parsers use.
//  - RegistryConcurrency: N inserter x M reader threads on one shard of
//    the service's ShardedTable assert readers always observe a
//    fully-formed map version (no torn spine), that an existing entry is
//    never replaced, and that names() streamed during inserts stays sorted,
//    duplicate-free, and monotone. The TSan CI job runs this suite
//    ("Registry" is in its filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serving/persistent_map.hpp"
#include "serving/registry.hpp"
#include "verify/fuzz.hpp"

namespace {

using namespace ld;
using serving::PersistentHashMap;

// ---------------------------------------------------------------------------
// Hashers. The trie consumes hashes MSB-first, so fixing the top 60 bits
// makes every key share one root-to-level-12 path: splits are forced to the
// deepest branch level, and keys whose final 4 bits also agree share a full
// 64-bit hash — the collision-leaf path. A constant hasher degenerates the
// whole map into one collision leaf.

struct TopBitsCollideHasher {
  std::uint64_t operator()(std::string_view key) const noexcept {
    return 0xA5A5A5A5A5A5A5A0ULL | (serving::fnv1a64(key) & 0xFULL);
  }
};

struct ConstantHasher {
  std::uint64_t operator()(std::string_view) const noexcept {
    return 0xDEADBEEFCAFEF00DULL;
  }
};

// ---------------------------------------------------------------------------
// Differential harness: every operation runs against the persistent map and
// a std::map oracle; any disagreement throws verify::InvariantViolation so
// the same harness serves the property tests and the fuzz target.

template <typename Hasher>
class DiffHarness {
 public:
  using Map = PersistentHashMap<int, Hasher>;

  void set(const std::string& key, int value) {
    map_ = map_.set(key, value);
    oracle_[key] = value;
    if (map_.size() != oracle_.size())
      fail("size mismatch after set '" + key + "': map " +
           std::to_string(map_.size()) + " vs oracle " + std::to_string(oracle_.size()));
  }

  void get(const std::string& key) const {
    const int* found = map_.find(key);
    const auto it = oracle_.find(key);
    if ((found != nullptr) != (it != oracle_.end()))
      fail("presence mismatch for '" + key + "'");
    if (found != nullptr && *found != it->second)
      fail("value mismatch for '" + key + "': map " + std::to_string(*found) +
           " vs oracle " + std::to_string(it->second));
    if (map_.contains(key) != (found != nullptr)) fail("contains()/find() disagree");
  }

  void iterate() const { check_pair(map_, oracle_); }

  /// Pin the current version; later sets must never disturb it.
  void snap() {
    if (snaps_.size() >= 8) snaps_.erase(snaps_.begin());
    snaps_.emplace_back(map_, oracle_);
  }

  void check_snaps() const {
    for (const auto& [map, oracle] : snaps_) check_pair(map, oracle);
  }

  void check_all() const {
    iterate();
    check_snaps();
    for (const auto& [key, _] : oracle_) get(key);
  }

  [[nodiscard]] const Map& map() const noexcept { return map_; }
  [[nodiscard]] const std::map<std::string, int>& oracle() const noexcept { return oracle_; }

 private:
  static void check_pair(const Map& map, const std::map<std::string, int>& oracle) {
    if (map.size() != oracle.size()) fail("size mismatch on iterate");
    const std::vector<std::pair<std::string, int>> entries = map.sorted_entries();
    auto it = oracle.begin();
    for (std::size_t i = 0; i < entries.size(); ++i, ++it) {
      if (entries[i].first != it->first)
        fail("iteration order diverged at '" + entries[i].first + "' vs '" + it->first +
             "' — sort key must be the name, not the hash");
      if (entries[i].second != it->second) fail("iterated value mismatch");
    }
    const std::vector<std::string> keys = map.sorted_keys();
    if (keys.size() != entries.size()) fail("sorted_keys/sorted_entries cardinality");
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] != entries[i].first) fail("sorted_keys/sorted_entries order");
    std::size_t visited = 0;
    map.for_each([&](const std::string& key, const int& value) {
      ++visited;
      const auto found = oracle.find(key);
      if (found == oracle.end() || found->second != value)
        fail("for_each yielded a key/value the oracle does not hold");
    });
    if (visited != oracle.size()) fail("for_each visit count mismatch");
  }

  [[noreturn]] static void fail(const std::string& what) {
    throw verify::InvariantViolation("registry diff: " + what);
  }

  Map map_;
  std::map<std::string, int> oracle_;
  std::vector<std::pair<Map, std::map<std::string, int>>> snaps_;
};

/// Seeded random op sequence: ~40% inserts, ~20% overwrites, ~25% lookups
/// (hit and miss), periodic iteration and version pinning.
template <typename Hasher>
void run_random_ops(std::uint64_t seed, std::size_t ops, std::size_t key_space) {
  Rng rng(seed);
  DiffHarness<Hasher> harness;
  const auto key = [&] {
    return "k" + std::to_string(rng.uniform_int(0, static_cast<long long>(key_space)));
  };
  for (std::size_t i = 0; i < ops; ++i) {
    const long long dice = rng.uniform_int(0, 99);
    if (dice < 60) {
      harness.set(key(), static_cast<int>(rng.uniform_int(-1000, 1000)));
    } else if (dice < 85) {
      harness.get(key());
    } else if (dice < 95) {
      harness.iterate();
    } else {
      harness.snap();
    }
    if (i % 97 == 0) harness.check_snaps();
  }
  harness.check_all();
}

// ---------------------------------------------------------------------------
// RegistryProperty

TEST(RegistryProperty, DifferentialAgainstMapOracleFnv) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL})
    ASSERT_NO_THROW(run_random_ops<serving::Fnv1aHasher>(seed, 4000, 1500)) << seed;
}

TEST(RegistryProperty, AdversarialTopBitCollisionsSplitDeepNotWrong) {
  // Top 60 bits fixed: every distinct-suffix pair of keys diverges only at
  // the deepest branch level, and ~1/16 of pairs collide in all 64 bits.
  for (const std::uint64_t seed : {21ULL, 22ULL})
    ASSERT_NO_THROW(run_random_ops<TopBitsCollideHasher>(seed, 2000, 400)) << seed;

  DiffHarness<TopBitsCollideHasher> harness;
  for (int i = 0; i < 64; ++i) harness.set("w" + std::to_string(i), i);
  ASSERT_NO_THROW(harness.check_all());
  // The layout claim, not just the answers: colliding top bits force the
  // spine through every branch level (12 branch levels + the leaf).
  EXPECT_GE(harness.map().depth_for_test(), 13u)
      << "top-bit collisions should split at the deepest level";
}

TEST(RegistryProperty, FullHashCollisionsDegradeToOneSortedLeaf) {
  for (const std::uint64_t seed : {31ULL, 32ULL})
    ASSERT_NO_THROW(run_random_ops<ConstantHasher>(seed, 800, 64)) << seed;

  DiffHarness<ConstantHasher> harness;
  for (int i = 0; i < 32; ++i) harness.set("c" + std::to_string(i), i);
  ASSERT_NO_THROW(harness.check_all());
  EXPECT_EQ(harness.map().depth_for_test(), 1u)
      << "one shared hash must collapse into a single collision leaf";
}

TEST(RegistryProperty, OldVersionsArePinnedForever) {
  // The RCU contract the registry swap rests on: a pinned version is frozen
  // however many publishes follow — byte-for-byte, not just size-for-size.
  using Map = PersistentHashMap<int>;
  Map empty;
  Map v1 = empty.set("wiki", 1);
  Map v2 = v1.set("azure", 2);
  Map v3 = v2.set("wiki", 3);  // overwrite must not disturb v1/v2
  EXPECT_EQ(empty.size(), 0u);
  ASSERT_NE(v1.find("wiki"), nullptr);
  EXPECT_EQ(*v1.find("wiki"), 1);
  EXPECT_EQ(v1.find("azure"), nullptr);
  EXPECT_EQ(*v2.find("wiki"), 1);
  EXPECT_EQ(*v2.find("azure"), 2);
  EXPECT_EQ(*v3.find("wiki"), 3);
  EXPECT_EQ(v3.size(), 2u);
  // Structural sharing: the untouched subtree is the same node, not a copy.
  EXPECT_EQ(v2.find("azure"), v3.find("azure"))
      << "path copying must share untouched subtrees between versions";
}

// ---------------------------------------------------------------------------
// RegistryFuzz: op-script interpreter as a fuzz target. The script grammar
// is whitespace-tokenized `set <key> <int>` / `get <key>` / `iter` / `snap`
// / `check` lines; anything malformed is skipped (a clean reject), and the
// differential invariants must hold across whatever survives mutation.

void run_script(const std::string& script) {
  DiffHarness<serving::Fnv1aHasher> harness;
  std::istringstream lines(script);
  std::string line;
  std::size_t applied = 0;
  while (std::getline(lines, line) && applied < 4096) {
    std::istringstream tokens(line);
    std::string verb, key;
    if (!(tokens >> verb)) continue;
    ++applied;
    if (verb == "set") {
      long long value = 0;
      if (tokens >> key >> value) harness.set(key, static_cast<int>(value));
    } else if (verb == "get") {
      if (tokens >> key) harness.get(key);
    } else if (verb == "iter") {
      harness.iterate();
    } else if (verb == "snap") {
      harness.snap();
    } else if (verb == "check") {
      harness.check_snaps();
    }
  }
  harness.check_all();
}

std::vector<std::string> registry_seed_scripts() {
  // Replay the committed corpus as the seed set so mutations start from
  // structure-rich inputs (mirrors verify::protocol_seeds()).
  std::vector<std::string> seeds;
  for (const std::string& path :
       verify::replay_corpus(LD_CORPUS_DIR, "registry_", [](const std::string&) {})) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    seeds.push_back(slurp.str());
  }
  return seeds;
}

TEST(RegistryFuzz, SeedCorpusReplaysClean) {
  const std::vector<std::string> replayed =
      verify::replay_corpus(LD_CORPUS_DIR, "registry_", run_script);
  EXPECT_GE(replayed.size(), 4u) << "registry_* seed corpus went missing";
}

TEST(RegistryFuzz, MutatedOpScriptsKeepTheOracleContract) {
  const std::vector<std::string> seeds = registry_seed_scripts();
  ASSERT_FALSE(seeds.empty());
  const verify::FuzzReport report =
      verify::run_fuzz(seeds, run_script, /*seed=*/0x7e9157ULL, /*iterations=*/600);
  EXPECT_TRUE(report.ok()) << report.summary()
                           << (report.failures.empty()
                                   ? ""
                                   : "\nfirst failing input:\n" +
                                         report.failures.front().input + "\n" +
                                         report.failures.front().message);
  EXPECT_EQ(report.iterations, 600u);
}

// ---------------------------------------------------------------------------
// RegistryConcurrency (TSan filter: "Registry")

TEST(RegistryConcurrency, ReadersNeverSeeATornSpine) {
  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kPerPublisher = 400;
  // One shard: all writers collide. Each value is the name itself, so a
  // reader can tell an entry from any other.
  serving::ShardedTable<std::shared_ptr<const std::string>> table(1);
  const auto name_of = [](std::size_t p, std::size_t i) {
    return "w" + std::to_string(p) + "-" + std::to_string(i);
  };

  std::atomic<bool> done{false};
  std::atomic<std::size_t> remade{0};
  std::vector<std::string> all_names;
  for (std::size_t p = 0; p < kPublishers; ++p)
    for (std::size_t i = 0; i < kPerPublisher; ++i) all_names.push_back(name_of(p, i));

  // Per-publisher insert counts, released after each insert returns, so a
  // reader can pick names it *knows* are in and demand find() returns them.
  std::array<std::atomic<std::size_t>, kPublishers> acked{};
  std::vector<std::thread> publishers;
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerPublisher; ++i) {
        const std::string name = name_of(p, i);
        (void)table.insert(name, [&] { return std::make_shared<const std::string>(name); });
        // Re-inserts interleave with inserts: an existing key must come back
        // unchanged without running its factory, while readers race both.
        if (i % 7 == 3) {
          const std::string earlier = name_of(p, i / 2);
          const auto kept = table.insert(earlier, [&] {
            remade.fetch_add(1, std::memory_order_relaxed);
            return std::make_shared<const std::string>("remade");
          });
          if (kept == nullptr || *kept != earlier) remade.fetch_add(1, std::memory_order_relaxed);
        }
        acked[p].store(i + 1, std::memory_order_release);
      }
    });
  }

  std::atomic<std::size_t> reader_failures{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      std::size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t p =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<long long>(kPublishers) - 1));
        const std::size_t n = acked[p].load(std::memory_order_acquire);
        if (n > 0) {
          // Once its insert returned, a name must be findable — in every
          // later map version, not just the one current at insert time.
          const std::size_t i =
              static_cast<std::size_t>(rng.uniform_int(0, static_cast<long long>(n - 1)));
          const std::string name = name_of(p, i);
          const auto found = table.find(name);
          if (found == nullptr || *found != name)
            reader_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Read-read coherence on the shard root: sizes a thread observes are
        // monotone because inserts only grow the map.
        const std::size_t size = table.size();
        if (size < last_size) reader_failures.fetch_add(1, std::memory_order_relaxed);
        last_size = size;
      }
    });
  }

  for (auto& t : publishers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0u);
  EXPECT_EQ(remade.load(), 0u) << "an insert replaced or re-made an existing entry";

  // Every insert landed exactly once, readable and iterable.
  EXPECT_EQ(table.size(), all_names.size());
  std::vector<std::string> expected = all_names;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(table.names(), expected);
  for (const std::string& name : all_names) {
    const auto found = table.find(name);
    ASSERT_NE(found, nullptr) << name;
    EXPECT_EQ(*found, name);
  }
}

TEST(RegistryConcurrency, NamesStreamedDuringPublishesStaysSortedAndMonotone) {
  constexpr std::size_t kNames = 600;
  serving::ShardedTable<int> table(4);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> scrape_failures{0};
  std::thread scraper([&] {
    std::vector<std::string> previous;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<std::string> now = table.names();
      // Byte-stability under concurrent inserts: globally sorted, no
      // duplicates, and monotone — a name can appear, never vanish.
      if (!std::is_sorted(now.begin(), now.end()) ||
          std::adjacent_find(now.begin(), now.end()) != now.end() ||
          !std::includes(now.begin(), now.end(), previous.begin(), previous.end()))
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      previous = std::move(now);
    }
  });

  Rng shuffle_rng(77);
  std::vector<std::string> order;
  for (std::size_t i = 0; i < kNames; ++i)
    order.push_back(std::string("t").append(std::to_string(i)));
  std::vector<std::size_t> index = shuffle_rng.permutation(order.size());
  for (const std::size_t i : index) (void)table.insert(order[i], [] { return 1; });
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(scrape_failures.load(), 0u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(table.names(), order);
}

}  // namespace
