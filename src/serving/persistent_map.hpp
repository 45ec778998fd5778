// Persistent (path-copying) hash-array-mapped trie — the registry's shard
// map (DESIGN.md §16).
//
// The RCU shard map used to be a full std::map copied on every publish:
// O(shard size) per publish, which ROADMAP item 1 measured at 12 seconds for
// the last 5k tenants of a 10k-tenant onboarding sweep on one shard. This
// map replaces the whole-map copy with a path copy: `set` clones only the
// O(log32 n) branch nodes between the root and the touched leaf (each clone
// is <= 32 shared_ptr copies), and every untouched subtree is shared between
// the old and the new version by refcount. A publish at 1M-tenant occupancy
// therefore costs a handful of small node clones instead of a million-entry
// tree copy, while readers keep the exact RCU contract they had: they load
// one immutable root and never see a half-built version.
//
// Layout:
//  - Keys are hashed once (64-bit FNV-1a by default — the same hash that
//    places workloads on shards, so placement and trie paths agree across
//    processes). The trie consumes the hash MSB-first in 5-bit chunks:
//    levels 0..11 branch 32-wide on bits 63..4, level 12 branches 16-wide on
//    the final 4 bits. Two distinct hashes always diverge by level 12;
//    adversarial keys that collide in the *top* hash bits simply push the
//    split deeper (the property tests construct exactly those).
//  - A Branch holds a bitmap plus a popcount-compressed child array (no
//    nullptr slots), the classic HAMT trick: an interior node costs memory
//    proportional to its live children, not its branching factor.
//  - Keys whose full 64-bit hashes are equal share one collision leaf: a
//    small key-sorted entry vector scanned linearly (FNV collisions among
//    real workload names are vanishingly rare; the sort keeps iteration
//    deterministic regardless).
//
// The map itself is an immutable value: `set` returns a new map and leaves
// `*this` untouched. There is deliberately no erase — the tenant table never
// removes a tenant, and leaving it out keeps every structural invariant
// one-directional (a version's trie only ever grows or replaces leaves).
//
// The Hasher template parameter exists for the verification surface only:
// the differential/property tests inject degenerate hashers (constant, or
// top-bits-colliding) to drive the collision and deep-split paths that
// FNV-1a would take astronomical luck to reach. Production code uses the
// default.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ld::serving {

/// 64-bit FNV-1a — shared by workload_shard() (shard placement) and the
/// trie (path bits), so one hash per key serves both.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Fnv1aHasher {
  [[nodiscard]] constexpr std::uint64_t operator()(std::string_view key) const noexcept {
    return fnv1a64(key);
  }
};

template <typename Value, typename Hasher = Fnv1aHasher>
class PersistentHashMap {
 public:
  struct Entry {
    std::string key;
    std::uint64_t hash = 0;
    Value value;
  };

  PersistentHashMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the value stored under `key`, or nullptr. Wait-free given an
  /// immutable map: a pure walk down at most 13 shared, immutable nodes.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept {
    return find(key, Hasher{}(key));
  }

  /// find() for a caller that already computed `hash` = Hasher{}(key) (the
  /// sharded table hashes once for placement and path).
  [[nodiscard]] const Value* find(std::string_view key, std::uint64_t hash) const noexcept {
    const Node* node = root_.get();
    for (std::size_t level = 0; node != nullptr; ++level) {
      if (node->kind != Node::Kind::kBranch) {
        for (const Entry& e : node->entries)
          if (e.hash == hash && e.key == key) return &e.value;
        return nullptr;
      }
      const std::uint32_t bit = 1u << chunk(hash, level);
      if ((node->bitmap & bit) == 0) return nullptr;
      node = node->children[compressed_index(node->bitmap, bit)].get();
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }

  /// Insert-or-replace: returns the new version; `*this` is unchanged.
  /// Copies the O(log n) spine from the root to the touched leaf; every
  /// sibling subtree is shared with the previous version.
  [[nodiscard]] PersistentHashMap set(std::string key, Value value) const {
    Entry entry{std::move(key), 0, std::move(value)};
    entry.hash = Hasher{}(entry.key);
    bool inserted = false;
    PersistentHashMap next;
    next.root_ = insert(root_, 0, std::move(entry), inserted);
    next.size_ = size_ + (inserted ? 1 : 0);
    return next;
  }

  /// Visit every (key, value) in hash order (MSB-first chunking makes this
  /// ascending-hash order; collision leaves are key-sorted). Deterministic
  /// for a given key set, but NOT name order — callers that need the
  /// registry's sorted contract go through sorted_keys()/sorted_entries().
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (root_) visit(*root_, fn);
  }

  /// All keys, sorted by name (the registry's external iteration contract:
  /// sort keys are workload names, never hashes).
  [[nodiscard]] std::vector<std::string> sorted_keys() const {
    std::vector<std::string> keys;
    keys.reserve(size_);
    for_each([&](const std::string& key, const Value&) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// All (key, value) pairs, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, Value>> sorted_entries() const {
    std::vector<std::pair<std::string, Value>> entries;
    entries.reserve(size_);
    for_each([&](const std::string& key, const Value& value) {
      entries.emplace_back(key, value);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return entries;
  }

  /// Deepest branch depth (root = 1; 0 when empty). Test-only observability:
  /// the adversarial-collision tests assert top-bit collisions actually
  /// push splits deeper instead of silently degrading to a linear scan.
  [[nodiscard]] std::size_t depth_for_test() const noexcept {
    return root_ ? depth(*root_) : 0;
  }

 private:
  // 5-bit chunks, MSB first: levels 0..11 cover bits 63..4 (32-wide), level
  // 12 covers bits 3..0 (16-wide). Any two distinct 64-bit hashes diverge at
  // some level <= kMaxLevel; only full-hash collisions share a leaf.
  static constexpr std::size_t kBits = 5;
  static constexpr std::size_t kMaxLevel = 12;

  struct Node {
    enum class Kind : std::uint8_t {
      kBranch,     ///< bitmap + compressed children
      kLeaf,       ///< exactly one entry
      kCollision,  ///< >= 2 entries sharing one full 64-bit hash, key-sorted
    };
    Kind kind = Node::Kind::kLeaf;
    std::uint32_t bitmap = 0;
    std::vector<std::shared_ptr<const Node>> children;
    std::vector<Entry> entries;
  };
  using NodePtr = std::shared_ptr<const Node>;

  [[nodiscard]] static constexpr std::uint32_t chunk(std::uint64_t hash,
                                                     std::size_t level) noexcept {
    if (level >= kMaxLevel) return static_cast<std::uint32_t>(hash & 0xF);
    return static_cast<std::uint32_t>(hash >> (64 - kBits * (level + 1))) & 0x1F;
  }

  [[nodiscard]] static constexpr std::size_t compressed_index(std::uint32_t bitmap,
                                                              std::uint32_t bit) noexcept {
    return static_cast<std::size_t>(std::popcount(bitmap & (bit - 1)));
  }

  [[nodiscard]] static NodePtr make_leaf(Entry entry) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::kLeaf;
    node->entries.push_back(std::move(entry));
    return node;
  }

  /// Merge `entry` into a leaf/collision whose entries share its full hash:
  /// replace the matching key in place or insert key-sorted.
  [[nodiscard]] static NodePtr merge_same_hash(const Node& node, Entry entry) {
    auto next = std::make_shared<Node>();
    next->entries = node.entries;
    bool replaced = false;
    for (Entry& e : next->entries) {
      if (e.key == entry.key) {
        e.value = std::move(entry.value);
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      auto pos = next->entries.begin();
      while (pos != next->entries.end() && pos->key < entry.key) ++pos;
      next->entries.insert(pos, std::move(entry));
    }
    next->kind = next->entries.size() > 1 ? Node::Kind::kCollision : Node::Kind::kLeaf;
    return next;
  }

  /// Split a leaf/collision against a new entry with a *different* hash:
  /// grow branches downward until the two hashes' chunks diverge (guaranteed
  /// by level kMaxLevel — all 64 bits are consumed by then).
  [[nodiscard]] static NodePtr split(NodePtr existing, std::uint64_t existing_hash,
                                     Entry entry, std::size_t level) {
    if (level > kMaxLevel)
      throw std::logic_error("PersistentHashMap: distinct hashes failed to diverge");
    auto branch = std::make_shared<Node>();
    branch->kind = Node::Kind::kBranch;
    const std::uint32_t idx_old = chunk(existing_hash, level);
    const std::uint32_t idx_new = chunk(entry.hash, level);
    if (idx_old == idx_new) {
      branch->bitmap = 1u << idx_old;
      branch->children.push_back(
          split(std::move(existing), existing_hash, std::move(entry), level + 1));
      return branch;
    }
    branch->bitmap = (1u << idx_old) | (1u << idx_new);
    NodePtr fresh = make_leaf(std::move(entry));
    if (idx_old < idx_new) {
      branch->children.push_back(std::move(existing));
      branch->children.push_back(std::move(fresh));
    } else {
      branch->children.push_back(std::move(fresh));
      branch->children.push_back(std::move(existing));
    }
    return branch;
  }

  [[nodiscard]] static NodePtr insert(const NodePtr& node, std::size_t level, Entry entry,
                                      bool& inserted) {
    if (!node) {
      inserted = true;
      return make_leaf(std::move(entry));
    }
    if (node->kind != Node::Kind::kBranch) {
      const std::uint64_t existing_hash = node->entries.front().hash;
      if (existing_hash == entry.hash) {
        const std::size_t before = node->entries.size();
        NodePtr merged = merge_same_hash(*node, std::move(entry));
        inserted = merged->entries.size() > before;
        return merged;
      }
      inserted = true;
      return split(node, existing_hash, std::move(entry), level);
    }
    // Branch: clone the node (the "spine" copy — <= 32 shared_ptr bumps),
    // then descend into exactly one child slot.
    auto next = std::make_shared<Node>(*node);
    const std::uint32_t bit = 1u << chunk(entry.hash, level);
    const std::size_t slot = compressed_index(next->bitmap, bit);
    if ((next->bitmap & bit) != 0) {
      next->children[slot] = insert(next->children[slot], level + 1, std::move(entry),
                                    inserted);
    } else {
      inserted = true;
      next->bitmap |= bit;
      next->children.insert(next->children.begin() + static_cast<std::ptrdiff_t>(slot),
                            make_leaf(std::move(entry)));
    }
    return next;
  }

  template <typename Fn>
  static void visit(const Node& node, Fn& fn) {
    if (node.kind == Node::Kind::kBranch) {
      for (const NodePtr& child : node.children) visit(*child, fn);
      return;
    }
    for (const Entry& e : node.entries) fn(e.key, e.value);
  }

  [[nodiscard]] static std::size_t depth(const Node& node) noexcept {
    if (node.kind != Node::Kind::kBranch) return 1;
    std::size_t deepest = 0;
    for (const NodePtr& child : node.children)
      deepest = std::max(deepest, depth(*child));
    return 1 + deepest;
  }

  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace ld::serving
