// striped_map.hpp — a lock-striped LRU map for shared caches.
//
// The service result cache sees point lookups and inserts from many
// workers with no cross-key operations, so a fixed array of
// independently locked shards (stripes) keyed by hash suffices:
// contention drops by the stripe count, and no resize of a global
// table ever stalls every worker at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace rtg::util {

/// Lock-striped map with per-shard LRU eviction for long-lived caches
/// (the service result cache). put() replaces existing values, and each
/// shard holds at most ceil(capacity / stripes) entries — inserting
/// beyond that evicts the shard's least-recently-used entry (gets and
/// puts both refresh recency). Eviction is per-shard, so a skewed key distribution can
/// evict earlier than a global-LRU would; for a cache that is only a
/// correctness-preserving memo, that is an acceptable trade for never
/// taking more than one lock per operation.
template <typename K, typename V, typename Hash = std::hash<K>>
class StripedLruMap {
 public:
  explicit StripedLruMap(std::size_t capacity, std::size_t stripes = 16)
      : shards_(stripes == 0 ? 1 : stripes) {
    const std::size_t n = shards_.size();
    per_shard_cap_ = (capacity + n - 1) / n;
    if (per_shard_cap_ == 0) per_shard_cap_ = 1;
  }

  /// Returns the value stored for `key` (refreshing its recency).
  [[nodiscard]] std::optional<V> get(const K& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  /// Inserts or replaces key -> value; evicts the shard's LRU entry
  /// when the shard is at capacity. Returns true iff an eviction
  /// happened.
  bool put(const K& key, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return false;
    }
    bool evicted = false;
    if (shard.map.size() >= per_shard_cap_) {
      const auto& lru = shard.order.back();
      shard.map.erase(lru.first);
      shard.order.pop_back();
      evicted = true;
      ++evictions_count_;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.order.begin());
    return evicted;
  }

  bool erase(const K& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    shard.order.erase(it->second);
    shard.map.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

  /// Total evictions since construction (across all shards).
  [[nodiscard]] std::size_t evictions() const {
    return evictions_count_.load(std::memory_order_relaxed);
  }

  /// Visits every entry under the shard locks, one shard at a time, in
  /// shard order then recency order (MRU first). `fn` must not call
  /// back into the map.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto& [k, v] : shard.order) fn(k, v);
    }
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.clear();
      shard.order.clear();
    }
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    // MRU at front; map points into the list.
    std::list<std::pair<K, V>> order;
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash> map;
  };

  [[nodiscard]] Shard& shard_for(const K& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_cap_ = 1;
  std::atomic<std::size_t> evictions_count_{0};
};

}  // namespace rtg::util
