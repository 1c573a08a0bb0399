#include "src/engine/neighborhood_cache.h"

#include <bit>
#include <utility>

namespace knnq {

namespace {

/// splitmix64 finalizer: cheap, well-distributed mixing for the key's
/// four words.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t RoundUpPow2(std::size_t n) {
  if (n <= 1) return 1;
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace

NeighborhoodCache::Key NeighborhoodCache::MakeKey(
    const SpatialIndex* relation, const Point& query, std::size_t k) {
  return Key{relation->instance_id(), std::bit_cast<std::uint64_t>(query.x),
             std::bit_cast<std::uint64_t>(query.y), k};
}

std::size_t NeighborhoodCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = Mix(key.relation_id);
  h = Mix(h ^ key.x_bits);
  h = Mix(h ^ key.y_bits);
  h = Mix(h ^ static_cast<std::uint64_t>(key.k));
  return static_cast<std::size_t>(h);
}

NeighborhoodCache::NeighborhoodCache(NeighborhoodCacheOptions options)
    : capacity_bytes_(options.capacity_bytes),
      shard_capacity_(options.capacity_bytes /
                      RoundUpPow2(options.num_shards)),
      shards_(RoundUpPow2(options.num_shards)) {
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

std::size_t NeighborhoodCache::EntryCost(const Neighborhood& neighborhood) {
  // List node + hash node bookkeeping, approximated by one flat
  // constant; exactness is not required for a byte *budget*.
  constexpr std::size_t kNodeOverhead = 64;
  return sizeof(Entry) + kNodeOverhead +
         neighborhood.capacity() * sizeof(Neighbor);
}

NeighborhoodCache::Shard& NeighborhoodCache::ShardFor(const Key& key) {
  // shards_.size() is a power of two; use the hash's high bits so the
  // shard choice stays independent of the map's bucket choice.
  const std::size_t h = KeyHash{}(key);
  return *shards_[(h >> 16) & (shards_.size() - 1)];
}

bool NeighborhoodCache::Lookup(const SpatialIndex* relation,
                               const Point& query, std::size_t k,
                               Neighborhood* out) {
  const Key key = MakeKey(relation, query, k);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->neighborhood;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void NeighborhoodCache::Insert(const SpatialIndex* relation,
                               const Point& query, std::size_t k,
                               const Neighborhood& neighborhood) {
  const Key key = MakeKey(relation, query, k);
  const std::size_t cost = EntryCost(neighborhood);
  if (cost > shard_capacity_) return;  // Could never fit; drop.

  Shard& shard = ShardFor(key);
  std::size_t evicted = 0;
  std::size_t evicted_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // A concurrent miss raced us here; the values are identical
      // (GetKnn is deterministic), so just refresh recency.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    while (shard.bytes + cost > shard_capacity_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      UnlinkChain(shard, &victim);
      shard.bytes -= victim.bytes;
      evicted_bytes += victim.bytes;
      shard.map.erase(victim.key);
      shard.lru.pop_back();
      ++evicted;
    }
    shard.lru.push_front(
        Entry{.key = key, .neighborhood = neighborhood, .bytes = cost});
    shard.map.emplace(key, shard.lru.begin());
    LinkChain(shard, &shard.lru.front());
    shard.bytes += cost;
  }
  bytes_.fetch_add(cost, std::memory_order_relaxed);
  if (evicted_bytes > 0) {
    bytes_.fetch_sub(evicted_bytes, std::memory_order_relaxed);
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

void NeighborhoodCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    shard->map.clear();
    shard->chains.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

void NeighborhoodCache::LinkChain(Shard& shard, Entry* entry) {
  Entry*& head = shard.chains[entry->key.relation_id];
  entry->rel_prev = nullptr;
  entry->rel_next = head;
  if (head != nullptr) head->rel_prev = entry;
  head = entry;
}

void NeighborhoodCache::UnlinkChain(Shard& shard, Entry* entry) {
  if (entry->rel_next != nullptr) entry->rel_next->rel_prev = entry->rel_prev;
  if (entry->rel_prev != nullptr) {
    entry->rel_prev->rel_next = entry->rel_next;
  } else if (entry->rel_next != nullptr) {
    shard.chains[entry->key.relation_id] = entry->rel_next;
  } else {
    shard.chains.erase(entry->key.relation_id);
  }
}

std::size_t NeighborhoodCache::InvalidateRelation(
    const SpatialIndex* relation) {
  return DropEntries(relation->instance_id());
}

std::size_t NeighborhoodCache::RetireRelation(std::uint64_t relation_id) {
  {
    std::lock_guard<std::mutex> lock(relation_generations_mu_);
    relation_generations_.erase(relation_id);
  }
  return DropEntries(relation_id);
}

std::size_t NeighborhoodCache::DropEntries(std::uint64_t relation_id) {
  std::size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto chain = shard->chains.find(relation_id);
    if (chain == shard->chains.end()) continue;
    std::size_t dropped_bytes = 0;
    for (Entry* entry = chain->second; entry != nullptr;) {
      Entry* const next = entry->rel_next;
      dropped_bytes += entry->bytes;
      const auto node = shard->map.find(entry->key);
      shard->lru.erase(node->second);
      shard->map.erase(node);
      entry = next;
      ++dropped;
    }
    shard->chains.erase(chain);
    shard->bytes -= dropped_bytes;
    bytes_.fetch_sub(dropped_bytes, std::memory_order_relaxed);
  }
  if (dropped > 0) {
    invalidated_.fetch_add(dropped, std::memory_order_relaxed);
  }
  return dropped;
}

std::size_t NeighborhoodCache::InvalidateIfGenerationChanged(
    const SpatialIndex* relation, std::uint64_t generation) {
  {
    std::lock_guard<std::mutex> lock(relation_generations_mu_);
    // A first observation still invalidates: entries cached before the
    // relation was ever reported here date from an older generation.
    auto [it, inserted] =
        relation_generations_.try_emplace(relation->instance_id(),
                                          generation);
    if (!inserted) {
      if (it->second == generation) return 0;
      it->second = generation;
    }
  }
  return InvalidateRelation(relation);
}

void NeighborhoodCache::InvalidateIfGenerationChanged(
    std::uint64_t generation) {
  std::uint64_t seen = generation_.load(std::memory_order_acquire);
  if (seen == generation) return;
  // First thread to observe the change clears; racing observers of the
  // same generation skip (Clear is idempotent anyway).
  if (generation_.compare_exchange_strong(seen, generation,
                                          std::memory_order_acq_rel)) {
    Clear();
  }
}

NeighborhoodCacheStats NeighborhoodCache::GetStats() const {
  NeighborhoodCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidated = invalidated_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->map.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

namespace {

/// ShardMemo over the shared cache: per-shard-child entries, keyed by
/// the child's instance id like any other relation.
class CacheShardMemo final : public ShardMemo {
 public:
  explicit CacheShardMemo(NeighborhoodCache* cache) : cache_(cache) {}

  bool Lookup(const SpatialIndex& shard, const Point& query, std::size_t k,
              Neighborhood* out) override {
    return cache_->Lookup(&shard, query, k, out);
  }

  void Store(const SpatialIndex& shard, const Point& query, std::size_t k,
             const Neighborhood& neighborhood) override {
    cache_->Insert(&shard, query, k, neighborhood);
  }

 private:
  NeighborhoodCache* cache_;
};

}  // namespace

Neighborhood CachingKnnSearcher::GetKnn(const Point& query, std::size_t k) {
  if (cache_ == nullptr) return searcher_.GetKnn(query, k);
  if (searcher_.sharded()) {
    // Per-shard caching: the scatter-gather search does its own
    // lookups/stores (and hit/miss accounting) through the memo.
    CacheShardMemo memo(cache_);
    return searcher_.GetKnn(query, k, &memo);
  }
  Neighborhood neighborhood;
  if (cache_->Lookup(&searcher_.index(), query, k, &neighborhood)) {
    ++searcher_.stats().cache_hits;
    return neighborhood;
  }
  ++searcher_.stats().cache_misses;
  neighborhood = searcher_.GetKnn(query, k);
  cache_->Insert(&searcher_.index(), query, k, neighborhood);
  return neighborhood;
}

}  // namespace knnq
