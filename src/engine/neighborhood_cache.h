// NeighborhoodCache: a sharded, thread-safe, bounded memo of getkNN
// results shared ACROSS queries.
//
// The paper's chained-join cache (Section 4.2.1) reuses b-neighborhoods
// within one query; under batch load (QueryEngine::RunBatch) different
// queries over the same relations recompute identical neighborhoods -
// repeated focal points, repeated (outer point, join k) probes, and
// Block-Marking's block-center probes. This cache memoizes the full
// GetKnn primitive under the key (relation, query point, k) so that
// work is shared across the whole batch.
//
// Only unrestricted GetKnn results are cached. GetKnnRestricted output
// depends on the caller-supplied threshold (entries beyond it may
// deviate from the true neighborhood, see DESIGN.md note 5), so those
// searches always pass through - keeping cached and uncached execution
// byte-identical.
//
// Concurrency: the key space is split over power-of-two shards, each a
// mutex-protected LRU list + hash map. Eviction is LRU per shard with a
// byte budget of capacity_bytes / num_shards. Hit/miss/eviction
// counters are relaxed atomics; exact cross-shard snapshots are not
// needed, only monotone totals.
//
// Invalidation: every shard also threads its entries onto one intrusive
// chain per relation, headed from a relation id -> entry map. Dropping
// a relation's entries (the per-write invalidation of ExecuteDml) costs
// one map probe per shard plus the entries dropped - never a walk over
// the rest of the cache, which may hold tens of MiB of other relations'
// neighborhoods.

#ifndef KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_
#define KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/point.h"
#include "src/index/knn_searcher.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// Cache construction knobs.
struct NeighborhoodCacheOptions {
  /// Total byte budget across all shards. A cache of 0 bytes holds
  /// nothing (every Insert is dropped) but stays safe to use.
  std::size_t capacity_bytes = 64ull << 20;

  /// Requested shard count; rounded up to a power of two, minimum 1.
  /// More shards mean less lock contention under RunBatch.
  std::size_t num_shards = 16;
};

/// Monotone counters plus a point-in-time footprint snapshot.
struct NeighborhoodCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Entries dropped by per-relation invalidation (not LRU pressure).
  std::uint64_t invalidated = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Sharded (relation, query point, k) -> Neighborhood memo. All public
/// member functions are thread-safe.
class NeighborhoodCache {
 public:
  explicit NeighborhoodCache(NeighborhoodCacheOptions options = {});

  NeighborhoodCache(const NeighborhoodCache&) = delete;
  NeighborhoodCache& operator=(const NeighborhoodCache&) = delete;

  /// On a hit, copies the cached neighborhood into `*out`, refreshes
  /// the entry's LRU position and returns true. Identity of `relation`
  /// is the index OBJECT via its process-unique instance_id(): two
  /// structures over the same points cache separately (and, GetKnn
  /// being deterministic, hold byte-identical values), and an index
  /// replaced by copy-on-write can never serve the entries of the
  /// object it replaced (a reused heap address would; instance ids are
  /// never reused).
  bool Lookup(const SpatialIndex* relation, const Point& query,
              std::size_t k, Neighborhood* out);

  /// Memoizes a computed neighborhood. Entries larger than a whole
  /// shard's budget are dropped; otherwise the shard evicts LRU-first
  /// until the new entry fits. Inserting a key that is already present
  /// (a concurrent miss on both threads) only refreshes its position.
  void Insert(const SpatialIndex* relation, const Point& query,
              std::size_t k, const Neighborhood& neighborhood);

  /// Drops every entry. Counters other than `entries`/`bytes` persist.
  void Clear();

  /// Drops only the entries cached for `relation`, leaving every other
  /// relation's neighborhoods hot — the point of keying invalidation
  /// per relation instead of nuking the cache on any catalog change.
  /// Costs one probe per shard plus the dropped entries. Returns the
  /// number of entries dropped.
  std::size_t InvalidateRelation(const SpatialIndex* relation);

  /// Drops the entries cached under index instance `relation_id` and
  /// forgets its generation record. For copy-on-write replacement,
  /// where the retired index object may already be destroyed: its
  /// entries are unreachable (the replacement has a fresh instance id)
  /// but would otherwise hold cache bytes until LRU pressure drains
  /// them. Same cost as InvalidateRelation; returns the number of
  /// entries dropped.
  std::size_t RetireRelation(std::uint64_t relation_id);

  /// Per-relation generation hook: when `generation` differs from the
  /// last value observed for `relation`, that relation's entries (and
  /// only those) are dropped. QueryEngine::ExecuteDml calls this with
  /// the written relation's new Catalog generation. Returns the number
  /// of entries dropped (0 when the generation is unchanged).
  std::size_t InvalidateIfGenerationChanged(const SpatialIndex* relation,
                                            std::uint64_t generation);

  /// Whole-catalog invalidation hook: when `generation` differs from
  /// the last observed catalog-wide value, the cache clears itself
  /// (cached pointers could otherwise dangle or alias a new relation).
  /// Kept for callers embedding the cache next to a catalog they keep
  /// extending; mutations go through the per-relation overload.
  void InvalidateIfGenerationChanged(std::uint64_t generation);

  NeighborhoodCacheStats GetStats() const;

  /// Current footprint from a relaxed atomic - no shard locks. The
  /// per-query cache_bytes snapshot in ExecStats reads this.
  std::size_t size_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  /// Coordinates are keyed by BIT PATTERN, not double equality: hashing
  /// already inspects the bits, and defaulted double comparison would
  /// break the map's hash/equality contract for -0.0 vs +0.0 and make
  /// NaN keys (NaN != NaN) unfindable - and thus unevictable.
  struct Key {
    /// SpatialIndex::instance_id() of the relation (or shard child).
    std::uint64_t relation_id;
    std::uint64_t x_bits;
    std::uint64_t y_bits;
    std::size_t k;

    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  struct Entry {
    Key key;
    Neighborhood neighborhood;
    std::size_t bytes;
    /// Intrusive links of the shard's chain for key.relation_id.
    /// std::list nodes never move, so the pointers stay valid until
    /// the entry is erased (which unlinks it first). Both pointers are
    /// part of sizeof(Entry) and so charged by EntryCost: the byte
    /// budget still bounds the cache's footprint.
    Entry* rel_prev = nullptr;
    Entry* rel_next = nullptr;
  };

  /// One lock domain. LRU list front = most recently used.
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    /// relation id -> head of that relation's entry chain. Holds a key
    /// only while the chain is non-empty, so its few nodes (one per
    /// relation with live entries here) are left out of the budget.
    std::unordered_map<std::uint64_t, Entry*> chains;
    std::size_t bytes = 0;
  };

  static Key MakeKey(const SpatialIndex* relation, const Point& query,
                     std::size_t k);

  /// Drops every entry keyed under `relation_id` by walking that
  /// relation's chain in each shard, and returns how many it dropped
  /// (generation records are left alone — only RetireRelation forgets
  /// those).
  std::size_t DropEntries(std::uint64_t relation_id);

  /// Links `entry` at the head of its relation's chain in `shard`.
  static void LinkChain(Shard& shard, Entry* entry);

  /// Unlinks `entry` from its relation's chain in `shard`, dropping
  /// the chain's map key when it empties.
  static void UnlinkChain(Shard& shard, Entry* entry);

  /// Approximate heap charge of one entry (list node + map node + the
  /// neighborhood's own allocation).
  static std::size_t EntryCost(const Neighborhood& neighborhood);

  Shard& ShardFor(const Key& key);

  const std::size_t capacity_bytes_;
  const std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidated_{0};
  std::atomic<std::uint64_t> generation_{0};
  /// Last generation observed per relation instance id (per-relation
  /// invalidation).
  mutable std::mutex relation_generations_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> relation_generations_;
};

/// Drop-in KnnSearcher with an optional shared cache behind GetKnn.
/// With a null cache it is a plain KnnSearcher; with one attached,
/// GetKnn consults the memo first and records hits/misses in the
/// searcher's SearchStats (folded into ExecStats by the evaluators).
/// GetKnnRestricted always passes through (see the cache's header
/// comment). Like KnnSearcher, not thread-safe: one per thread; the
/// cache itself is safely shared.
///
/// Over a ShardedIndex, caching happens PER SHARD: the scatter-gather
/// search is handed a ShardMemo keyed by child instance ids, so a
/// mutation that copy-on-write-replaces one shard leaves every other
/// shard's cached neighborhoods serving.
class CachingKnnSearcher {
 public:
  explicit CachingKnnSearcher(const SpatialIndex& index,
                              NeighborhoodCache* cache = nullptr)
      : searcher_(index), cache_(cache) {}

  Neighborhood GetKnn(const Point& query, std::size_t k);

  Neighborhood GetKnnRestricted(const Point& query, std::size_t k,
                                double threshold) {
    return searcher_.GetKnnRestricted(query, k, threshold);
  }

  const SpatialIndex& index() const { return searcher_.index(); }

  SearchStats& stats() { return searcher_.stats(); }
  const SearchStats& stats() const { return searcher_.stats(); }

 private:
  KnnSearcher searcher_;
  NeighborhoodCache* cache_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_
