// NeighborhoodCache tests: hit/miss accounting, LRU capacity
// eviction, cross-index-structure determinism of cached values,
// catalog-generation invalidation, the per-relation invalidation
// chains (against a plain LRU model, and racing concurrent probes),
// the write span's cache_invalidated count, and the engine-level
// guarantee the whole subsystem exists to preserve - a multi-threaded
// cached RunBatch returns results byte-identical to uncached serial
// execution over all six query shapes and all three index structures.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::AllIndexTypes;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

NeighborhoodCacheOptions SmallCache(std::size_t capacity_bytes,
                                    std::size_t shards = 1) {
  NeighborhoodCacheOptions options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = shards;
  return options;
}

TEST(NeighborhoodCacheTest, HitAndMissAccounting) {
  const PointSet points = MakeUniform(300, 11);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache;

  CachingKnnSearcher searcher(*index, &cache);
  const Point q{.id = -1, .x = 500, .y = 400};
  const Neighborhood first = searcher.GetKnn(q, 7);
  EXPECT_EQ(searcher.stats().cache_hits, 0u);
  EXPECT_EQ(searcher.stats().cache_misses, 1u);

  const Neighborhood second = searcher.GetKnn(q, 7);
  EXPECT_EQ(searcher.stats().cache_hits, 1u);
  EXPECT_EQ(searcher.stats().cache_misses, 1u);
  EXPECT_EQ(first, second);

  // A different k is a different key.
  (void)searcher.GetKnn(q, 8);
  EXPECT_EQ(searcher.stats().cache_misses, 2u);

  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  // The lock-free footprint counter agrees with the shard walk.
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  EXPECT_NEAR(stats.hit_rate(), 1.0 / 3.0, 1e-9);
}

TEST(NeighborhoodCacheTest, CachedValueMatchesFreshComputation) {
  const PointSet points = MakeCity(1000, 13);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache;
  CachingKnnSearcher cached(*index, &cache);
  KnnSearcher plain(*index);

  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(12));
    // Probe twice: the second answer comes from the cache and must be
    // byte-identical to an uncached searcher's.
    (void)cached.GetKnn(q, k);
    EXPECT_EQ(cached.GetKnn(q, k), plain.GetKnn(q, k));
  }
  EXPECT_EQ(cache.GetStats().hits, 40u);
}

TEST(NeighborhoodCacheTest, NullCachePassesThrough) {
  const PointSet points = MakeUniform(200, 19);
  const auto index = MakeIndex(points);
  CachingKnnSearcher searcher(*index, nullptr);
  KnnSearcher plain(*index);
  const Point q{.id = -1, .x = 100, .y = 100};
  EXPECT_EQ(searcher.GetKnn(q, 5), plain.GetKnn(q, 5));
  EXPECT_EQ(searcher.stats().cache_hits, 0u);
  EXPECT_EQ(searcher.stats().cache_misses, 0u);
}

TEST(NeighborhoodCacheTest, CapacityEvictionIsLruAndBounded) {
  const PointSet points = MakeUniform(500, 23);
  const auto index = MakeIndex(points);
  // Room for only a handful of k=4 entries in a single shard.
  NeighborhoodCache cache(SmallCache(2048));
  CachingKnnSearcher searcher(*index, &cache);

  const Point hot{.id = -1, .x = 500, .y = 400};
  (void)searcher.GetKnn(hot, 4);
  for (int i = 0; i < 64; ++i) {
    // Keep the hot key recent while a stream of distinct keys churns
    // the rest of the shard.
    (void)searcher.GetKnn(hot, 4);
    (void)searcher.GetKnn(
        Point{.id = -1, .x = static_cast<double>(i * 13 % 1000),
              .y = static_cast<double>(i * 29 % 800)},
        4);
  }

  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 2048u);
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);

  // LRU kept the constantly-touched key through all that churn.
  Neighborhood out;
  EXPECT_TRUE(cache.Lookup(index.get(), hot, 4, &out));
  EXPECT_EQ(out, KnnSearcher(*index).GetKnn(hot, 4));
}

TEST(NeighborhoodCacheTest, OversizedEntryIsDropped) {
  const PointSet points = MakeUniform(400, 29);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache(SmallCache(64));  // Smaller than any entry.
  CachingKnnSearcher searcher(*index, &cache);
  const Neighborhood nbr =
      searcher.GetKnn(Point{.id = -1, .x = 10, .y = 10}, 50);
  EXPECT_EQ(nbr.size(), 50u);  // The search itself is unaffected.
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(NeighborhoodCacheTest, CrossIndexStructureDeterminism) {
  // One shared cache over grid, quadtree and R-tree indexes of the
  // same relation: the entries are keyed per index object, yet hold
  // byte-identical neighborhoods, because getkNN is deterministic.
  const PointSet points = MakeClustered(4, 100, 31);
  NeighborhoodCache cache;
  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (const IndexType type : AllIndexTypes()) {
    indexes.push_back(MakeIndex(points, type));
  }

  Rng rng(37);
  for (int i = 0; i < 25; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(10));
    std::vector<Neighborhood> cached;
    for (const auto& index : indexes) {
      CachingKnnSearcher searcher(*index, &cache);
      (void)searcher.GetKnn(q, k);  // Fill.
      cached.push_back(searcher.GetKnn(q, k));  // Served from cache.
    }
    EXPECT_EQ(cached[0], cached[1]);
    EXPECT_EQ(cached[0], cached[2]);
    EXPECT_EQ(cached[0], BruteForceKnn(points, q, k));
  }
  // Per-structure keys: every (index, q, k) triple cached separately.
  EXPECT_EQ(cache.GetStats().entries, 3u * 25u);
}

TEST(NeighborhoodCacheTest, GenerationChangeInvalidates) {
  const PointSet points = MakeUniform(200, 41);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache;
  cache.InvalidateIfGenerationChanged(1);
  CachingKnnSearcher searcher(*index, &cache);
  (void)searcher.GetKnn(Point{.id = -1, .x = 50, .y = 50}, 3);
  EXPECT_EQ(cache.GetStats().entries, 1u);

  cache.InvalidateIfGenerationChanged(1);  // Same generation: no-op.
  EXPECT_EQ(cache.GetStats().entries, 1u);

  cache.InvalidateIfGenerationChanged(2);  // Catalog changed: flush.
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(NeighborhoodCacheTest, PerRelationInvalidationDropsOnlyThatRelation) {
  const PointSet points_a = MakeUniform(200, 42);
  const PointSet points_b = MakeUniform(200, 43);
  const auto index_a = MakeIndex(points_a);
  const auto index_b = MakeIndex(points_b);
  NeighborhoodCache cache;
  CachingKnnSearcher searcher_a(*index_a, &cache);
  CachingKnnSearcher searcher_b(*index_b, &cache);
  const Point q{.id = -1, .x = 500, .y = 400};
  for (std::size_t k = 1; k <= 4; ++k) {
    (void)searcher_a.GetKnn(q, k);
    (void)searcher_b.GetKnn(q, k);
  }
  ASSERT_EQ(cache.GetStats().entries, 8u);

  // Dropping a's entries leaves b's untouched and accounted.
  cache.InvalidateRelation(index_a.get());
  NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.invalidated, 4u);
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  (void)searcher_b.GetKnn(q, 1);
  EXPECT_EQ(searcher_b.stats().cache_hits, 1u);
  (void)searcher_a.GetKnn(q, 1);
  EXPECT_EQ(searcher_a.stats().cache_hits, 0u);

  // The generation-keyed hook: first observation drops (untracked
  // entries may predate it), same generation is a no-op, a new
  // generation drops again.
  cache.InvalidateIfGenerationChanged(index_b.get(), 7);
  EXPECT_EQ(cache.GetStats().entries, 1u);  // Only a's re-probe lives.
  (void)searcher_b.GetKnn(q, 2);
  cache.InvalidateIfGenerationChanged(index_b.get(), 7);
  EXPECT_EQ(cache.GetStats().entries, 2u);  // No-op: entry survived.
  cache.InvalidateIfGenerationChanged(index_b.get(), 8);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

// --- Per-relation invalidation chains ---
//
// The cases below insert synthetic neighborhoods directly: the cache
// never inspects their contents, and a fixed shape gives every entry
// the same byte charge, so `bytes` can be checked exactly.

/// A k-entry neighborhood whose contents name its key, so a Lookup can
/// tell which entry answered.
Neighborhood FakeNeighborhood(std::size_t relation, std::size_t query,
                              std::size_t k) {
  Neighborhood neighborhood(k);
  for (std::size_t i = 0; i < k; ++i) {
    neighborhood[i].point.id =
        static_cast<PointId>(relation * 100000 + query * 100 + k);
    neighborhood[i].dist = static_cast<double>(i);
  }
  return neighborhood;
}

Point FakeQuery(std::size_t query) {
  return Point{.id = -1,
               .x = static_cast<double>(query * 10),
               .y = static_cast<double>(query * 7)};
}

/// The byte charge of one FakeNeighborhood entry of size `k`, read off
/// a fresh cache.
std::size_t FakeEntryCost(std::size_t k) {
  const auto index = MakeIndex(MakeUniform(10, 1));
  NeighborhoodCache probe;
  probe.Insert(index.get(), FakeQuery(0), k, FakeNeighborhood(0, 0, k));
  return probe.GetStats().bytes;
}

/// Small relations whose index objects give the cache distinct ids.
std::vector<std::unique_ptr<SpatialIndex>> MakeRelations(std::size_t n) {
  std::vector<std::unique_ptr<SpatialIndex>> relations;
  for (std::size_t r = 0; r < n; ++r) {
    relations.push_back(MakeIndex(MakeUniform(10, 50 + r)));
  }
  return relations;
}

void ExpectFootprint(const NeighborhoodCache& cache, std::size_t entries,
                     std::size_t entry_cost, std::uint64_t invalidated) {
  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, entries);
  EXPECT_EQ(stats.bytes, entries * entry_cost);
  EXPECT_EQ(cache.size_bytes(), entries * entry_cost);
  EXPECT_EQ(stats.invalidated, invalidated);
}

TEST(NeighborhoodCacheChainTest, EvictionThenInvalidationDropsRemainder) {
  constexpr std::size_t kK = 4;
  const std::size_t cost = FakeEntryCost(kK);
  for (const bool retire : {false, true}) {
    SCOPED_TRACE(retire ? "RetireRelation" : "InvalidateRelation");
    const auto relations = MakeRelations(3);
    const SpatialIndex* a = relations[0].get();
    const SpatialIndex* b = relations[1].get();
    const SpatialIndex* c = relations[2].get();
    // One shard holding exactly ten entries.
    NeighborhoodCache cache(SmallCache(10 * cost));
    for (std::size_t q = 0; q < 5; ++q) {
      cache.Insert(a, FakeQuery(q), kK, FakeNeighborhood(0, q, kK));
    }
    for (std::size_t q = 0; q < 5; ++q) {
      cache.Insert(b, FakeQuery(q), kK, FakeNeighborhood(1, q, kK));
    }
    ExpectFootprint(cache, 10, cost, 0);

    // A's chain runs A4 (head, newest) .. A0 (tail). Refresh every
    // entry but A4, A2 and A0, so those three are the LRU victims.
    Neighborhood out;
    for (const std::size_t q : {1, 3}) {
      ASSERT_TRUE(cache.Lookup(a, FakeQuery(q), kK, &out));
    }
    for (std::size_t q = 0; q < 5; ++q) {
      ASSERT_TRUE(cache.Lookup(b, FakeQuery(q), kK, &out));
    }
    for (std::size_t q = 0; q < 3; ++q) {
      cache.Insert(c, FakeQuery(q), kK, FakeNeighborhood(2, q, kK));
    }
    EXPECT_EQ(cache.GetStats().evictions, 3u);
    ExpectFootprint(cache, 10, cost, 0);
    for (const std::size_t q : {0, 2, 4}) {
      EXPECT_FALSE(cache.Lookup(a, FakeQuery(q), kK, &out)) << q;
    }

    // Tail, middle and head were unlinked; the rest of the chain holds
    // exactly A1 and A3.
    if (retire) {
      EXPECT_EQ(cache.RetireRelation(a->instance_id()), 2u);
    } else {
      EXPECT_EQ(cache.InvalidateRelation(a), 2u);
    }
    ExpectFootprint(cache, 8, cost, 2);
    for (const std::size_t q : {1, 3}) {
      EXPECT_FALSE(cache.Lookup(a, FakeQuery(q), kK, &out)) << q;
    }
    for (std::size_t q = 0; q < 5; ++q) {
      ASSERT_TRUE(cache.Lookup(b, FakeQuery(q), kK, &out));
      EXPECT_EQ(out, FakeNeighborhood(1, q, kK));
    }
    for (std::size_t q = 0; q < 3; ++q) {
      ASSERT_TRUE(cache.Lookup(c, FakeQuery(q), kK, &out));
      EXPECT_EQ(out, FakeNeighborhood(2, q, kK));
    }
    // A second drop finds no chain.
    EXPECT_EQ(cache.InvalidateRelation(a), 0u);
    ExpectFootprint(cache, 8, cost, 2);
  }
}

TEST(NeighborhoodCacheChainTest, ClearResetsChains) {
  constexpr std::size_t kK = 3;
  const std::size_t cost = FakeEntryCost(kK);
  const auto relations = MakeRelations(2);
  const SpatialIndex* a = relations[0].get();
  const SpatialIndex* b = relations[1].get();
  NeighborhoodCache cache(SmallCache(1 << 20, 4));
  for (std::size_t q = 0; q < 6; ++q) {
    cache.Insert(a, FakeQuery(q), kK, FakeNeighborhood(0, q, kK));
  }
  for (std::size_t q = 0; q < 3; ++q) {
    cache.Insert(b, FakeQuery(q), kK, FakeNeighborhood(1, q, kK));
  }
  ExpectFootprint(cache, 9, cost, 0);

  cache.Clear();
  ExpectFootprint(cache, 0, cost, 0);
  EXPECT_EQ(cache.InvalidateRelation(a), 0u);

  // Re-inserting the same keys builds fresh chains; invalidating A
  // drops exactly its new entries.
  for (std::size_t q = 0; q < 4; ++q) {
    cache.Insert(a, FakeQuery(q), kK, FakeNeighborhood(0, q, kK));
  }
  cache.Insert(b, FakeQuery(0), kK, FakeNeighborhood(1, 0, kK));
  ExpectFootprint(cache, 5, cost, 0);
  EXPECT_EQ(cache.InvalidateRelation(a), 4u);
  ExpectFootprint(cache, 1, cost, 4);
  EXPECT_EQ(cache.RetireRelation(b->instance_id()), 1u);
  ExpectFootprint(cache, 0, cost, 5);
}

TEST(NeighborhoodCacheChainTest, RandomizedDifferentialAgainstPlainLru) {
  // A plain single-list LRU with the same byte budget is the
  // reference: one cache shard behaves exactly like it, and so must
  // every entries/bytes/evictions/invalidated figure after each step.
  constexpr std::size_t kRelations = 4;
  constexpr std::size_t kQueries = 6;
  constexpr std::size_t kMaxK = 3;
  std::vector<std::size_t> cost_of(kMaxK + 1);
  for (std::size_t k = 1; k <= kMaxK; ++k) cost_of[k] = FakeEntryCost(k);
  const std::size_t capacity = 9 * cost_of[2];

  struct ModelEntry {
    std::size_t relation, query, k, cost;
  };
  const auto relations = MakeRelations(kRelations);
  NeighborhoodCache cache(SmallCache(capacity));
  std::list<ModelEntry> model;  // Front = most recently used.
  std::size_t model_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t hits = 0;
  const auto find = [&](std::size_t r, std::size_t q, std::size_t k) {
    return std::find_if(model.begin(), model.end(), [&](const ModelEntry& e) {
      return e.relation == r && e.query == q && e.k == k;
    });
  };
  const auto drop_relation = [&](std::size_t r) {
    std::size_t dropped = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (it->relation != r) {
        ++it;
        continue;
      }
      model_bytes -= it->cost;
      it = model.erase(it);
      ++dropped;
    }
    invalidated += dropped;
    return dropped;
  };

  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const std::size_t r = rng.NextIndex(kRelations);
    const std::size_t q = rng.NextIndex(kQueries);
    const std::size_t k = 1 + rng.NextIndex(kMaxK);
    const SpatialIndex* relation = relations[r].get();
    const std::uint64_t op = rng.NextIndex(100);
    if (op < 45) {
      Neighborhood out;
      const auto it = find(r, q, k);
      const bool hit = cache.Lookup(relation, FakeQuery(q), k, &out);
      ASSERT_EQ(hit, it != model.end()) << "step " << step;
      if (hit) {
        ASSERT_EQ(out, FakeNeighborhood(r, q, k)) << "step " << step;
        model.splice(model.begin(), model, it);
        ++hits;
      }
    } else if (op < 90) {
      cache.Insert(relation, FakeQuery(q), k, FakeNeighborhood(r, q, k));
      if (const auto it = find(r, q, k); it != model.end()) {
        model.splice(model.begin(), model, it);
      } else {
        while (model_bytes + cost_of[k] > capacity && !model.empty()) {
          model_bytes -= model.back().cost;
          model.pop_back();
          ++evictions;
        }
        model.push_front(ModelEntry{r, q, k, cost_of[k]});
        model_bytes += cost_of[k];
      }
    } else if (op < 95) {
      const std::size_t expected = drop_relation(r);
      ASSERT_EQ(cache.InvalidateRelation(relation), expected)
          << "step " << step;
    } else if (op < 99) {
      const std::size_t expected = drop_relation(r);
      ASSERT_EQ(cache.RetireRelation(relation->instance_id()), expected)
          << "step " << step;
    } else {
      cache.Clear();
      model.clear();
      model_bytes = 0;
    }
    const NeighborhoodCacheStats stats = cache.GetStats();
    ASSERT_EQ(stats.entries, model.size()) << "step " << step;
    ASSERT_EQ(stats.bytes, model_bytes) << "step " << step;
    ASSERT_EQ(cache.size_bytes(), model_bytes) << "step " << step;
    ASSERT_EQ(stats.evictions, evictions) << "step " << step;
    ASSERT_EQ(stats.invalidated, invalidated) << "step " << step;
    ASSERT_EQ(stats.hits, hits) << "step " << step;
  }
  // The run exercised every path it is meant to compare.
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(invalidated, 100u);
  EXPECT_GT(hits, 100u);
}

TEST(NeighborhoodCacheChainTest, ConcurrentInsertLookupRaceInvalidation) {
  // Two threads insert and look up relation A while a third fills B
  // and invalidates B and A. Every hit must return its own key's
  // value, and the invalidation counts must add up exactly. Run under
  // TSan for the locking and ASan for dangling chain pointers.
  constexpr std::size_t kK = 2;
  constexpr std::size_t kQueries = 64;
  const std::size_t cost = FakeEntryCost(kK);
  const auto relations = MakeRelations(2);
  const SpatialIndex* a = relations[0].get();
  const SpatialIndex* b = relations[1].get();
  NeighborhoodCache cache(SmallCache(1 << 20, 8));

  std::atomic<int> readers_running{2};
  std::atomic<std::uint64_t> wrong_values{0};
  const auto reader = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
      const std::size_t q = rng.NextIndex(kQueries);
      Neighborhood out;
      if (cache.Lookup(a, FakeQuery(q), kK, &out)) {
        if (out != FakeNeighborhood(0, q, kK)) wrong_values.fetch_add(1);
      } else {
        cache.Insert(a, FakeQuery(q), kK, FakeNeighborhood(0, q, kK));
      }
    }
    readers_running.fetch_sub(1);
  };
  std::thread reader1(reader, 1);
  std::thread reader2(reader, 2);

  std::uint64_t dropped = 0;
  for (int round = 0; readers_running.load() > 0; ++round) {
    for (std::size_t q = 0; q < 16; ++q) {
      cache.Insert(b, FakeQuery(q), kK, FakeNeighborhood(1, q, kK));
    }
    dropped += cache.InvalidateRelation(b);
    if (round % 2 == 0) {
      dropped += cache.InvalidateRelation(a);
    } else {
      dropped += cache.RetireRelation(a->instance_id());
    }
  }
  reader1.join();
  reader2.join();

  EXPECT_EQ(wrong_values.load(), 0u);
  const NeighborhoodCacheStats live = cache.GetStats();
  ExpectFootprint(cache, live.entries, cost, dropped);
  // Whatever the readers left is A's alone, and one drop clears it.
  EXPECT_EQ(cache.InvalidateRelation(b), 0u);
  EXPECT_EQ(cache.InvalidateRelation(a), live.entries);
  ExpectFootprint(cache, 0, cost, dropped + live.entries);
}

// --- Engine-level equivalence: the acceptance bar of this subsystem ---

Catalog MakeCatalog(IndexType type) {
  Catalog catalog;
  IndexOptions options;
  options.type = type;
  options.block_capacity = 16;  // Many blocks: pruning paths fire.
  EXPECT_TRUE(
      catalog.AddRelation("uniform", MakeUniform(600, 141, 0), options)
          .ok());
  EXPECT_TRUE(
      catalog.AddRelation("city", MakeCity(600, 142, 100000), options)
          .ok());
  EXPECT_TRUE(catalog
                  .AddRelation("clustered",
                               MakeClustered(3, 90, 143, 200000), options)
                  .ok());
  return catalog;
}

/// `rounds` cycles of all six query shapes; the modulus keeps focal
/// points and k values repeating, so the cache sees real sharing.
std::vector<QuerySpec> SkewedSpecs(std::size_t rounds) {
  std::vector<QuerySpec> specs;
  specs.reserve(rounds * 6);
  for (std::size_t i = 0; i < rounds; ++i) {
    const double dx = static_cast<double>((i * 37) % 200);
    const double dy = static_cast<double>((i * 53) % 150);
    const std::size_t k = 1 + i % 3;
    specs.push_back(TwoSelectsSpec{
        .relation = "city",
        .s1 = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k},
        .s2 = {.focal = {.id = -1, .x = dx + 40, .y = dy + 25},
               .k = k + 6},
    });
    specs.push_back(SelectInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .select = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k + 2},
    });
    specs.push_back(SelectOuterJoinSpec{
        .outer = "city",
        .inner = "uniform",
        .join_k = 1 + k % 3,
        .select = {.focal = {.id = -1, .x = dy, .y = dx / 2}, .k = 5 + k},
    });
    specs.push_back(UnchainedJoinsSpec{
        .a = "uniform",
        .b = "city",
        .c = "clustered",
        .k_ab = 1 + k % 3,
        .k_cb = 1 + (k + 1) % 3,
    });
    specs.push_back(ChainedJoinsSpec{
        .a = "clustered",
        .b = "city",
        .c = "uniform",
        .k_ab = 1 + k % 3,
        .k_bc = 1 + (k + 2) % 3,
    });
    specs.push_back(RangeInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .range = BoundingBox(dx, dy, dx + 150, dy + 120),
    });
  }
  return specs;
}

class CachedEngineEquivalenceTest
    : public ::testing::TestWithParam<IndexType> {};

TEST_P(CachedEngineEquivalenceTest, CachedBatchEqualsUncachedSerial) {
  // Two engines over identical catalogs: one with a cache on a 4-thread
  // pool, one uncached. Every batch result must be byte-identical to
  // the uncached serial reference; repeating the batch exercises the
  // fully warm cache as well as the cold one.
  EngineOptions cached_options;
  cached_options.num_threads = 4;
  cached_options.planner.cache_mb = 32;
  QueryEngine cached(MakeCatalog(GetParam()), cached_options);
  ASSERT_NE(cached.neighborhood_cache(), nullptr);

  EngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(MakeCatalog(GetParam()), plain_options);
  ASSERT_EQ(plain.neighborhood_cache(), nullptr);

  const std::vector<QuerySpec> specs = SkewedSpecs(15);
  std::vector<EngineResult> serial;
  serial.reserve(specs.size());
  for (const QuerySpec& spec : specs) serial.push_back(plain.Run(spec));

  ExecStats total;
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<EngineResult> batch = cached.RunBatch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << "query " << i << ": "
                                 << batch[i].status.ToString();
      ASSERT_TRUE(serial[i].ok());
      EXPECT_EQ(batch[i].algorithm, serial[i].algorithm) << "query " << i;
      EXPECT_TRUE(batch[i].output == serial[i].output)
          << "cached batch differs from uncached serial for query " << i
          << " (pass " << pass << ")";
      EXPECT_FALSE(batch[i].stats.empty()) << "query " << i;
      total.Merge(batch[i].stats);
    }
  }
  // The skewed workload must actually share work across queries.
  EXPECT_GT(total.cache_hits, 0u);
  EXPECT_GT(total.cache_bytes, 0u);
  EXPECT_GT(cached.neighborhood_cache()->GetStats().hit_rate(), 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, CachedEngineEquivalenceTest,
    ::testing::Values(IndexType::kGrid, IndexType::kQuadtree,
                      IndexType::kRTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return std::string(ToString(info.param));
    });

TEST(CachedEngineTest, StatsAndExplainSurfaceCacheCounters) {
  EngineOptions options;
  options.num_threads = 1;
  options.planner.cache_mb = 8;
  QueryEngine engine(MakeCatalog(IndexType::kGrid), options);
  const TwoSelectsSpec spec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = 9},
  };
  const EngineResult cold = engine.Run(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold.stats.cache_misses, 0u);
  EXPECT_GT(cold.stats.cache_bytes, 0u);

  const EngineResult warm = engine.Run(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_NE(warm.explain.find("cache_hits="), std::string::npos)
      << warm.explain;
  EXPECT_TRUE(warm.output == cold.output);
}

TEST(CachedEngineTest, WriteSpanCountsInvalidatedEntries) {
  EngineOptions options;
  options.num_threads = 1;
  options.planner.cache_mb = 8;
  QueryEngine engine(MakeCatalog(IndexType::kGrid), options);
  NeighborhoodCache& cache = *engine.neighborhood_cache();
  for (std::size_t k = 1; k <= 3; ++k) {
    const TwoSelectsSpec spec{
        .relation = "city",
        .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = k},
        .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = k + 4},
    };
    ASSERT_TRUE(engine.Run(spec).ok());
  }

  // Writes a row and returns the dml_apply span's cache_invalidated.
  const auto traced_write = [&](const std::string& relation) {
    obs::TraceContext trace;
    {
      obs::TraceScope scope(&trace);
      const EngineResult written = engine.ExecuteDml(
          DmlRequest::MutateOps(relation, {MutationOp::Insert(10, 10)}));
      EXPECT_TRUE(written.ok()) << written.status.ToString();
    }
    trace.Finish();
    return obs::SumCounter(trace.root(), "cache_invalidated");
  };

  // A write to a relation no cached probe refers to drops nothing.
  const NeighborhoodCacheStats before = cache.GetStats();
  ASSERT_GT(before.entries, 0u);
  EXPECT_EQ(traced_write("uniform"), 0u);
  EXPECT_EQ(cache.GetStats().entries, before.entries);

  // A write to `city` drops every cached city entry, and the span
  // says how many.
  EXPECT_EQ(traced_write("city"), before.entries);
  const NeighborhoodCacheStats after = cache.GetStats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.invalidated - before.invalidated, before.entries);
}

}  // namespace
}  // namespace knnq
