// Structure-independence tests: every SpatialIndex implementation must
// satisfy the same contract. Parameterized over {grid, quadtree, rtree}
// x {uniform, city, clustered} data.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/index/grid_index.h"
#include "src/index/index_factory.h"
#include "src/index/quadtree_index.h"
#include "src/index/rtree_index.h"
#include "src/index/sharded_index.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

enum class Dataset { kUniform, kCity, kClustered };

struct IndexCase {
  IndexType type;
  Dataset dataset;
  std::size_t n;
};

std::string CaseName(const ::testing::TestParamInfo<IndexCase>& info) {
  std::string name = ToString(info.param.type);
  switch (info.param.dataset) {
    case Dataset::kUniform:
      name += "_uniform";
      break;
    case Dataset::kCity:
      name += "_city";
      break;
    case Dataset::kClustered:
      name += "_clustered";
      break;
  }
  name += "_" + std::to_string(info.param.n);
  return name;
}

PointSet MakeDataset(Dataset dataset, std::size_t n, std::uint64_t seed) {
  switch (dataset) {
    case Dataset::kUniform:
      return MakeUniform(n, seed);
    case Dataset::kCity:
      return MakeCity(n, seed);
    case Dataset::kClustered:
      return MakeClustered(/*num_clusters=*/5, n / 5, seed);
  }
  return {};
}

class IndexContractTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  void SetUp() override {
    points_ = MakeDataset(GetParam().dataset, GetParam().n, /*seed=*/77);
    index_ = MakeIndex(points_, GetParam().type);
  }

  PointSet points_;
  std::unique_ptr<SpatialIndex> index_;
};

TEST_P(IndexContractTest, IndexesEveryPointExactlyOnce) {
  ASSERT_EQ(index_->num_points(), points_.size());
  std::multiset<PointId> expected;
  for (const Point& p : points_) expected.insert(p.id);
  std::multiset<PointId> actual;
  for (const Point& p : index_->points()) actual.insert(p.id);
  EXPECT_EQ(expected, actual);
}

TEST_P(IndexContractTest, BlocksPartitionThePointArray) {
  std::vector<bool> covered(index_->num_points(), false);
  std::size_t total = 0;
  for (const Block& block : index_->blocks()) {
    EXPECT_GT(block.count(), 0u) << "empty blocks must not materialize";
    total += block.count();
    for (std::size_t i = block.begin; i < block.end; ++i) {
      EXPECT_FALSE(covered[i]) << "blocks overlap in the point array";
      covered[i] = true;
    }
  }
  EXPECT_EQ(total, index_->num_points());
}

TEST_P(IndexContractTest, BlockBoxesContainTheirPoints) {
  for (BlockId id = 0; id < index_->num_blocks(); ++id) {
    const Block& block = index_->block(id);
    for (const Point& p : index_->BlockPoints(id)) {
      EXPECT_TRUE(block.box.Contains(p))
          << "block " << id << " box " << block.box.ToString()
          << " misses point " << p.ToString();
    }
  }
}

TEST_P(IndexContractTest, LocateFindsEveryIndexedPoint) {
  for (const Point& p : index_->points()) {
    const BlockId id = index_->Locate(p);
    ASSERT_NE(id, kInvalidBlockId) << p.ToString();
    const auto span = index_->BlockPoints(id);
    const bool found =
        std::any_of(span.begin(), span.end(),
                    [&](const Point& q) { return q.id == p.id; });
    EXPECT_TRUE(found) << "Locate returned a block without the point";
  }
}

TEST_P(IndexContractTest, MinDistScanYieldsAllBlocksInOrder) {
  const Point query{.id = -1, .x = 137.0, .y = 212.0};
  auto scan = index_->NewScan(query, ScanOrder::kMinDist);
  std::set<BlockId> seen;
  double prev = -1.0;
  while (scan->HasNext()) {
    double key = 0.0;
    const BlockId id = scan->Next(&key);
    EXPECT_GE(key, prev) << "MINDIST keys must be non-decreasing";
    EXPECT_NEAR(key, index_->block(id).box.MinDist(query), 1e-9);
    EXPECT_TRUE(seen.insert(id).second) << "block yielded twice";
    prev = key;
  }
  EXPECT_EQ(seen.size(), index_->num_blocks());
}

TEST_P(IndexContractTest, MaxDistScanYieldsAllBlocksInOrder) {
  const Point query{.id = -1, .x = 900.0, .y = 50.0};
  auto scan = index_->NewScan(query, ScanOrder::kMaxDist);
  std::set<BlockId> seen;
  double prev = -1.0;
  while (scan->HasNext()) {
    double key = 0.0;
    const BlockId id = scan->Next(&key);
    EXPECT_GE(key, prev) << "MAXDIST keys must be non-decreasing";
    EXPECT_NEAR(key, index_->block(id).box.MaxDist(query), 1e-9);
    EXPECT_TRUE(seen.insert(id).second) << "block yielded twice";
    prev = key;
  }
  EXPECT_EQ(seen.size(), index_->num_blocks());
}

TEST_P(IndexContractTest, ScansHandleQueriesOutsideTheBounds) {
  // Queries far outside the data's bounding box must still order all
  // blocks correctly (Procedure 1 scans from arbitrary outer points).
  for (const Point query : {Point{.id = -1, .x = -5000, .y = -5000},
                            Point{.id = -1, .x = 99999, .y = 400}}) {
    for (const ScanOrder order : {ScanOrder::kMinDist, ScanOrder::kMaxDist}) {
      auto scan = index_->NewScan(query, order);
      std::size_t count = 0;
      double prev = -1.0;
      while (scan->HasNext()) {
        double key = 0.0;
        scan->Next(&key);
        EXPECT_GE(key, prev);
        prev = key;
        ++count;
      }
      EXPECT_EQ(count, index_->num_blocks());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, IndexContractTest,
    ::testing::Values(
        IndexCase{IndexType::kGrid, Dataset::kUniform, 2000},
        IndexCase{IndexType::kGrid, Dataset::kCity, 2000},
        IndexCase{IndexType::kGrid, Dataset::kClustered, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kUniform, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kCity, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kClustered, 2000},
        IndexCase{IndexType::kRTree, Dataset::kUniform, 2000},
        IndexCase{IndexType::kRTree, Dataset::kCity, 2000},
        IndexCase{IndexType::kRTree, Dataset::kClustered, 2000},
        IndexCase{IndexType::kGrid, Dataset::kUniform, 37},
        IndexCase{IndexType::kQuadtree, Dataset::kUniform, 37},
        IndexCase{IndexType::kRTree, Dataset::kUniform, 37}),
    CaseName);

// --- CountWithinMaxDist: the Counting probe against an exhaustive pass ---

struct CountCase {
  IndexType type;
  std::size_t shards;
  ShardPolicy policy;
};

std::string CountCaseName(const ::testing::TestParamInfo<CountCase>& info) {
  std::string name = std::string(ToString(info.param.type)) + "_x" +
                     std::to_string(info.param.shards);
  if (info.param.shards > 1) {
    name += std::string("_") + ToString(info.param.policy);
  }
  return name;
}

/// The probe's definition, straight over blocks().
std::size_t ReferenceCount(const SpatialIndex& index, const Point& q,
                           double threshold) {
  std::size_t count = 0;
  for (const Block& b : index.blocks()) {
    if (b.box.MaxDist(q) < threshold) count += b.count();
  }
  return count;
}

/// Cell edge lengths of a grid index (or of each grid shard); for the
/// trees, the edge of a square with the mean block area.
std::vector<double> CellSizes(const SpatialIndex& index) {
  std::vector<const SpatialIndex*> parts = {&index};
  if (const auto* sharded = dynamic_cast<const ShardedIndex*>(&index)) {
    parts.clear();
    for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
      parts.push_back(&sharded->shard(s));
    }
  }
  std::vector<double> sizes;
  for (const SpatialIndex* part : parts) {
    if (const auto* grid = dynamic_cast<const GridIndex*>(part)) {
      if (grid->cols() == 0) continue;
      sizes.push_back(grid->bounds().width() /
                      static_cast<double>(grid->cols()));
      sizes.push_back(grid->bounds().height() /
                      static_cast<double>(grid->rows()));
    }
  }
  if (sizes.empty() && index.num_blocks() > 0) {
    sizes.push_back(std::sqrt(index.bounds().Area() /
                              static_cast<double>(index.num_blocks())));
  }
  return sizes;
}

/// Seeded probe points: inside the extent, on block borders (corners
/// and edge midpoints, where ring and subtree cutoffs are decided by
/// the last ulp), and outside the extent.
std::vector<Point> ProbeQueries(const SpatialIndex& index, Rng& rng) {
  const BoundingBox& b = index.bounds();
  std::vector<Point> queries;
  for (int i = 0; i < 30; ++i) {
    queries.push_back(Point{.id = -1,
                            .x = rng.Uniform(b.min_x(), b.max_x()),
                            .y = rng.Uniform(b.min_y(), b.max_y())});
  }
  for (int i = 0; i < 15; ++i) {
    const BoundingBox& box = index.block(static_cast<BlockId>(
        rng.NextIndex(index.num_blocks()))).box;
    const double mid_y = box.min_y() + box.height() / 2;
    queries.push_back(Point{.id = -1, .x = box.min_x(), .y = box.min_y()});
    queries.push_back(Point{.id = -1, .x = box.max_x(), .y = box.max_y()});
    queries.push_back(Point{.id = -1, .x = box.max_x(), .y = mid_y});
  }
  for (const auto& [dx, dy] : {std::pair{-300.0, 0.0}, {0.0, 450.0},
                               {2500.0, -2500.0}, {1e5, 1e5}}) {
    queries.push_back(
        Point{.id = -1, .x = (dx < 0 ? b.min_x() : b.max_x()) + dx,
              .y = (dy < 0 ? b.min_y() : b.max_y()) + dy});
  }
  return queries;
}

/// Checks every (query, threshold, limit) combination: `count > limit`
/// must agree with the reference, and a count within the limit must
/// equal it exactly.
void ExpectCountsMatchReference(const SpatialIndex& index,
                                std::uint64_t seed) {
  ASSERT_GT(index.num_blocks(), 0u);
  Rng rng(seed);
  const std::vector<Point> queries = ProbeQueries(index, rng);
  const std::vector<double> cells = CellSizes(index);
  const std::size_t kLimits[] = {0, 1, 5,
                                 std::numeric_limits<std::size_t>::max()};
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  for (const Point& q : queries) {
    std::vector<double> thresholds = {
        0.0, std::numeric_limits<double>::denorm_min(), 1e-9, 1e6,
        std::numeric_limits<double>::infinity()};
    for (const double cell : cells) {
      for (const double m : {1.0, 2.0, 3.0}) thresholds.push_back(m * cell);
    }
    // Exact block MAXDISTs: the strict comparison's boundary.
    for (int i = 0; i < 4; ++i) {
      thresholds.push_back(index.block(static_cast<BlockId>(
          rng.NextIndex(index.num_blocks()))).box.MaxDist(q));
    }
    for (const double t : thresholds) {
      const std::size_t want = ReferenceCount(index, q, t);
      for (const std::size_t limit : kLimits) {
        std::size_t examined = 0;
        const std::size_t got =
            index.CountWithinMaxDist(q, t, limit, &examined);
        ++checks;
        const bool ok = (got > limit) == (want > limit) &&
                        (want > limit || got == want) &&
                        examined <= index.num_blocks();
        if (!ok && mismatches++ == 0) {
          ADD_FAILURE() << index.Describe() << ": query " << q.ToString()
                        << " threshold " << t << " limit " << limit
                        << ": got " << got << ", reference " << want
                        << ", examined " << examined;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " checks";
}

/// Seeded Insert/Erase churn, then inserts outside the built extent
/// (the grid re-grids, the quadtree rebuilds, the R-tree grows).
void Churn(SpatialIndex& index, PointSet& live, std::uint64_t seed) {
  Rng rng(seed);
  PointId next_id = 1000000;
  for (int i = 0; i < 200; ++i) {
    if (!live.empty() && rng.Bernoulli(0.5)) {
      const std::size_t at = rng.NextIndex(live.size());
      ASSERT_TRUE(index.Erase(live[at].id).ok());
      live[at] = live.back();
      live.pop_back();
    } else {
      const Point p{.id = next_id++, .x = rng.Uniform(0, 1000),
                    .y = rng.Uniform(0, 800)};
      ASSERT_TRUE(index.Insert(p).ok());
      live.push_back(p);
    }
  }
  for (const Point p : {Point{.id = next_id++, .x = 1400, .y = 950},
                        Point{.id = next_id++, .x = -250, .y = -120}}) {
    ASSERT_TRUE(index.Insert(p).ok());
    live.push_back(p);
  }
}

class CountWithinMaxDistTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(CountWithinMaxDistTest, MatchesExhaustivePassBeforeAndAfterChurn) {
  const CountCase& c = GetParam();
  PointSet live = testing::MakeCity(3000, /*seed=*/91);
  IndexOptions options;
  options.type = c.type;
  options.block_capacity = 16;
  options.shards = c.shards;
  options.shard_policy = c.policy;
  auto built = BuildIndex(live, options);
  ASSERT_TRUE(built.ok());
  SpatialIndex& index = **built;

  ExpectCountsMatchReference(index, /*seed=*/92);

  const BoundingBox before = index.bounds();
  Churn(index, live, /*seed=*/93);
  ASSERT_EQ(index.num_points(), live.size());
  // Grid bounds change only through a re-grid: the churn forced one.
  EXPECT_FALSE(index.bounds() == before);
  ExpectCountsMatchReference(index, /*seed=*/94);
}

TEST_P(CountWithinMaxDistTest, ExaminesOnlyTheQueryNeighborhood) {
  IndexOptions options;
  options.type = GetParam().type;
  options.block_capacity = 16;
  options.shards = GetParam().shards;
  options.shard_policy = GetParam().policy;
  auto built = BuildIndex(MakeUniform(4000, /*seed=*/95), options);
  ASSERT_TRUE(built.ok());
  const SpatialIndex& index = **built;
  const Point q{.id = -1, .x = 480, .y = 410};
  const double cell = CellSizes(index).front();
  std::size_t examined = 0;
  const std::size_t count = index.CountWithinMaxDist(
      q, 2 * cell, std::numeric_limits<std::size_t>::max(), &examined);
  EXPECT_EQ(count, ReferenceCount(index, q, 2 * cell));
  // A disc of two cells covers ~3 % of the extent; the R-tree examines
  // whole 16-leaf child groups, so the bound is loose.
  EXPECT_GT(examined, 0u);
  EXPECT_LT(examined, index.num_blocks() / 2) << index.Describe();
  // A limit stops the walk early: the first block already exceeds 0.
  examined = 0;
  EXPECT_GT(index.CountWithinMaxDist(q, 1e6, 0, &examined), 0u);
  EXPECT_EQ(examined, 1u);
}

TEST(CountWithinMaxDistTest, EmptyIndexCountsNothing) {
  for (const IndexType type : testing::AllIndexTypes()) {
    IndexOptions options;
    options.type = type;
    auto built = BuildIndex({}, options);
    ASSERT_TRUE(built.ok());
    std::size_t examined = 0;
    EXPECT_EQ((*built)->CountWithinMaxDist(
                  Point{.id = -1, .x = 1, .y = 2},
                  std::numeric_limits<double>::infinity(), 0, &examined),
              0u);
    EXPECT_EQ(examined, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CountWithinMaxDistTest,
    ::testing::Values(
        CountCase{IndexType::kGrid, 1, ShardPolicy::kBisection},
        CountCase{IndexType::kQuadtree, 1, ShardPolicy::kBisection},
        CountCase{IndexType::kRTree, 1, ShardPolicy::kBisection},
        CountCase{IndexType::kGrid, 4, ShardPolicy::kBisection},
        CountCase{IndexType::kQuadtree, 4, ShardPolicy::kBisection},
        CountCase{IndexType::kRTree, 4, ShardPolicy::kBisection},
        CountCase{IndexType::kGrid, 4, ShardPolicy::kGrid},
        CountCase{IndexType::kQuadtree, 4, ShardPolicy::kGrid},
        CountCase{IndexType::kRTree, 4, ShardPolicy::kGrid}),
    CountCaseName);

// --- Structure-specific behaviours ---

TEST(GridIndexTest, RejectsZeroTarget) {
  GridOptions options;
  options.target_points_per_cell = 0;
  auto result = GridIndex::Build(MakeUniform(10, 1), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GridIndexTest, EmptyRelationYieldsZeroBlocks) {
  auto grid = GridIndex::Build({}, GridOptions{});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ((*grid)->num_blocks(), 0u);
  EXPECT_EQ((*grid)->Locate(Point{.id = 0, .x = 1, .y = 1}),
            kInvalidBlockId);
  auto scan = (*grid)->NewScan(Point{.id = 0, .x = 0, .y = 0},
                               ScanOrder::kMinDist);
  EXPECT_FALSE(scan->HasNext());
}

TEST(GridIndexTest, SingleRepeatedPointCollapsesToOneCell) {
  PointSet points(50, Point{.id = 0, .x = 5, .y = 5});
  AssignSequentialIds(points);
  auto grid = GridIndex::Build(points, GridOptions{});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ((*grid)->num_blocks(), 1u);
  EXPECT_EQ((*grid)->block(0).count(), 50u);
}

TEST(GridIndexTest, RespectsMaxCellsPerAxis) {
  GridOptions options;
  options.target_points_per_cell = 1;
  options.max_cells_per_axis = 4;
  auto grid = GridIndex::Build(MakeUniform(10000, 3), options);
  ASSERT_TRUE(grid.ok());
  EXPECT_LE((*grid)->cols(), 4u);
  EXPECT_LE((*grid)->rows(), 4u);
}

TEST(QuadtreeIndexTest, SplitsUntilCapacity) {
  QuadtreeOptions options;
  options.leaf_capacity = 8;
  auto tree = QuadtreeIndex::Build(MakeUniform(1000, 5), options);
  ASSERT_TRUE(tree.ok());
  for (const Block& block : (*tree)->blocks()) {
    EXPECT_LE(block.count(), 8u);
  }
  EXPECT_GT((*tree)->depth(), 2u);
}

TEST(QuadtreeIndexTest, MaxDepthStopsDuplicateSplitting) {
  // 100 identical points can never split below capacity; the depth cap
  // must terminate construction.
  PointSet points(100, Point{.id = 0, .x = 1, .y = 1});
  AssignSequentialIds(points);
  QuadtreeOptions options;
  options.leaf_capacity = 4;
  options.max_depth = 6;
  auto tree = QuadtreeIndex::Build(points, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE((*tree)->depth(), 6u);
  std::size_t total = 0;
  for (const Block& block : (*tree)->blocks()) total += block.count();
  EXPECT_EQ(total, 100u);
}

TEST(QuadtreeIndexTest, RejectsZeroCapacity) {
  QuadtreeOptions options;
  options.leaf_capacity = 0;
  EXPECT_FALSE(QuadtreeIndex::Build(MakeUniform(10, 1), options).ok());
}

TEST(RTreeIndexTest, LeavesRespectCapacityAndHeightIsLogarithmic) {
  RTreeOptions options;
  options.leaf_capacity = 32;
  options.fanout = 8;
  auto tree = RTreeIndex::Build(MakeUniform(5000, 9), options);
  ASSERT_TRUE(tree.ok());
  for (const Block& block : (*tree)->blocks()) {
    EXPECT_LE(block.count(), 32u);
  }
  EXPECT_GE((*tree)->height(), 2u);
  EXPECT_LE((*tree)->height(), 6u);
}

TEST(RTreeIndexTest, RejectsBadOptions) {
  RTreeOptions options;
  options.fanout = 1;
  EXPECT_FALSE(RTreeIndex::Build(MakeUniform(10, 1), options).ok());
  options.fanout = 8;
  options.leaf_capacity = 0;
  EXPECT_FALSE(RTreeIndex::Build(MakeUniform(10, 1), options).ok());
}

TEST(IndexFactoryTest, BuildsEveryType) {
  const PointSet points = MakeUniform(500, 21);
  for (const IndexType type : testing::AllIndexTypes()) {
    IndexOptions options;
    options.type = type;
    auto index = BuildIndex(points, options);
    ASSERT_TRUE(index.ok()) << ToString(type);
    EXPECT_EQ((*index)->num_points(), points.size());
    EXPECT_FALSE((*index)->Describe().empty());
  }
}

}  // namespace
}  // namespace knnq
