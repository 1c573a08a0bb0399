// ShardedIndex: N spatially partitioned child indexes behind the one
// SpatialIndex contract.
//
// The paper's pruning principle — skip work whose MINDIST lower bound
// exceeds the current k-th neighbor distance — applies across
// partitions exactly as it applies across blocks: a shard whose data
// bounds lie farther than the running bound cannot contribute a
// neighbor, so scatter-gather kNN visits shards in MINDIST order and
// stops at the first shard past the bound (SearchStats::shards_pruned
// counts the rest). This is the spatial analog of WAND-style shard
// selection in partitioned text engines.
//
// Partitioning is pluggable (IndexOptions::shard_policy): recursive
// bisection by point count (balanced shards under any distribution) or
// a fixed grid tiling. The partition is chosen at build time and never
// changes afterwards — routing is a pure function of (x, y), so a point
// always lives in the shard its coordinates route to, mutations never
// migrate points across shards, and copy-on-write shard replacement
// (QueryEngine's sharded DML path) can clone one shard while the
// others are shared untouched.
//
// Composition strategy: the wrapper MIRRORS its children's base
// storage — points_, the SoA columns and the block table are the
// concatenation of every child's, with spans shifted to global
// offsets. All the non-virtual base accessors (points(), BlockSoA(),
// num_blocks(), bounds(), ...) therefore work unchanged over the
// composed view, every src/core evaluator runs byte-identically on a
// sharded relation, and BlockIds stay dense in [0, num_blocks()) as
// the contract requires. NewScan is a lazy merge: a heap seeded with
// one sentinel per shard (key = MINDIST to the union of the shard's
// block boxes — an exact lower bound on the shard's block keys for
// either scan order; data bounds would be off by the ulps grid cell
// rectangles overhang them) opens a child scan only when its sentinel
// pops, so an abandoned scan never touches far shards.
//
// Mutation (writer-exclusive, like every SpatialIndex): ops route to
// one child, which maintains itself incrementally; the wrapper then
// rebuilds its mirror (O(n) memcpy). The engine's sharded DML path
// avoids the wrapper's in-place API entirely — it clones affected
// children, applies ops to the clones, and republishes via FromShards.

#ifndef KNNQ_SRC_INDEX_SHARDED_INDEX_H_
#define KNNQ_SRC_INDEX_SHARDED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_factory.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// The build-time spatial partition: how query/insert coordinates
/// route to a shard. Immutable after Build; shared by every wrapper
/// generation of a relation (copy-on-write replacement keeps the
/// partition and swaps children).
struct ShardPartition {
  /// Interior node of the bisection split tree. Leaves are encoded as
  /// negative child links: child < 0 names shard ~child.
  struct SplitNode {
    /// 0 = split on x, 1 = split on y.
    int axis = 0;
    double threshold = 0.0;
    /// Nodes index (>= 0) or ~shard (< 0).
    int lo = 0;
    int hi = 0;
  };

  ShardPolicy policy = ShardPolicy::kBisection;
  std::size_t num_shards = 1;

  /// kBisection: the split tree, rooted at node 0 (empty means one
  /// shard — everything routes to shard 0).
  std::vector<SplitNode> nodes;

  /// kGrid: rows x cols tiling of `frame`; cell (i, j) maps to shard
  /// min(j * cols + i, num_shards - 1).
  std::size_t grid_rows = 1;
  std::size_t grid_cols = 1;
  BoundingBox frame;

  /// The shard owning location (x, y). Total: every finite coordinate
  /// routes somewhere (bisection thresholds cover the plane; grid
  /// cells clamp).
  std::size_t Route(double x, double y) const;
};

/// N child indexes of one structure type behind the composed
/// SpatialIndex view described in the header comment.
class ShardedIndex final : public SpatialIndex {
 public:
  /// Partitions `points` per `options.shard_policy` into
  /// `options.shards` shards and builds one `options.type` child per
  /// shard. Fails on shards < 2 or invalid child options.
  static Result<std::unique_ptr<ShardedIndex>> Build(
      PointSet points, const IndexOptions& options);

  /// Rewraps `children` (one per partition shard, same order) under
  /// `partition`. The copy-on-write primitive: untouched children are
  /// shared with the previous wrapper, replaced ones are fresh clones.
  /// `children[i]` must hold exactly the points that route to shard i.
  static Result<std::unique_ptr<ShardedIndex>> FromShards(
      std::shared_ptr<const ShardPartition> partition,
      std::vector<std::shared_ptr<SpatialIndex>> children);

  // --- SpatialIndex contract ---

  BlockId Locate(const Point& p) const override;
  std::unique_ptr<BlockScan> NewScan(const Point& query,
                                     ScanOrder order) const override;
  /// Sums the children's counts, the home shard of `query` first, each
  /// with the limit left over; skips shards whose ShardScanBounds lie
  /// at MINDIST >= threshold.
  std::size_t CountWithinMaxDist(const Point& query, double threshold,
                                 std::size_t limit,
                                 std::size_t* blocks_examined) const override;
  std::string Describe() const override;
  IndexType type() const override { return child_type_; }
  std::unique_ptr<SpatialIndex> Clone() const override;

  /// In-place mutation: routes to the owning child, then rebuilds the
  /// mirror (O(n)). Correct but linear per op — batch writers should
  /// prefer the engine's copy-on-write path, which clones children and
  /// pays the mirror once per batch.
  Status Insert(const Point& p) override;
  Status Erase(PointId id) override;
  Status BulkLoad(PointSet points) override;

  // --- Shard introspection (scatter-gather search + COW DML) ---

  std::size_t num_shards() const { return children_.size(); }
  const SpatialIndex& shard(std::size_t s) const { return *children_[s]; }
  const std::shared_ptr<SpatialIndex>& shard_ptr(std::size_t s) const {
    return children_[s];
  }
  const std::shared_ptr<const ShardPartition>& partition() const {
    return partition_;
  }

  /// The shard that owns location (x, y) — where an insert of that
  /// location goes and where a point at it lives.
  std::size_t RouteShard(const Point& p) const {
    return partition_->Route(p.x, p.y);
  }

  /// The shard holding the (first) indexed point with id `id`, or -1.
  /// Erase routing for writers that know only the id.
  int ShardOfPointId(PointId id) const;

  /// The shard owning global block `b` (blocks are concatenated in
  /// shard order).
  std::size_t ShardOfBlock(BlockId b) const { return block_shard_[b]; }

  /// Union of shard `s`'s block boxes: the merged scan's sentinel
  /// frame. Contains the shard's data bounds (blocks cover every
  /// point) and every block box (which grid cell geometry can push a
  /// few ulps past the data bounds).
  const BoundingBox& ShardScanBounds(std::size_t s) const {
    return shard_scan_bounds_[s];
  }

 private:
  ShardedIndex() = default;
  ShardedIndex(const ShardedIndex&) = delete;

  /// Rebuilds the mirrored base storage and block table from the
  /// children's. O(total points) — memcpy-bound.
  void RebuildMirror();

  std::shared_ptr<const ShardPartition> partition_;
  std::vector<std::shared_ptr<SpatialIndex>> children_;
  IndexType child_type_ = IndexType::kGrid;

  /// Global block id -> owning shard, parallel to blocks_.
  std::vector<std::uint32_t> block_shard_;
  /// Per shard: union of its block boxes (ShardScanBounds).
  std::vector<BoundingBox> shard_scan_bounds_;
  /// Per shard: first global block id / first global point position of
  /// its segment in the mirror (size num_shards + 1; the tail entry is
  /// the total).
  std::vector<std::size_t> block_offset_;
  std::vector<std::size_t> point_offset_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_SHARDED_INDEX_H_
