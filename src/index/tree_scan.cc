#include "src/index/tree_scan.h"

#include "src/common/check.h"

namespace knnq {

TreeScan::TreeScan(const std::vector<TreeNode>& nodes, std::size_t root,
                   const Point& query, ScanOrder order)
    : nodes_(nodes), query_(query), order_(order) {
  if (root < nodes_.size()) {
    heap_.push(Entry{KeyOf(nodes_[root]), static_cast<std::uint32_t>(root)});
  }
}

double TreeScan::KeyOf(const TreeNode& node) const {
  if (node.is_leaf() && order_ == ScanOrder::kMaxDist) {
    return node.box.MaxDist(query_);
  }
  // Internal nodes always use MINDIST: it lower-bounds both metrics of
  // every descendant leaf.
  return node.box.MinDist(query_);
}

void TreeScan::SettleTop() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    const TreeNode& node = nodes_[top.node];
    if (node.is_leaf()) return;
    heap_.pop();
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      const std::uint32_t child = node.first_child + c;
      heap_.push(Entry{KeyOf(nodes_[child]), child});
    }
  }
}

bool TreeScan::HasNext() {
  SettleTop();
  return !heap_.empty();
}

BlockId TreeScan::Next(double* key_dist) {
  SettleTop();
  KNNQ_CHECK_MSG(!heap_.empty(), "Next() past the end of a tree scan");
  const Entry top = heap_.top();
  heap_.pop();
  if (key_dist != nullptr) *key_dist = top.key;
  return nodes_[top.node].block;
}

namespace {

/// State of one CountTreeWithinMaxDist descent.
struct TreeCount {
  const std::vector<TreeNode>& nodes;
  const std::vector<Block>& blocks;
  const Point query;
  const double threshold;
  const std::size_t limit;
  std::size_t count = 0;
  std::size_t examined = 0;

  /// Counts the subtree at `n`; true once the count exceeds `limit`.
  bool Visit(std::uint32_t n) {
    const TreeNode& node = nodes[n];
    if (node.is_leaf()) {
      ++examined;
      const Block& block = blocks[node.block];
      if (block.box.MaxDist(query) < threshold) count += block.count();
      return count > limit;
    }
    if (node.box.MinDist(query) >= threshold) return false;
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      if (Visit(node.first_child + c)) return true;
    }
    return false;
  }
};

}  // namespace

std::size_t CountTreeWithinMaxDist(const std::vector<TreeNode>& nodes,
                                   std::size_t root,
                                   const std::vector<Block>& blocks,
                                   const Point& query, double threshold,
                                   std::size_t limit,
                                   std::size_t* blocks_examined) {
  if (root >= nodes.size() || !(threshold > 0.0)) return 0;
  TreeCount walk{.nodes = nodes,
                 .blocks = blocks,
                 .query = query,
                 .threshold = threshold,
                 .limit = limit};
  walk.Visit(static_cast<std::uint32_t>(root));
  *blocks_examined += walk.examined;
  return walk.count;
}

}  // namespace knnq
