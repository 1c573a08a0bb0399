#include "src/index/dynamic_tree.h"

#include "src/common/check.h"

namespace knnq {

std::size_t DynamicTreeIndex::CountWithinMaxDist(
    const Point& query, double threshold, std::size_t limit,
    std::size_t* blocks_examined) const {
  return CountTreeWithinMaxDist(nodes_,
                                root_ == kNoNode ? nodes_.size() : root_,
                                blocks_, query, threshold, limit,
                                blocks_examined);
}

void DynamicTreeIndex::RefreshTreeLinks() {
  parent_.assign(nodes_.size(), kNoNode);
  block_node_.assign(blocks_.size(), kNoNode);
  dead_nodes_ = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& node = nodes_[i];
    if (node.is_leaf()) {
      block_node_[node.block] = i;
    } else {
      for (std::uint32_t c = 0; c < node.num_children; ++c) {
        parent_[node.first_child + c] = i;
      }
    }
  }
}

void DynamicTreeIndex::AdoptTreeFrom(DynamicTreeIndex& other) {
  AdoptBaseFrom(other);
  nodes_ = std::move(other.nodes_);
  parent_ = std::move(other.parent_);
  block_node_ = std::move(other.block_node_);
  root_ = other.root_;
  dead_nodes_ = other.dead_nodes_;
}

std::uint32_t DynamicTreeIndex::NewNode(const TreeNode& node,
                                        std::uint32_t parent) {
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(node);
  parent_.push_back(parent);
  return slot;
}

void DynamicTreeIndex::MoveNode(std::uint32_t from, std::uint32_t to) {
  KNNQ_DCHECK(from != to);
  const TreeNode node = nodes_[from];
  nodes_[to] = node;
  parent_[to] = parent_[from];
  if (node.is_leaf()) {
    block_node_[node.block] = to;
  } else {
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      parent_[node.first_child + c] = to;
    }
  }
  if (root_ == from) root_ = to;
  // Leave the vacated slot visibly dead.
  nodes_[from].num_children = 0;
  nodes_[from].block = kInvalidBlockId;
  parent_[from] = kNoNode;
  ++dead_nodes_;
}

std::uint32_t DynamicTreeIndex::AttachNewChild(std::uint32_t parent,
                                               const TreeNode& child) {
  const std::uint32_t m = nodes_[parent].num_children;
  if (m == 0) {
    const std::uint32_t slot = NewNode(child, parent);
    nodes_[parent].first_child = slot;
    nodes_[parent].num_children = 1;
    return slot;
  }
  const std::uint32_t first = nodes_[parent].first_child;
  if (first + m == nodes_.size()) {
    // The group already sits at the tail: extend in place.
    const std::uint32_t slot = NewNode(child, parent);
    ++nodes_[parent].num_children;
    return slot;
  }
  // Relocate the group to the tail, then append.
  const auto new_first = static_cast<std::uint32_t>(nodes_.size());
  for (std::uint32_t c = 0; c < m; ++c) {
    nodes_.emplace_back();
    parent_.push_back(parent);
    MoveNode(first + c, new_first + c);
  }
  const std::uint32_t slot = NewNode(child, parent);
  nodes_[parent].first_child = new_first;
  nodes_[parent].num_children = m + 1;
  return slot;
}

void DynamicTreeIndex::DetachChild(std::uint32_t parent,
                                   std::uint32_t child) {
  TreeNode& p = nodes_[parent];
  KNNQ_DCHECK(p.num_children > 0);
  const std::uint32_t last = p.first_child + p.num_children - 1;
  KNNQ_DCHECK(child >= p.first_child && child <= last);
  if (child != last) {
    MoveNode(last, child);
  } else {
    nodes_[child].num_children = 0;
    nodes_[child].block = kInvalidBlockId;
    parent_[child] = kNoNode;
    ++dead_nodes_;
  }
  --p.num_children;
}

void DynamicTreeIndex::RemoveBlock(BlockId id) {
  const auto last = static_cast<BlockId>(blocks_.size() - 1);
  if (id != last) {
    blocks_[id] = blocks_[last];
    block_node_[id] = block_node_[last];
    nodes_[block_node_[id]].block = id;
  }
  blocks_.pop_back();
  block_node_.pop_back();
}

void DynamicTreeIndex::TightenUpward(std::uint32_t node) {
  for (std::uint32_t n = node; n != kNoNode; n = parent_[n]) {
    TreeNode& t = nodes_[n];
    BoundingBox box;
    if (t.is_leaf()) {
      box = blocks_[t.block].box;
    } else {
      for (std::uint32_t c = 0; c < t.num_children; ++c) {
        box.Extend(nodes_[t.first_child + c].box);
      }
    }
    t.box = box;
  }
}

void DynamicTreeIndex::SubtreeSpan(std::uint32_t node, std::size_t* begin,
                                   std::size_t* end) const {
  const TreeNode& t = nodes_[node];
  if (t.is_leaf()) {
    const Block& block = blocks_[t.block];
    if (block.begin < *begin) *begin = block.begin;
    if (block.end > *end) *end = block.end;
    return;
  }
  for (std::uint32_t c = 0; c < t.num_children; ++c) {
    SubtreeSpan(t.first_child + c, begin, end);
  }
}

void DynamicTreeIndex::ResetTreeEmpty() {
  nodes_.clear();
  parent_.clear();
  block_node_.clear();
  blocks_.clear();
  points_.clear();
  xs_.clear();
  ys_.clear();
  ids_.clear();
  root_ = kNoNode;
  dead_nodes_ = 0;
  bounds_ = BoundingBox();
}

}  // namespace knnq
