#include "rtree/spatial_join.h"

#include <utility>
#include <vector>

namespace sdb::rtree {

namespace {

using core::AccessContext;
using storage::PageId;

struct JoinContext {
  const RTree* left;
  const RTree* right;
  const AccessContext* ctx;
  const std::function<void(const Entry&, const Entry&)>* visit;
  JoinStats stats;
  // Scan mask reused across the whole recursion: each call finishes with it
  // before descending (descent pairs are collected first).
  std::vector<uint8_t> mask;
};

void JoinNodes(JoinContext& jc, PageId left_id, PageId right_id) {
  ++jc.stats.node_pairs_visited;
  // An unreadable node skips this pair (both subtrees below it): the join
  // result degrades to a subset, reported via JoinStats::io_errors.
  core::StatusOr<core::PageHandle> left_fetched =
      jc.left->buffer()->Fetch(left_id, *jc.ctx);
  if (!left_fetched.ok()) {
    ++jc.stats.io_errors;
    return;
  }
  core::StatusOr<core::PageHandle> right_fetched =
      jc.right->buffer()->Fetch(right_id, *jc.ctx);
  if (!right_fetched.ok()) {
    ++jc.stats.io_errors;
    return;
  }
  core::PageHandle left_page = std::move(left_fetched).value();
  core::PageHandle right_page = std::move(right_fetched).value();
  const NodeView left(left_page.bytes());
  const NodeView right(right_page.bytes());
  const uint16_t na = left.count();
  const bool left_leaf = left.is_leaf();
  const bool right_leaf = right.is_leaf();
  const geom::Rect left_mbr = left.mbr();
  const geom::Rect right_mbr = right.mbr();

  if (left_leaf && right_leaf) {
    // Batch the inner loop: one in-place intersect-mask scan of the right
    // node per left entry, decoding right entries only for actual hits.
    for (uint16_t ia = 0; ia < na; ++ia) {
      const Entry ea = left.GetEntry(ia);
      if (right.ScanEntries(ea.rect, &jc.mask) == 0) continue;
      ForEachHit(jc.mask, [&](uint16_t ib) {
        ++jc.stats.result_pairs;
        if (*jc.visit) (*jc.visit)(ea, right.GetEntry(ib));
      });
    }
    return;
  }

  // Directory descent: collect the qualifying child pairs while the pages
  // are pinned, then release the pins before recursing so deep descents
  // never exhaust small buffers (and the scan mask is free for reuse).
  std::vector<std::pair<PageId, PageId>> next;
  if (left_leaf) {
    // Descend only the right tree; restrict to children meeting the left
    // node's region.
    right.ScanEntries(left_mbr, &jc.mask);
    ForEachHit(jc.mask, [&](uint16_t ib) {
      next.emplace_back(left_id, right.child(ib));
    });
  } else if (right_leaf) {
    left.ScanEntries(right_mbr, &jc.mask);
    ForEachHit(jc.mask, [&](uint16_t ia) {
      next.emplace_back(left.child(ia), right_id);
    });
  } else {
    for (uint16_t ia = 0; ia < na; ++ia) {
      const Entry ea = left.GetEntry(ia);
      if (right.ScanEntries(ea.rect, &jc.mask) == 0) continue;
      ForEachHit(jc.mask, [&](uint16_t ib) {
        next.emplace_back(ea.child(), right.child(ib));
      });
    }
  }
  left_page.Release();
  right_page.Release();
  for (const auto& [l, r] : next) JoinNodes(jc, l, r);
}

}  // namespace

JoinStats SpatialJoin(
    const RTree& left, const RTree& right, const AccessContext& ctx,
    const std::function<void(const Entry&, const Entry&)>& visit) {
  JoinContext jc{&left, &right, &ctx, &visit, JoinStats{}, {}};
  JoinNodes(jc, left.root(), right.root());
  return jc.stats;
}

JoinStats SpatialJoinCount(const RTree& left, const RTree& right,
                           const AccessContext& ctx) {
  return SpatialJoin(left, right, ctx, nullptr);
}

}  // namespace sdb::rtree
