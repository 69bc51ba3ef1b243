#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <queue>

#include "common/macros.h"
#include "geom/kernels/kernels.h"

namespace sdb::rtree {

namespace {

using core::AccessContext;
using geom::Point;
using geom::Rect;
using storage::PageId;

/// Meta-page payload, stored right after the standard page header.
struct MetaRecord {
  PageId root;
  uint32_t height;
  uint64_t size;
  uint32_t max_dir_entries;
  uint32_t max_data_entries;
  double min_fill_fraction;
  double reinsert_fraction;
  uint32_t variant;
  uint32_t layout;  ///< NodeView::kLayoutVersion; row-layout trees wrote 0
};

Entry MakeDirEntry(const Rect& rect, PageId child) {
  Entry e;
  e.rect = rect;
  e.id = child;
  return e;
}

Rect MbrOf(std::span<const Entry> entries) {
  Rect r;
  for (const Entry& e : entries) r.Extend(e.rect);
  return r;
}

}  // namespace

RTree::RTree(const storage::DiskManager* disk, core::PageSource* buffer,
             const RTreeConfig& config)
    : disk_(disk), buffer_(buffer), config_(config) {
  // `buffer` must wrap `disk` (or a view of it); the PageSource interface
  // cannot expose its backing device, so this is the caller's contract.
  SDB_CHECK(disk != nullptr && buffer != nullptr);
  const uint32_t capacity =
      NodeView::Capacity(disk->page_size());
  SDB_CHECK_MSG(config.max_dir_entries >= 4 &&
                    config.max_dir_entries <= capacity,
                "directory fanout out of range for the page size");
  SDB_CHECK_MSG(config.max_data_entries >= 4 &&
                    config.max_data_entries <= capacity,
                "data fanout out of range for the page size");

  const AccessContext ctx;
  core::PageHandle meta = buffer_->NewOrDie(ctx);
  meta_page_ = meta.page_id();
  meta.header().set_type(storage::PageType::kMeta);
  meta.MarkDirty();
  meta.Release();

  core::PageHandle root = buffer_->NewOrDie(ctx);
  root_ = root.page_id();
  NodeView(root.bytes()).Init(/*level=*/0);
  root.MarkDirty();
  root.Release();

  height_ = 1;
  size_ = 0;
  PersistMeta();
}

RTree::RTree(const storage::DiskManager* disk, core::PageSource* buffer,
             const RTreeConfig& config, storage::PageId meta_page)
    : disk_(disk), buffer_(buffer), config_(config), meta_page_(meta_page) {}

RTree RTree::Open(const storage::DiskManager* disk,
                  core::PageSource* buffer,
                  storage::PageId meta_page) {
  SDB_CHECK(disk != nullptr && buffer != nullptr);
  SDB_CHECK_MSG(HasCurrentLayout(*disk, meta_page),
                "not a tree meta page, or its tree uses another node layout");
  MetaRecord record;
  std::memcpy(&record,
              disk->PeekPage(meta_page).data() +
                  storage::PageHeaderView::kHeaderSize,
              sizeof(record));
  RTreeConfig config;
  config.variant = static_cast<TreeVariant>(record.variant);
  config.max_dir_entries = record.max_dir_entries;
  config.max_data_entries = record.max_data_entries;
  config.min_fill_fraction = record.min_fill_fraction;
  config.reinsert_fraction = record.reinsert_fraction;
  RTree tree(disk, buffer, config, meta_page);
  tree.root_ = record.root;
  tree.height_ = record.height;
  tree.size_ = record.size;
  return tree;
}

bool RTree::HasCurrentLayout(const storage::DiskManager& disk,
                             storage::PageId meta_page) {
  const std::span<const std::byte> page = disk.PeekPage(meta_page);
  uint32_t layout;
  std::memcpy(&layout, page.data() + storage::PageHeaderView::kHeaderSize +
                           offsetof(MetaRecord, layout),
              sizeof(layout));
  return storage::ConstPageHeaderView(page.data()).type() ==
             storage::PageType::kMeta &&
         layout == NodeView::kLayoutVersion;
}

void RTree::PersistMeta() {
  MetaRecord record;
  record.root = root_;
  record.height = height_;
  record.size = size_;
  record.max_dir_entries = config_.max_dir_entries;
  record.max_data_entries = config_.max_data_entries;
  record.min_fill_fraction = config_.min_fill_fraction;
  record.reinsert_fraction = config_.reinsert_fraction;
  record.variant = static_cast<uint32_t>(config_.variant);
  record.layout = NodeView::kLayoutVersion;
  const AccessContext ctx;
  core::PageHandle meta = buffer_->FetchOrDie(meta_page_, ctx);
  std::memcpy(meta.bytes().data() + storage::PageHeaderView::kHeaderSize,
              &record, sizeof(record));
  meta.MarkDirty();
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

void RTree::Insert(const Entry& entry, const AccessContext& ctx) {
  // Both comparisons are false for an inverted (empty) rect and for a NaN
  // coordinate, which would corrupt the header aggregates.
  SDB_CHECK_MSG(entry.rect.xmin <= entry.rect.xmax &&
                    entry.rect.ymin <= entry.rect.ymax,
                "cannot index an empty rectangle or a NaN coordinate");
  // One forced reinsertion per level per user-level insertion (R* rule);
  // generously sized so root growth during the insert stays in range.
  std::vector<bool> reinserted(64, false);
  InsertAtLevel(entry, /*target_level=*/0, ctx, &reinserted);
  ++size_;
}

void RTree::ChoosePath(const Rect& rect, uint8_t target_level,
                       const AccessContext& ctx,
                       std::vector<PageId>* path,
                       std::vector<uint16_t>* child_index) const {
  path->clear();
  child_index->clear();
  std::vector<double> overlap;
  PageId current = root_;
  while (true) {
    path->push_back(current);
    core::PageHandle page = buffer_->FetchOrDie(current, ctx);
    const NodeView node(page.bytes());
    const uint8_t level = node.level();
    if (level == target_level) return;
    SDB_DCHECK(level > target_level);
    const uint16_t n = node.count();
    SDB_CHECK_MSG(n > 0, "descending through an empty node");

    // R* ChooseSubtree: the least overlap enlargement when the children are
    // data pages (the kernel reads the page's columns in place), then the
    // least area enlargement, then the least area. At other levels, and in
    // the Guttman variants, every overlap is 0 and never decides.
    overlap.assign(n, 0.0);
    if (level == 1 && config_.variant == TreeVariant::kRStar) {
      geom::kernels::ActiveOps().overlap_enlargement(rect, node.coords(), n,
                                                     overlap.data());
    }
    uint16_t best = 0;
    double best_overlap = 0.0, best_enlarge = 0.0, best_area = 0.0;
    for (uint16_t i = 0; i < n; ++i) {
      const Rect r = node.rect(i);
      const double enlarge = geom::AreaEnlargement(r, rect);
      const double area = r.Area();
      if (i == 0 || overlap[i] < best_overlap ||
          (overlap[i] == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap[i];
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    child_index->push_back(best);
    current = node.child(best);
  }
}

void RTree::InsertAtLevel(const Entry& entry, uint8_t target_level,
                          const AccessContext& ctx,
                          std::vector<bool>* reinserted_at_level) {
  std::vector<PageId> path;
  std::vector<uint16_t> child_index;
  ChoosePath(entry.rect, target_level, ctx, &path, &child_index);

  // Walk upward from the target node, carrying at most one pending entry
  // (the split partner) to add to the next ancestor.
  Entry pending = entry;
  size_t depth = path.size() - 1;
  uint8_t level = target_level;

  while (true) {
    const PageId node_id = path[depth];
    core::PageHandle page = buffer_->FetchOrDie(node_id, ctx);
    NodeView node(page.bytes());
    if (node.count() < MaxEntries(level)) {
      // The common case: room on the page, so append in place.
      node.Append(pending);
      node.RefreshAggregates();
      page.MarkDirty();
      page.Release();
      AdjustPathUpwards(path, child_index, depth, ctx);
      return;
    }
    std::vector<Entry> entries = node.LoadEntries();
    entries.push_back(pending);

    const bool is_root = (node_id == root_);
    if (config_.variant == TreeVariant::kRStar && !is_root &&
        !(*reinserted_at_level)[level]) {
      // --- Forced reinsertion (R* OverflowTreatment, first time per level).
      (*reinserted_at_level)[level] = true;
      const Rect node_mbr = MbrOf(entries);
      const Point center = node_mbr.Center();
      // Sort by distance of the entry's center from the node's center,
      // farthest first.
      std::stable_sort(entries.begin(), entries.end(),
                       [&center](const Entry& a, const Entry& b) {
                         return geom::SquaredDistance(a.rect.Center(),
                                                      center) >
                                geom::SquaredDistance(b.rect.Center(),
                                                      center);
                       });
      const uint32_t p = config_.reinsert_count(MaxEntries(level));
      std::vector<Entry> removed(entries.begin(), entries.begin() + p);
      entries.erase(entries.begin(), entries.begin() + p);
      node.WriteEntries(entries);
      page.MarkDirty();
      page.Release();
      AdjustPathUpwards(path, child_index, depth, ctx);
      // Close reinsert: re-add starting with the entry nearest the center.
      for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
        InsertAtLevel(*it, level, ctx, reinserted_at_level);
      }
      return;
    }

    // --- Split.
    std::vector<Entry> group_a, group_b;
    SplitEntries(entries, level, &group_a, &group_b);
    node.WriteEntries(group_a);
    page.MarkDirty();
    page.Release();

    core::PageHandle fresh = buffer_->NewOrDie(ctx);
    const PageId new_id = fresh.page_id();
    NodeView new_node(fresh.bytes());
    new_node.Init(level);
    new_node.WriteEntries(group_b);
    fresh.MarkDirty();
    fresh.Release();

    if (is_root) {
      GrowRoot(MakeDirEntry(MbrOf(group_a), node_id),
               MakeDirEntry(MbrOf(group_b), new_id),
               static_cast<uint8_t>(level + 1), ctx);
      return;
    }

    // Update the parent's rectangle for the shrunk node, then ascend with
    // the new node's entry as the pending insertion.
    {
      const PageId parent_id = path[depth - 1];
      core::PageHandle parent_page = buffer_->FetchOrDie(parent_id, ctx);
      NodeView parent(parent_page.bytes());
      parent.set_rect(child_index[depth - 1], MbrOf(group_a));
      parent.RefreshAggregates();
      parent_page.MarkDirty();
    }
    pending = MakeDirEntry(MbrOf(group_b), new_id);
    --depth;
    ++level;
  }
}

void RTree::AdjustPathUpwards(const std::vector<PageId>& path,
                              const std::vector<uint16_t>& child_index,
                              size_t depth, const AccessContext& ctx) {
  for (size_t d = depth; d > 0; --d) {
    const Rect child_mbr = NodeMbr(path[d], ctx);
    core::PageHandle parent_page = buffer_->FetchOrDie(path[d - 1], ctx);
    NodeView parent(parent_page.bytes());
    if (parent.rect(child_index[d - 1]) == child_mbr) {
      return;  // ancestors already consistent
    }
    parent.set_rect(child_index[d - 1], child_mbr);
    parent.RefreshAggregates();
    parent_page.MarkDirty();
  }
}

namespace {

/// Guttman's quadratic split: seed the two groups with the pair whose
/// combined bounding box wastes the most area, then repeatedly assign the
/// entry with the strongest preference, honoring the minimum fill.
void QuadraticSplit(std::vector<Entry>& entries, uint32_t min_entries,
                    std::vector<Entry>* group_a, std::vector<Entry>* group_b) {
  const size_t total = entries.size();
  // PickSeeds.
  size_t seed_a = 0, seed_b = 1;
  double worst_waste = -1.0;
  for (size_t i = 0; i < total; ++i) {
    for (size_t j = i + 1; j < total; ++j) {
      const double waste = geom::Union(entries[i].rect, entries[j].rect)
                               .Area() -
                           entries[i].rect.Area() - entries[j].rect.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  group_a->clear();
  group_b->clear();
  group_a->push_back(entries[seed_a]);
  group_b->push_back(entries[seed_b]);
  Rect mbr_a = entries[seed_a].rect;
  Rect mbr_b = entries[seed_b].rect;

  std::vector<Entry> remaining;
  for (size_t i = 0; i < total; ++i) {
    if (i != seed_a && i != seed_b) remaining.push_back(entries[i]);
  }
  while (!remaining.empty()) {
    // If one group must take everything left to reach min fill, do so.
    if (group_a->size() + remaining.size() == min_entries) {
      for (const Entry& e : remaining) group_a->push_back(e);
      break;
    }
    if (group_b->size() + remaining.size() == min_entries) {
      for (const Entry& e : remaining) group_b->push_back(e);
      break;
    }
    // PickNext: the entry with the greatest enlargement difference.
    size_t pick = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const double da = geom::AreaEnlargement(mbr_a, remaining[i].rect);
      const double db = geom::AreaEnlargement(mbr_b, remaining[i].rect);
      const double diff = std::abs(da - db);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    const Entry e = remaining[pick];
    remaining.erase(remaining.begin() + pick);
    const double da = geom::AreaEnlargement(mbr_a, e.rect);
    const double db = geom::AreaEnlargement(mbr_b, e.rect);
    const bool to_a =
        da < db ||
        (da == db && (mbr_a.Area() < mbr_b.Area() ||
                      (mbr_a.Area() == mbr_b.Area() &&
                       group_a->size() <= group_b->size())));
    if (to_a) {
      group_a->push_back(e);
      mbr_a.Extend(e.rect);
    } else {
      group_b->push_back(e);
      mbr_b.Extend(e.rect);
    }
  }
}

/// Guttman's linear split: seeds are the pair with the greatest normalized
/// separation along any dimension; the rest is assigned like quadratic.
void LinearSplit(std::vector<Entry>& entries, uint32_t min_entries,
                 std::vector<Entry>* group_a, std::vector<Entry>* group_b) {
  const size_t total = entries.size();
  size_t best_pair[2] = {0, 1};
  double best_separation = -1.0;
  for (int axis = 0; axis < 2; ++axis) {
    // Highest low side and lowest high side.
    size_t highest_low = 0, lowest_high = 0;
    double min_low = 0, max_high = 0;
    for (size_t i = 0; i < total; ++i) {
      const double low = axis == 0 ? entries[i].rect.xmin
                                   : entries[i].rect.ymin;
      const double high = axis == 0 ? entries[i].rect.xmax
                                    : entries[i].rect.ymax;
      if (i == 0) {
        min_low = low;
        max_high = high;
        continue;
      }
      const double hl_low = axis == 0 ? entries[highest_low].rect.xmin
                                      : entries[highest_low].rect.ymin;
      if (low > hl_low) highest_low = i;
      const double lh_high = axis == 0 ? entries[lowest_high].rect.xmax
                                       : entries[lowest_high].rect.ymax;
      if (high < lh_high) lowest_high = i;
      min_low = std::min(min_low, low);
      max_high = std::max(max_high, high);
    }
    if (highest_low == lowest_high) continue;
    const double width = max_high - min_low;
    if (width <= 0) continue;
    const double hl = axis == 0 ? entries[highest_low].rect.xmin
                                : entries[highest_low].rect.ymin;
    const double lh = axis == 0 ? entries[lowest_high].rect.xmax
                                : entries[lowest_high].rect.ymax;
    const double separation = (hl - lh) / width;
    if (separation > best_separation) {
      best_separation = separation;
      best_pair[0] = lowest_high;
      best_pair[1] = highest_low;
    }
  }
  if (best_pair[0] == best_pair[1]) best_pair[1] = best_pair[0] ? 0 : 1;

  group_a->clear();
  group_b->clear();
  group_a->push_back(entries[best_pair[0]]);
  group_b->push_back(entries[best_pair[1]]);
  Rect mbr_a = entries[best_pair[0]].rect;
  Rect mbr_b = entries[best_pair[1]].rect;
  std::vector<Entry> remaining;
  for (size_t i = 0; i < total; ++i) {
    if (i != best_pair[0] && i != best_pair[1]) {
      remaining.push_back(entries[i]);
    }
  }
  for (size_t i = 0; i < remaining.size(); ++i) {
    const Entry& e = remaining[i];
    const size_t left = remaining.size() - i;  // including e
    // A group that needs every remaining entry to reach min fill gets them.
    if (group_a->size() + left <= min_entries) {
      group_a->push_back(e);
      mbr_a.Extend(e.rect);
      continue;
    }
    if (group_b->size() + left <= min_entries) {
      group_b->push_back(e);
      mbr_b.Extend(e.rect);
      continue;
    }
    const double da = geom::AreaEnlargement(mbr_a, e.rect);
    const double db = geom::AreaEnlargement(mbr_b, e.rect);
    if (da < db || (da == db && group_a->size() <= group_b->size())) {
      group_a->push_back(e);
      mbr_a.Extend(e.rect);
    } else {
      group_b->push_back(e);
      mbr_b.Extend(e.rect);
    }
  }
}

}  // namespace

void RTree::SplitEntries(std::vector<Entry>& entries, uint8_t level,
                         std::vector<Entry>* group_a,
                         std::vector<Entry>* group_b) const {
  const uint32_t max_entries = MaxEntries(level);
  const uint32_t min_entries = MinEntries(level);
  SDB_CHECK(entries.size() == max_entries + 1);
  if (config_.variant == TreeVariant::kGuttmanQuadratic) {
    QuadraticSplit(entries, min_entries, group_a, group_b);
    return;
  }
  if (config_.variant == TreeVariant::kGuttmanLinear) {
    LinearSplit(entries, min_entries, group_a, group_b);
    return;
  }
  const uint32_t total = max_entries + 1;
  const uint32_t distributions = total - 2 * min_entries + 1;
  SDB_CHECK_MSG(distributions >= 1, "fanout too small to split");

  // R* ChooseSplitAxis: for each axis consider the entries sorted by lower
  // and by upper boundary; the axis with the minimal sum of margins over
  // all legal distributions wins.
  std::vector<Entry> best_sorted;
  double best_margin_sum = 0.0;
  bool have_axis = false;

  for (int axis = 0; axis < 2; ++axis) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<Entry> sorted = entries;
      std::stable_sort(
          sorted.begin(), sorted.end(),
          [axis, by_upper](const Entry& a, const Entry& b) {
            const double ka = axis == 0
                                  ? (by_upper ? a.rect.xmax : a.rect.xmin)
                                  : (by_upper ? a.rect.ymax : a.rect.ymin);
            const double kb = axis == 0
                                  ? (by_upper ? b.rect.xmax : b.rect.xmin)
                                  : (by_upper ? b.rect.ymax : b.rect.ymin);
            return ka < kb;
          });
      // Prefix/suffix MBRs make each distribution O(1).
      std::vector<Rect> prefix(total), suffix(total);
      Rect acc;
      for (uint32_t i = 0; i < total; ++i) {
        acc.Extend(sorted[i].rect);
        prefix[i] = acc;
      }
      acc = Rect();
      for (uint32_t i = total; i > 0; --i) {
        acc.Extend(sorted[i - 1].rect);
        suffix[i - 1] = acc;
      }
      double margin_sum = 0.0;
      for (uint32_t k = min_entries; k <= total - min_entries; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (!have_axis || margin_sum < best_margin_sum) {
        have_axis = true;
        best_margin_sum = margin_sum;
        best_sorted = std::move(sorted);
      }
    }
  }

  // R* ChooseSplitIndex on the winning ordering: minimal overlap between the
  // two groups, ties by minimal total area.
  std::vector<Rect> prefix(total), suffix(total);
  Rect acc;
  for (uint32_t i = 0; i < total; ++i) {
    acc.Extend(best_sorted[i].rect);
    prefix[i] = acc;
  }
  acc = Rect();
  for (uint32_t i = total; i > 0; --i) {
    acc.Extend(best_sorted[i - 1].rect);
    suffix[i - 1] = acc;
  }
  uint32_t best_k = min_entries;
  double best_overlap = 0.0, best_area = 0.0;
  bool have_k = false;
  for (uint32_t k = min_entries; k <= total - min_entries; ++k) {
    const double overlap = geom::IntersectionArea(prefix[k - 1], suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (!have_k || overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      have_k = true;
      best_k = k;
      best_overlap = overlap;
      best_area = area;
    }
  }

  group_a->assign(best_sorted.begin(), best_sorted.begin() + best_k);
  group_b->assign(best_sorted.begin() + best_k, best_sorted.end());
}

void RTree::GrowRoot(const Entry& a, const Entry& b, uint8_t new_root_level,
                     const AccessContext& ctx) {
  core::PageHandle page = buffer_->NewOrDie(ctx);
  NodeView node(page.bytes());
  node.Init(new_root_level);
  node.Append(a);
  node.Append(b);
  node.RefreshAggregates();
  page.MarkDirty();
  root_ = page.page_id();
  height_ = new_root_level + 1;
}

geom::Rect RTree::NodeMbr(PageId id, const AccessContext& ctx) const {
  core::PageHandle page = buffer_->FetchOrDie(id, ctx);
  return page.header().mbr();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

namespace {

/// Path step used during deletion: node id plus the entry index taken in the
/// parent (undefined for the root).
struct PathStep {
  PageId page;
  uint16_t index_in_parent;
};

}  // namespace

bool RTree::Delete(uint64_t id, const Rect& rect, const AccessContext& ctx) {
  // Depth-first search for the leaf holding the entry, keeping the path.
  std::vector<PathStep> path{{root_, 0}};
  std::vector<uint16_t> cursor{0};
  std::optional<uint16_t> found_index;
  std::vector<uint8_t> mask;

  while (!path.empty()) {
    const PageId node_id = path.back().page;
    core::PageHandle page = buffer_->FetchOrDie(node_id, ctx);
    const NodeView node(page.bytes());
    const uint16_t n = node.count();
    const bool leaf = node.is_leaf();
    // A leaf reads the id column first and a rectangle only on an id match;
    // a directory scans its coordinate columns and reads a hit's child id.
    if (!leaf) node.ScanEntries(rect, &mask);
    bool descended = false;
    uint16_t i = cursor.back();
    for (; i < n; ++i) {
      if (leaf) {
        if (node.id(i) == id && node.rect(i) == rect) {
          found_index = i;
          break;
        }
      } else if (mask[i] != 0) {
        cursor.back() = i + 1;  // resume after this child on backtrack
        path.push_back({node.child(i), i});
        cursor.push_back(0);
        descended = true;
        break;
      }
    }
    if (!descended) cursor.back() = i;
    if (found_index) break;
    if (!descended) {
      path.pop_back();
      cursor.pop_back();
    }
  }
  if (!found_index) return false;

  // Remove the entry from the leaf.
  std::vector<Entry> orphans;  // data entries to reinsert
  {
    const PageId leaf_id = path.back().page;
    core::PageHandle page = buffer_->FetchOrDie(leaf_id, ctx);
    NodeView node(page.bytes());
    std::vector<Entry> entries = node.LoadEntries();
    entries.erase(entries.begin() + *found_index);
    node.WriteEntries(entries);
    page.MarkDirty();
  }
  --size_;

  // CondenseTree: walk upward; underfull non-root nodes are dissolved and
  // their entries queued for reinsertion at their original level.
  for (size_t depth = path.size() - 1; depth > 0; --depth) {
    const PageId node_id = path[depth].page;
    core::PageHandle page = buffer_->FetchOrDie(node_id, ctx);
    NodeView node(page.bytes());
    const uint8_t level = node.level();
    const std::vector<Entry> entries = node.LoadEntries();
    const bool underfull = entries.size() < MinEntries(level);

    core::PageHandle parent_page = buffer_->FetchOrDie(path[depth - 1].page, ctx);
    NodeView parent(parent_page.bytes());
    std::vector<Entry> parent_entries = parent.LoadEntries();
    const uint16_t my_index = path[depth].index_in_parent;

    if (underfull) {
      // Dissolve the node. Data entries are queued directly; a directory
      // node's subtrees are dismantled down to their data entries, which is
      // always level-consistent no matter how far the root later shrinks.
      if (level == 0) {
        orphans.insert(orphans.end(), entries.begin(), entries.end());
      } else {
        std::vector<PageId> stack;
        for (const Entry& e : entries) stack.push_back(e.child());
        while (!stack.empty()) {
          const PageId sub = stack.back();
          stack.pop_back();
          core::PageHandle sub_page = buffer_->FetchOrDie(sub, ctx);
          const NodeView sub_node(sub_page.bytes());
          const uint16_t sub_n = sub_node.count();
          for (uint16_t j = 0; j < sub_n; ++j) {
            const Entry e = sub_node.GetEntry(j);
            if (sub_node.is_leaf()) {
              orphans.push_back(e);
            } else {
              stack.push_back(e.child());
            }
          }
        }
      }
      parent_entries.erase(parent_entries.begin() + my_index);
      // Later path indexes into this parent are unaffected because the path
      // only references one child per node.
    } else {
      parent_entries[my_index].rect = MbrOf(entries);
    }
    parent.WriteEntries(parent_entries);
    parent_page.MarkDirty();
  }

  // Shrink the root while it is a directory with a single child.
  while (height_ > 1) {
    core::PageHandle page = buffer_->FetchOrDie(root_, ctx);
    const NodeView node(page.bytes());
    if (node.is_leaf()) break;
    if (node.count() == 0) {
      // Every subtree dissolved (mass deletion): restart from an empty leaf;
      // the orphans below re-populate it.
      page.Release();
      core::PageHandle fresh = buffer_->NewOrDie(ctx);
      NodeView(fresh.bytes()).Init(/*level=*/0);
      fresh.MarkDirty();
      root_ = fresh.page_id();
      height_ = 1;
      break;
    }
    if (node.count() != 1) break;
    root_ = node.child(0);
    --height_;
  }

  // Reinsert the orphaned data entries (size_ is unaffected: they were
  // already counted).
  for (const Entry& entry : orphans) {
    std::vector<bool> reinserted(64, false);
    InsertAtLevel(entry, /*target_level=*/0, ctx, &reinserted);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void RTree::WindowQueryVisit(
    const Rect& window, const AccessContext& ctx,
    const std::function<void(const Entry&)>& visit) const {
  std::vector<PageId> stack{root_};
  // Mask scratch reused by every node scan: the intersect kernel reads each
  // node's coordinate columns in place, so nothing else is copied per node.
  std::vector<uint8_t> mask;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    core::StatusOr<core::PageHandle> fetched = buffer_->Fetch(id, ctx);
    if (!fetched.ok()) {
      // An unreadable node prunes its subtree: the query degrades to a
      // partial result (reported via io_errors()) instead of killing the
      // process.
      RecordIoError(fetched.status());
      continue;
    }
    core::PageHandle page = std::move(fetched).value();
    const NodeView node(page.bytes());
    if (node.ScanEntries(window, &mask) == 0) continue;
    // Only a leaf hit is decoded into an Entry; a directory hit reads just
    // the child id.
    if (node.is_leaf()) {
      ForEachHit(mask, [&](uint16_t i) { visit(node.GetEntry(i)); });
    } else {
      ForEachHit(mask, [&](uint16_t i) { stack.push_back(node.child(i)); });
    }
  }
}

std::vector<Entry> RTree::WindowQuery(const Rect& window,
                                      const AccessContext& ctx) const {
  std::vector<Entry> out;
  WindowQueryVisit(window, ctx, [&out](const Entry& e) { out.push_back(e); });
  return out;
}

std::vector<Entry> RTree::PointQuery(const Point& point,
                                     const AccessContext& ctx) const {
  return WindowQuery(Rect::FromPoint(point), ctx);
}

std::vector<Entry> RTree::NearestNeighbors(const Point& point, size_t k,
                                           const AccessContext& ctx) const {
  struct QueueItem {
    double dist;
    bool is_entry;
    PageId page;  // when !is_entry
    Entry entry;  // when is_entry
  };
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.dist > b.dist;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> queue(
      cmp);
  auto rect_distance = [&point](const Rect& r) {
    const double dx =
        std::max({r.xmin - point.x, 0.0, point.x - r.xmax});
    const double dy =
        std::max({r.ymin - point.y, 0.0, point.y - r.ymax});
    return dx * dx + dy * dy;
  };
  queue.push({0.0, false, root_, Entry{}});
  std::vector<Entry> out;
  while (!queue.empty() && out.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.is_entry) {
      out.push_back(item.entry);
      continue;
    }
    core::StatusOr<core::PageHandle> fetched = buffer_->Fetch(item.page, ctx);
    if (!fetched.ok()) {
      RecordIoError(fetched.status());
      continue;  // prune this subtree; nearer candidates may still complete
    }
    core::PageHandle page = std::move(fetched).value();
    const NodeView node(page.bytes());
    const uint16_t n = node.count();
    const bool leaf = node.is_leaf();
    for (uint16_t i = 0; i < n; ++i) {
      const Entry e = node.GetEntry(i);
      if (leaf) {
        queue.push({rect_distance(e.rect), true, storage::kInvalidPageId, e});
      } else {
        queue.push({rect_distance(e.rect), false, e.child(), Entry{}});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Offline inspection
// ---------------------------------------------------------------------------

namespace {

struct WalkResult {
  uint64_t objects = 0;
  uint32_t dir_pages = 0;
  uint32_t data_pages = 0;
  uint64_t dir_entries = 0;
  uint64_t data_entries = 0;
  std::string error;
};

/// Current image of a page: the (possibly newer) buffered copy when
/// resident, the disk copy otherwise. Costs no counted I/O.
std::span<const std::byte> PeekImage(const storage::DiskManager& disk,
                                     const core::PageSource* buffer,
                                     PageId id) {
  if (buffer != nullptr) {
    const std::span<const std::byte> resident = buffer->Peek(id);
    if (!resident.empty()) return resident;
  }
  return disk.PeekPage(id);
}

void OfflineWalk(const storage::DiskManager& disk,
                 const core::PageSource* buffer,
                 const RTreeConfig& config, PageId id, uint8_t expected_level,
                 bool is_root, WalkResult* out) {
  if (!out->error.empty()) return;
  std::span<const std::byte> raw = PeekImage(disk, buffer, id);
  // NodeView does not mutate through the const accessors used below.
  NodeView node(std::span<std::byte>(
      const_cast<std::byte*>(raw.data()), raw.size()));
  const storage::PageMeta meta = node.header().ToMeta();

  auto fail = [&](const std::string& what) {
    out->error = "page " + std::to_string(id) + ": " + what;
  };

  if (meta.level != expected_level) {
    fail("level " + std::to_string(meta.level) + " != expected " +
         std::to_string(expected_level));
    return;
  }
  const bool leaf = expected_level == 0;
  if (leaf && meta.type != storage::PageType::kData) {
    fail("leaf page with non-data type");
    return;
  }
  if (!leaf && meta.type != storage::PageType::kDirectory) {
    fail("inner page with non-directory type");
    return;
  }
  const uint32_t max_entries =
      leaf ? config.max_data_entries : config.max_dir_entries;
  const uint32_t min_entries =
      leaf ? config.min_data_entries() : config.min_dir_entries();
  if (meta.entry_count > max_entries) {
    fail("overfull node");
    return;
  }
  if (!is_root && meta.entry_count < min_entries) {
    fail("underfull node");
    return;
  }
  if (!leaf && is_root && meta.entry_count < 2) {
    fail("directory root with fewer than 2 entries");
    return;
  }

  const std::vector<Entry> entries = node.LoadEntries();
  std::vector<Rect> rects;
  rects.reserve(entries.size());
  for (const Entry& e : entries) rects.push_back(e.rect);
  const geom::EntryAggregates agg = geom::ComputeEntryAggregates(rects);
  if (!(agg.mbr == meta.mbr) && !entries.empty()) {
    fail("header MBR out of date");
    return;
  }
  const auto close = [](double a, double b) {
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 1e-9 * scale;
  };
  if (!close(agg.sum_entry_area, meta.sum_entry_area) ||
      !close(agg.sum_entry_margin, meta.sum_entry_margin) ||
      !close(agg.entry_overlap, meta.entry_overlap)) {
    fail("header aggregates out of date");
    return;
  }

  if (leaf) {
    ++out->data_pages;
    out->data_entries += entries.size();
    out->objects += entries.size();
    return;
  }
  ++out->dir_pages;
  out->dir_entries += entries.size();
  for (const Entry& e : entries) {
    const storage::PageMeta child =
        storage::ConstPageHeaderView(PeekImage(disk, buffer, e.child()).data())
            .ToMeta();
    if (!(child.mbr == e.rect)) {
      fail("entry rect differs from child MBR (child " +
           std::to_string(e.child()) + ")");
      return;
    }
    OfflineWalk(disk, buffer, config, e.child(),
                static_cast<uint8_t>(expected_level - 1), false, out);
    if (!out->error.empty()) return;
  }
}

}  // namespace

std::string RTree::Validate() const {
  WalkResult result;
  OfflineWalk(*disk_, buffer_, config_, root_,
              static_cast<uint8_t>(height_ - 1),
              /*is_root=*/true, &result);
  if (!result.error.empty()) return result.error;
  if (result.objects != size_) {
    return "object count mismatch: tree holds " +
           std::to_string(result.objects) + ", size() reports " +
           std::to_string(size_);
  }
  return "";
}

TreeStats RTree::ComputeStats() const {
  WalkResult result;
  OfflineWalk(*disk_, buffer_, config_, root_,
              static_cast<uint8_t>(height_ - 1),
              /*is_root=*/true, &result);
  TreeStats stats;
  stats.object_count = result.objects;
  stats.height = height_;
  stats.directory_pages = result.dir_pages;
  stats.data_pages = result.data_pages;
  stats.avg_dir_fill =
      result.dir_pages == 0
          ? 0.0
          : static_cast<double>(result.dir_entries) / result.dir_pages;
  stats.avg_data_fill =
      result.data_pages == 0
          ? 0.0
          : static_cast<double>(result.data_entries) / result.data_pages;
  return stats;
}

}  // namespace sdb::rtree
