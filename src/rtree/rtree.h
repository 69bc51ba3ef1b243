#ifndef SPATIALBUFFER_RTREE_RTREE_H_
#define SPATIALBUFFER_RTREE_RTREE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/access_context.h"
#include "core/buffer_manager.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/node_view.h"
#include "rtree/rtree_config.h"
#include "storage/disk_manager.h"

namespace sdb::rtree {

/// Defined in rtree/bulk_load.h; forward-declared for the loader's friend
/// declaration below.
enum class PackingOrder;

/// Aggregate statistics of a tree, computed by an offline walk (no I/O is
/// charged). Matches the numbers the paper reports for its two databases.
struct TreeStats {
  uint64_t object_count = 0;
  uint32_t height = 0;
  uint32_t directory_pages = 0;
  uint32_t data_pages = 0;
  double avg_dir_fill = 0.0;   ///< mean entries per directory page
  double avg_data_fill = 0.0;  ///< mean entries per data page

  uint32_t total_pages() const { return directory_pages + data_pages; }
  double directory_share() const {
    return total_pages() == 0
               ? 0.0
               : static_cast<double>(directory_pages) / total_pages();
  }
};

/// A paged R*-tree [Beckmann et al., SIGMOD 1990] — the spatial access
/// method of the paper's experiments. All node accesses at run time go
/// through a pluggable core::PageSource (a private BufferManager, or the
/// sharded svc::BufferService for concurrent clients) so replacement
/// policies can be evaluated; structural inspection (Validate,
/// ComputeStats) bypasses the buffer and is free of I/O cost.
///
/// The tree persists its root/height in a meta page, so a tree built with
/// one buffer can be reopened with another (fresh) buffer — exactly how the
/// experiment harness replays one query set per policy.
class RTree {
 public:
  /// Creates an empty tree on `disk`, performing its page I/O through
  /// `buffer` (which must wrap the same disk).
  RTree(const storage::DiskManager* disk, core::PageSource* buffer,
        const RTreeConfig& config = RTreeConfig{});

  /// Reopens a persisted tree. `meta_page` is the page id returned by
  /// meta_page() of the instance that built the tree. Aborts unless
  /// HasCurrentLayout holds.
  static RTree Open(const storage::DiskManager* disk, core::PageSource* buffer,
                    storage::PageId meta_page);

  /// True if `meta_page` on `disk` is a tree meta page whose pages use this
  /// build's node layout (NodeView::kLayoutVersion).
  static bool HasCurrentLayout(const storage::DiskManager& disk,
                               storage::PageId meta_page);

  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = delete;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Swaps the buffer the tree performs I/O through (e.g. a fresh buffer
  /// with a different replacement policy). The previous buffer must have
  /// been flushed or destroyed by the caller.
  void set_buffer(core::PageSource* buffer) { buffer_ = buffer; }

  /// Buffer the tree currently performs its I/O through.
  core::PageSource* buffer() const { return buffer_; }

  /// Inserts one object entry (R* insertion with forced reinsertion).
  void Insert(const Entry& entry, const core::AccessContext& ctx);

  /// Removes the entry with the given id whose rectangle matches `rect`.
  /// Returns false if no such entry exists.
  bool Delete(uint64_t id, const geom::Rect& rect,
              const core::AccessContext& ctx);

  /// All entries whose rectangle intersects `window`.
  std::vector<Entry> WindowQuery(const geom::Rect& window,
                                 const core::AccessContext& ctx) const;

  /// All entries whose rectangle contains the point.
  std::vector<Entry> PointQuery(const geom::Point& point,
                                const core::AccessContext& ctx) const;

  /// Streaming variant of WindowQuery: calls visit(const Entry&) once per
  /// hit, in the order WindowQuery returns them. A template, so each hit's
  /// decode inlines into the visitor and loads only the columns it reads.
  template <typename Visit>
  void WindowQueryVisit(const geom::Rect& window,
                        const core::AccessContext& ctx, Visit&& visit) const {
    std::vector<storage::PageId> stack{root_};
    // Mask scratch reused by every node scan: the intersect kernel reads each
    // node's coordinate columns in place, so nothing else is copied per node.
    std::vector<uint8_t> mask;
    while (!stack.empty()) {
      const storage::PageId id = stack.back();
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
      // A leaf hit is decoded for the visitor; a directory hit reads just the
      // child id.
      if (node.is_leaf()) {
        ForEachHit(mask, [&](uint16_t i) { visit(node.GetEntry(i)); });
      } else {
        ForEachHit(mask, [&](uint16_t i) { stack.push_back(node.child(i)); });
      }
    }
  }

  /// The k entries whose rectangles are nearest to `point` (min-distance
  /// branch-and-bound). Extension beyond the paper's workloads.
  std::vector<Entry> NearestNeighbors(const geom::Point& point, size_t k,
                                      const core::AccessContext& ctx) const;

  /// Persists root id / height / size to the meta page. Call after building
  /// or updating, before reopening with another buffer.
  void PersistMeta();

  /// Offline structural check: entry counts within bounds, parent rects
  /// equal to child MBRs, header aggregates consistent, all data pages at
  /// level 0, object count consistent. Returns an empty string when the
  /// tree is valid, otherwise a description of the first violation.
  std::string Validate() const;

  /// Offline statistics walk.
  TreeStats ComputeStats() const;

  /// I/O errors the query paths absorbed (fetches that failed after the
  /// buffer's bounded retries). A failed directory fetch prunes its whole
  /// subtree, so a nonzero count means query results may be incomplete —
  /// degraded, not aborted. Mutation paths never absorb errors: they run
  /// during builds over a fault-free device and abort on failure.
  uint64_t io_errors() const { return io_errors_; }
  /// The most recent absorbed error (OK when io_errors() == 0).
  const core::Status& last_io_error() const { return last_io_error_; }
  void ClearIoErrors() {
    io_errors_ = 0;
    last_io_error_ = core::Status::Ok();
  }

  storage::PageId meta_page() const { return meta_page_; }
  storage::PageId root() const { return root_; }
  uint32_t height() const { return height_; }
  uint64_t size() const { return size_; }
  const RTreeConfig& config() const { return config_; }

 private:
  friend void BulkLoadInternal(RTree* tree, std::vector<Entry>&& entries,
                               const core::AccessContext& ctx,
                               double fill_fraction, PackingOrder order);

  RTree(const storage::DiskManager* disk, core::PageSource* buffer,
        const RTreeConfig& config, storage::PageId meta_page);

  uint32_t MaxEntries(uint8_t level) const {
    return level == 0 ? config_.max_data_entries : config_.max_dir_entries;
  }
  uint32_t MinEntries(uint8_t level) const {
    return level == 0 ? config_.min_data_entries()
                      : config_.min_dir_entries();
  }

  /// Descends from the root to the node at `target_level`, choosing
  /// subtrees by the R* criteria. Returns the page-id path root..target and
  /// (parallel, one shorter) the entry index taken within each directory
  /// node.
  void ChoosePath(const geom::Rect& rect, uint8_t target_level,
                  const core::AccessContext& ctx,
                  std::vector<storage::PageId>* path,
                  std::vector<uint16_t>* child_index) const;

  /// Core insertion: places `entry` at `target_level`, handling overflow by
  /// forced reinsertion (once per level per user-level insert) or split.
  void InsertAtLevel(const Entry& entry, uint8_t target_level,
                     const core::AccessContext& ctx,
                     std::vector<bool>* reinserted_at_level);

  /// Updates the parent entry rectangles along `path` after the node at
  /// position `depth` changed its MBR, up to the first ancestor whose
  /// rectangle is already right. Insert and Delete both end with it.
  void AdjustPathUpwards(const std::vector<storage::PageId>& path,
                         const std::vector<uint16_t>& child_index,
                         size_t depth, const core::AccessContext& ctx);

  /// R* split of `entries` (which exceed the node capacity) along the best
  /// axis/distribution. Output groups are non-empty and respect min fill.
  void SplitEntries(std::vector<Entry>& entries, uint8_t level,
                    std::vector<Entry>* group_a,
                    std::vector<Entry>* group_b) const;

  /// Makes a new root above the two given nodes.
  void GrowRoot(const Entry& a, const Entry& b, uint8_t new_root_level,
                const core::AccessContext& ctx);

  /// MBR of a node as currently stored on its page header.
  geom::Rect NodeMbr(storage::PageId id, const core::AccessContext& ctx) const;

  /// Query-path error bookkeeping (const traversals, hence mutable).
  void RecordIoError(const core::Status& status) const {
    ++io_errors_;
    last_io_error_ = status;
  }

  const storage::DiskManager* disk_;
  core::PageSource* buffer_;
  RTreeConfig config_;
  storage::PageId meta_page_ = storage::kInvalidPageId;
  storage::PageId root_ = storage::kInvalidPageId;
  uint32_t height_ = 1;  ///< number of levels; root level = height - 1
  uint64_t size_ = 0;    ///< number of object entries
  mutable uint64_t io_errors_ = 0;
  mutable core::Status last_io_error_;
};

}  // namespace sdb::rtree

#endif  // SPATIALBUFFER_RTREE_RTREE_H_
