#ifndef SPATIALBUFFER_RTREE_NODE_VIEW_H_
#define SPATIALBUFFER_RTREE_NODE_VIEW_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/macros.h"
#include "geom/kernels/kernels.h"
#include "geom/rect.h"
#include "storage/page.h"

namespace sdb::rtree {

/// Reference from a data-page entry to the exact object representation in
/// the object store (object page id + slot).
struct ObjectRef {
  storage::PageId page = storage::kInvalidPageId;
  uint16_t slot = 0;

  friend bool operator==(const ObjectRef&, const ObjectRef&) = default;
};

/// One R*-tree node entry. In a directory page, `id` is the child page id;
/// in a data page, `id` is the object id and `ref` points into the object
/// store.
struct Entry {
  geom::Rect rect;
  uint64_t id = 0;
  ObjectRef ref;

  storage::PageId child() const {
    return static_cast<storage::PageId>(id);
  }

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Structured accessor over the byte image of one R*-tree page (a directory
/// or data node). The node owns no memory — it wraps a pinned buffer frame
/// (or any page-sized byte span) and reads/writes the page in place.
///
/// On-page layout: the standard 64-byte storage header (which carries the
/// spatial aggregates used by the replacement policies), then the entries
/// column-wise, so the batch kernels read the coordinate columns in place
/// and a traversal decodes only the columns it needs. Each column holds
/// cap = Capacity(page size) values:
///
///   column     type  offset (cap = 84 at 4 KiB)
///   xmin[cap]  f64   64
///   ymin[cap]  f64   64 +  8·cap   (736)
///   xmax[cap]  f64   64 + 16·cap  (1408)
///   ymax[cap]  f64   64 + 24·cap  (2080)
///   id[cap]    u64   64 + 32·cap  (2752)
///   page[cap]  u32   64 + 40·cap  (3424)  ObjectRef::page
///   slot[cap]  u16   64 + 44·cap  (3760)  ObjectRef::slot
class NodeView {
 public:
  /// Page bytes per entry: 46 in the columns, 2 unused (the row layout's).
  static constexpr size_t kEntrySize = 48;

  /// Node-layout version persisted in the tree's meta page: 0 was the
  /// 48-byte row record, 1 is the column layout above.
  static constexpr uint32_t kLayoutVersion = 1;

  /// Largest entry count a page of `page_size` bytes can hold.
  static constexpr uint32_t Capacity(size_t page_size) {
    return static_cast<uint32_t>(
        (page_size - storage::PageHeaderView::kHeaderSize) / kEntrySize);
  }

  explicit NodeView(std::span<std::byte> page) : page_(page) {}

  storage::PageHeaderView header() {
    return storage::PageHeaderView(page_.data());
  }
  storage::ConstPageHeaderView header() const {
    return storage::ConstPageHeaderView(page_.data());
  }

  /// Initializes an empty node of the given kind. `level` 0 = data page.
  void Init(uint8_t level);

  bool is_leaf() const { return header().type() == storage::PageType::kData; }
  uint8_t level() const { return header().level(); }
  uint16_t count() const { return header().entry_count(); }
  geom::Rect mbr() const { return header().mbr(); }

  /// Entry i, one load per column. Inline, so a caller that reads only
  /// some of the fields leaves the loads of the other columns dead.
  Entry GetEntry(uint16_t i) const {
    SDB_DCHECK(i < count());
    Entry e;
    e.rect = rect(i);
    e.id = id(i);
    LoadAt(column(kObjPage), i, &e.ref.page);
    LoadAt(column(kObjSlot), i, &e.ref.slot);
    return e;
  }
  void SetEntry(uint16_t i, const Entry& e);

  /// Entry i's rectangle, from the coordinate columns alone.
  geom::Rect rect(uint16_t i) const {
    SDB_DCHECK(i < count());
    geom::Rect r;
    LoadAt(column(kXmin), i, &r.xmin);
    LoadAt(column(kYmin), i, &r.ymin);
    LoadAt(column(kXmax), i, &r.xmax);
    LoadAt(column(kYmax), i, &r.ymax);
    return r;
  }
  /// Overwrites entry i's rectangle without refreshing aggregates.
  void set_rect(uint16_t i, const geom::Rect& r);
  /// Entry i's id, from the id column alone.
  uint64_t id(uint16_t i) const {
    SDB_DCHECK(i < count());
    uint64_t id;
    LoadAt(column(kId), i, &id);
    return id;
  }
  /// Entry i's id read as a child page id.
  storage::PageId child(uint16_t i) const {
    return static_cast<storage::PageId>(id(i));
  }

  /// Appends without refreshing aggregates; call RefreshAggregates (or
  /// WriteEntries) once the batch of modifications is complete.
  void Append(const Entry& e);

  /// Removes entry i in place: shifts each column's tail down one slot and
  /// refreshes the aggregates. The page ends byte-identical to LoadEntries,
  /// erase and WriteEntries, the stale slot past the new count included.
  void Remove(uint16_t i);

  /// Copies all entries out, one pass per column.
  std::vector<Entry> LoadEntries() const;

  /// Runs the dispatched IntersectMask over the page's coordinate columns in
  /// place: after the call, (*mask)[i] is 1 iff entry i intersects `query`
  /// (closed-set semantics). Returns the hit count; `mask` is reused scratch.
  size_t ScanEntries(const geom::Rect& query,
                     std::vector<uint8_t>* mask) const;

  /// Replaces the entries, one pass per column, and refreshes the header
  /// aggregates.
  void WriteEntries(std::span<const Entry> entries);

  /// Recomputes MBR / Σarea / Σmargin / pairwise overlap from the current
  /// entries' coordinate columns and stores them in the header, keeping the
  /// replacement policies' view of the page accurate.
  void RefreshAggregates();

  /// The four coordinate columns, as the kernels take them.
  geom::kernels::Columns coords() const;

 private:
  /// The columns in page order.
  enum Column : size_t { kXmin, kYmin, kXmax, kYmax, kId, kObjPage, kObjSlot };

  /// Start of each column after the header, in units of the capacity: the
  /// running sum of the widths of the columns before it.
  static constexpr size_t kColumnStart[] = {0, 8, 16, 24, 32, 40, 44};
  static_assert(kColumnStart[kObjPage] - kColumnStart[kId] ==
                    sizeof(Entry::id) &&
                kColumnStart[kObjSlot] - kColumnStart[kObjPage] ==
                    sizeof(ObjectRef::page) &&
                kColumnStart[kObjSlot] + sizeof(ObjectRef::slot) <=
                    kEntrySize);

  /// Calls fn(column, field) for the seven entry fields in column order;
  /// field(e) is the member of Entry `e` that the column stores.
  template <typename Fn>
  static void ForEachField(Fn&& fn);  // defined in node_view.cc

  template <typename T>
  static void LoadAt(const std::byte* column, size_t i, T* value) {
    std::memcpy(value, column + i * sizeof(T), sizeof(T));
  }

  /// Start of column k of the layout above.
  std::byte* column(Column k) const {
    return page_.data() + storage::PageHeaderView::kHeaderSize +
           kColumnStart[k] * Capacity(page_.size());
  }

  std::span<std::byte> page_;
};

/// Calls fn(i) for every entry i whose ScanEntries mask byte is set, in
/// ascending order: tests eight mask bytes per 64-bit word (little-endian, so
/// byte k is the k-th lowest) and steps through set bytes by countr_zero.
template <typename Fn>
void ForEachHit(std::span<const uint8_t> mask, Fn&& fn) {
  static_assert(std::endian::native == std::endian::little);
  const size_t n = mask.size();
  size_t base = 0;
  for (; base + 8 <= n; base += 8) {
    uint64_t word;
    std::memcpy(&word, mask.data() + base, sizeof(word));
    // Mask bytes are 0 or 1, so each set byte holds exactly its lowest bit.
    for (; word != 0; word &= word - 1) {
      fn(static_cast<uint16_t>(base + std::countr_zero(word) / 8));
    }
  }
  for (; base < n; ++base) {
    if (mask[base] != 0) fn(static_cast<uint16_t>(base));
  }
}

}  // namespace sdb::rtree

#endif  // SPATIALBUFFER_RTREE_NODE_VIEW_H_
