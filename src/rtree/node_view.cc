#include "rtree/node_view.h"

#include <cstring>
#include <utility>

#include "geom/entry_aggregates.h"

namespace sdb::rtree {

namespace {

template <typename T>
void StoreAt(std::byte* column, size_t i, const T& value) {
  std::memcpy(column + i * sizeof(T), &value, sizeof(T));
}

}  // namespace

template <typename Fn>
void NodeView::ForEachField(Fn&& fn) {
  fn(kXmin, [](auto& e) -> auto& { return e.rect.xmin; });
  fn(kYmin, [](auto& e) -> auto& { return e.rect.ymin; });
  fn(kXmax, [](auto& e) -> auto& { return e.rect.xmax; });
  fn(kYmax, [](auto& e) -> auto& { return e.rect.ymax; });
  fn(kId, [](auto& e) -> auto& { return e.id; });
  fn(kObjPage, [](auto& e) -> auto& { return e.ref.page; });
  fn(kObjSlot, [](auto& e) -> auto& { return e.ref.slot; });
}

void NodeView::Init(uint8_t level) {
  std::memset(page_.data(), 0, page_.size());
  storage::PageHeaderView h = header();
  h.set_type(level == 0 ? storage::PageType::kData
                        : storage::PageType::kDirectory);
  h.set_level(level);
  h.set_entry_count(0);
  h.set_aggregates(geom::EntryAggregates{});
}

void NodeView::SetEntry(uint16_t i, const Entry& e) {
  SDB_DCHECK(i < count());
  ForEachField([&](Column c, auto field) {
    StoreAt(column(c), i, field(e));
  });
}

void NodeView::set_rect(uint16_t i, const geom::Rect& r) {
  SDB_DCHECK(i < count());
  StoreAt(column(kXmin), i, r.xmin);
  StoreAt(column(kYmin), i, r.ymin);
  StoreAt(column(kXmax), i, r.xmax);
  StoreAt(column(kYmax), i, r.ymax);
}

void NodeView::Append(const Entry& e) {
  const uint16_t i = count();
  SDB_CHECK_MSG(i < Capacity(page_.size()), "node page overflow");
  header().set_entry_count(i + 1);
  SetEntry(i, e);
}

void NodeView::Remove(uint16_t i) {
  const uint16_t n = count();
  SDB_DCHECK(i < n);
  ForEachField([&](Column c, auto field) {
    const size_t width = sizeof(field(std::declval<Entry&>()));
    std::byte* base = column(c);
    std::memmove(base + i * width, base + (i + 1) * width,
                 (n - 1 - i) * width);
  });
  header().set_entry_count(n - 1);
  RefreshAggregates();
}

std::vector<Entry> NodeView::LoadEntries() const {
  const size_t n = count();
  std::vector<Entry> entries(n);
  // Local copies of the bounds: a byte store may alias any object reachable
  // by pointer, so reading them from `entries` would repeat every iteration.
  Entry* out = entries.data();
  ForEachField([&](Column c, auto field) {
    const std::byte* base = column(c);
    for (size_t i = 0; i < n; ++i) LoadAt(base, i, &field(out[i]));
  });
  return entries;
}

void NodeView::WriteEntries(std::span<const Entry> entries) {
  SDB_CHECK_MSG(entries.size() <= Capacity(page_.size()),
                "node page overflow");
  const size_t n = entries.size();
  const Entry* in = entries.data();
  header().set_entry_count(static_cast<uint16_t>(n));
  ForEachField([&](Column c, auto field) {
    std::byte* base = column(c);
    for (size_t i = 0; i < n; ++i) StoreAt(base, i, field(in[i]));
  });
  RefreshAggregates();
}

size_t NodeView::ScanEntries(const geom::Rect& query,
                             std::vector<uint8_t>* mask) const {
  const uint16_t n = count();
  mask->resize(n);
  if (n == 0) return 0;
  return geom::kernels::IntersectMask(query, coords(), n, mask->data());
}

void NodeView::RefreshAggregates() {
  header().set_aggregates(geom::ComputeEntryAggregates(coords(), count()));
}

geom::kernels::Columns NodeView::coords() const {
  return {column(kXmin), column(kYmin), column(kXmax), column(kYmax)};
}

}  // namespace sdb::rtree
