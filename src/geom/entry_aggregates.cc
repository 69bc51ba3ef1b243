#include "geom/entry_aggregates.h"

#include <algorithm>

#include "geom/kernels/kernels.h"

namespace sdb::geom {

EntryAggregates ComputeEntryAggregates(const kernels::Columns& c, size_t n) {
  EntryAggregates agg;
  // MBR: plain sequential min/max — identical for every dispatch level, and
  // identical to Rect::Extend over the same rects in the same order.
  for (size_t i = 0; i < n; ++i) {
    agg.mbr.xmin = std::min(agg.mbr.xmin, kernels::ColumnValue(c.xmin, i));
    agg.mbr.ymin = std::min(agg.mbr.ymin, kernels::ColumnValue(c.ymin, i));
    agg.mbr.xmax = std::max(agg.mbr.xmax, kernels::ColumnValue(c.xmax, i));
    agg.mbr.ymax = std::max(agg.mbr.ymax, kernels::ColumnValue(c.ymax, i));
  }
  const kernels::Ops& ops = kernels::ActiveOps();
  agg.sum_entry_area = ops.sum_areas(c, n);
  agg.sum_entry_margin = ops.sum_margins(c, n);
  // The paper defines EO as the sum over ordered pairs divided by two, i.e.
  // each unordered pair counts once — exactly the kernel's pair loop.
  agg.entry_overlap = ops.pairwise_overlap_sum(c, n);
  return agg;
}

EntryAggregates ComputeEntryAggregates(std::span<const Rect> entries) {
  thread_local kernels::SoaBuffer scratch;
  const size_t n = entries.size();
  scratch.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.xmin()[i] = entries[i].xmin;
    scratch.ymin()[i] = entries[i].ymin;
    scratch.xmax()[i] = entries[i].xmax;
    scratch.ymax()[i] = entries[i].ymax;
  }
  return ComputeEntryAggregates(scratch.columns(), n);
}

}  // namespace sdb::geom
