#ifndef SPATIALBUFFER_GEOM_ENTRY_AGGREGATES_H_
#define SPATIALBUFFER_GEOM_ENTRY_AGGREGATES_H_

#include <cstddef>
#include <span>

#include "geom/kernels/kernels.h"
#include "geom/rect.h"

namespace sdb::geom {

/// The aggregate spatial measures of one page's entry set, as used by the
/// five spatial replacement criteria of the paper (Sec. 2.3):
///
///   A  = area(mbr)              — spatialCrit_A
///   EA = Σ area(entry MBR)      — spatialCrit_EA
///   M  = margin(mbr)            — spatialCrit_M
///   EM = Σ margin(entry MBR)    — spatialCrit_EM
///   EO = Σ_{e≠f} area(e ∩ f)/2  — spatialCrit_EO
///
/// Every page header stores these values so a replacement policy never has
/// to re-parse page payloads.
struct EntryAggregates {
  Rect mbr;                      ///< MBR of all entries.
  double sum_entry_area = 0.0;   ///< Σ area of entry MBRs (EA).
  double sum_entry_margin = 0.0; ///< Σ margin of entry MBRs (EM).
  double entry_overlap = 0.0;    ///< total pairwise overlap (EO).
};

/// Computes all aggregates over the n entry MBRs in `columns`, e.g. an R-tree
/// page's own (O(n²) for the pairwise overlap term, with n bounded by the
/// page fanout), through the dispatched batch kernels (geom/kernels) in their
/// canonical order, so bit-identical at every dispatch level.
EntryAggregates ComputeEntryAggregates(const kernels::Columns& columns,
                                       size_t n);

/// Same aggregates over Rects, copied into a reused SoA scratch first: the
/// result is bit-identical to the column form on the same rectangles.
EntryAggregates ComputeEntryAggregates(std::span<const Rect> entries);

}  // namespace sdb::geom

#endif  // SPATIALBUFFER_GEOM_ENTRY_AGGREGATES_H_
