#include "sim/churn.h"

#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "rtree/node_view.h"

namespace sdb::sim {

core::StatusOr<ChurnResult> RunChurn(rtree::RTree& tree,
                                     const geom::Rect& space,
                                     const ChurnOptions& options,
                                     const ChurnHooks& hooks,
                                     const core::AccessContext& ctx) {
  SDB_CHECK_MSG(!space.IsEmpty(), "churn needs a non-empty data space");
  Rng rng(options.seed);
  const double w = space.width() * options.extent_fraction;
  const double h = space.height() * options.extent_fraction;
  std::vector<rtree::Entry> live;
  ChurnResult result;
  for (size_t op = 1; op <= options.operations; ++op) {
    const bool do_delete =
        !live.empty() && rng.NextDouble() < options.delete_fraction;
    if (do_delete) {
      // A plain modulo, not NextBelow: the operation stream stays the one
      // every recorded churn run drew.
      const size_t pick = rng.NextU64() % live.size();
      const rtree::Entry victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      const bool removed = tree.Delete(victim.id, victim.rect, ctx);
      SDB_CHECK_MSG(removed, "churn delete lost a live entry");
      ++result.deletes;
    } else {
      rtree::Entry entry;
      const double cx = space.xmin + rng.NextDouble() * space.width();
      const double cy = space.ymin + rng.NextDouble() * space.height();
      entry.rect = geom::Rect::Centered({cx, cy}, w, h);
      entry.id = options.first_id + result.inserts;
      tree.Insert(entry, ctx);
      live.push_back(entry);
      ++result.inserts;
    }
    if (options.commit_every != 0 && op % options.commit_every == 0) {
      if (hooks.commit) {
        if (core::Status status = hooks.commit(); !status.ok()) return status;
      }
      ++result.commits;
    }
    if (options.checkpoint_every != 0 && op % options.checkpoint_every == 0) {
      if (hooks.checkpoint) {
        if (core::Status status = hooks.checkpoint(); !status.ok()) {
          return status;
        }
      }
      ++result.checkpoints;
    }
    if (op == options.warmup_operations && hooks.on_steady_state) {
      if (core::Status status = hooks.on_steady_state(); !status.ok()) {
        return status;
      }
    }
  }
  result.live = live.size();
  return result;
}

}  // namespace sdb::sim
