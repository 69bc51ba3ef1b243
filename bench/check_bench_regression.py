#!/usr/bin/env python3
"""CI guards over the BENCH_*.json JSON-Lines files.

Modes:

  obs-overhead BENCH_policy_overhead.json --max-frac 0.5
      Asserts every bench:"obs_overhead" row keeps overhead_frac at or
      under the threshold (the attached-collector cost on the buffer-hit
      path must stay bounded). Each row is the best of 9 runs per side,
      the sides alternating: with best of 3 the detached baseline alone
      sometimes caught a slow stretch of the host.

  evict-scaling BENCH_policy_overhead.json --policy LRU --max-ratio 3
      Reads the policy's bench:"policy_overhead" eviction-cost rows and
      fails when ns_per_eviction at the largest frame count exceeds
      --max-ratio times its value at the smallest (victim choice must not
      grow with the buffer).

  hit-scaling BENCH_policy_overhead.json --max-ratio 4
      Reads the bench:"latch_overhead" rows that carry `threads` (the
      per-thread cost of an all-hit fetch on a 4-shard read-only service)
      and fails when the row at `max_threads` (min(4, hardware threads))
      costs more than --max-ratio times the one-thread row (hits that all
      write one shared word measured 6.8-8.6x at 4 threads, per-thread
      event stripes 2.4-3.2x). On a host with one hardware thread
      max_threads is 1 and the check passes with a note.

  latch-overhead BENCH_policy_overhead.json --max-frac 0.25
      Reads the one-shard bench:"latch_overhead" rows (the ones with
      ns_per_fetch_mutex: an uncontended all-hit fetch through a read-only
      service against a writable one over the same pages, best of 9 per
      side) and fails when any row's overhead_frac, the optimistic path's
      extra cost over the shard mutex, exceeds the threshold. Over 20 runs
      each, the worst row of a run read 0.42-0.85 while every client
      shared a frame's pin count and each release queued an event, and
      -0.13-0.12 with per-stripe pin counts.

  wal A.json B.json --max-drop 0.5
      Joins the bench:"wal_commit" rows of two BENCH_wal.json runs on
      (window_us, threads) and fails when commits_per_sec in B dropped
      by more than the fraction --max-drop relative to A (group commit
      must keep paying for itself).

  writeback BENCH_wal.json [--max-p99-ratio 1.0]
      Reads the bench:"wal_writeback" pair (flusher off/on) from one run
      and fails unless the flusher-on row shows ZERO steady-state
      sync_writeback_fallbacks and forced_steals, flushed at least one
      page in the background, and kept p99 pin latency at or under
      --max-p99-ratio times the flusher-off row.

  writefault BENCH_fault.json
      Reads the bench:"fault_write" chaos-soak rows (churn x write faults
      x crash x recover) and fails unless every row recovered the last
      acknowledged commit exactly, every sticky-outage row entered
      degraded mode while still serving reads, and the fault matrix as a
      whole demonstrably injected write faults (a soak that injected
      nothing proves nothing).

  evictions BENCH_concurrent.json
      Reads the bench:"concurrent_service" rows and fails unless at least
      one row's metrics block has buffer.evictions > 0. A smoke run whose
      buffer holds the whole database never chooses a victim, so it proves
      nothing about the eviction path (at SDB_SCALE=0.1 the 2,064-frame
      floor holds all 336 pages and every cell evicts 0).

  metrics-schema BENCH_sweep.json
      Groups the rows that carry a metrics block by (bench, policy) and
      fails when two rows of one group export different metric-name sets:
      the exported counter set is fixed, so faults, quarantine or a
      counter that stayed zero must change values, never names.

  node-scan micro_rtree.json [--max-ratio 2]
      Reads google-benchmark JSON (--benchmark_out_format=json) from
      micro_rtree and fails when BM_NodeScanKernels, a full-node scan of
      the page in place, costs more than --max-ratio times
      BM_NodeScanBareKernel, the same kernel over the same coordinates in
      plain arrays (a per-visit copy of the entries shows as about 5x).
      With repetitions, each row's median counts.

  choose-subtree micro_rtree.json [--max-ratio 0.5]
      Reads google-benchmark JSON from micro_rtree and fails when
      BM_Insert, one whole insert into a growing R*-tree, costs more than
      --max-ratio times BM_ChooseSubtreeReference, the pre-kernel R*
      ChooseSubtree loop on one full 51-entry level-1 node (that loop made
      an insert cost about 0.94x the row; the overlap_enlargement kernel
      and the in-place append 0.21-0.33x). With repetitions, each row's median
      counts.

  delete micro_rtree.json [--max-ratio 0.65]
      Reads google-benchmark JSON from micro_rtree and fails when
      BM_Delete, one delete from a tree of 20,000 to 40,000 entries,
      costs more than --max-ratio times BM_Insert, one insert into a
      growing tree. Run the two with randomly interleaved repetitions
      (--benchmark_enable_random_interleaving=true), so a drift of the
      host hits both rows alike. A delete that searched every overlapping
      subtree and rewrote every ancestor on its path read 0.71-1.27x, one
      that searches only containing subtrees and writes only the pages it
      changes 0.35-0.59x (12 runs each). With repetitions, each row's
      median counts.

  visit micro_rtree.json [--max-ratio 0.9]
      Reads google-benchmark JSON from micro_rtree and fails when
      BM_WindowQuery/100000, W-33 window queries whose counting visitor
      WindowQueryVisit inlines, costs more than --max-ratio times
      BM_WindowQueryTypeErased/100000, the same queries with the visitor
      in a std::function (an indirect call and a full Entry decode per
      hit; the two rows cost the same while WindowQueryVisit took a
      std::function). With repetitions, each row's median counts.

  checksum micro_policy_overhead.json [--max-ratio 6] [--max-fold-ratio 2.5]
      Reads google-benchmark JSON from micro_policy_overhead and fails when
      BM_PageChecksum, the CRC-32C verify of a hot 4 KiB page, costs more
      than a bound times BM_PageCopy, a copy of that page. The bound
      follows the kernel the row's label names: --max-fold-ratio for the
      VPCLMULQDQ fold tier (1.2-1.5x measured), --max-ratio for any other
      (three interleaved crc32q chains about 4x, one chain about 10x), so
      a probe that mislabels a fallback fails. A row without a label exits
      2. With repetitions, each row's median counts.

  compare A.json B.json [--field hit_rate] [--tol 0]
      Joins two BENCH_sweep.json runs on the row key
      (bench, database, fraction, query_set, policy, baseline,
      buffer_frames) and fails when the field drifts beyond the tolerance
      in any row present in both files. hit_rate is derived as
      buffer_hits / buffer_requests when the row does not carry it
      directly, so the sweep rows work as-is.

Exit status: 0 clean, 1 regression found, 2 usage/input error.
"""

import argparse
import json
import statistics
import sys


def read_rows(path):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as err:
                    print(f"{path}:{lineno}: malformed JSON: {err}",
                          file=sys.stderr)
                    sys.exit(2)
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    return rows


def check_obs_overhead(args):
    rows = [r for r in read_rows(args.file)
            if r.get("bench") == "obs_overhead"]
    if not rows:
        print(f"{args.file}: no obs_overhead rows found", file=sys.stderr)
        return 2
    failures = 0
    for row in rows:
        frac = row.get("overhead_frac")
        if frac is None:
            print(f"obs_overhead row without overhead_frac: {row}",
                  file=sys.stderr)
            failures += 1
            continue
        label = f"{row.get('policy', '?')}/{row.get('frames', '?')} frames"
        if frac > args.max_frac:
            print(f"FAIL {label}: overhead_frac {frac:.4f} > "
                  f"threshold {args.max_frac:.4f}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label}: overhead_frac {frac:.4f} <= "
                  f"{args.max_frac:.4f}")
    return 1 if failures else 0


def check_evict_scaling(args):
    rows = {}
    for row in read_rows(args.file):
        if (row.get("bench") == "policy_overhead"
                and row.get("policy") == args.policy
                and row.get("frames") is not None
                and row.get("ns_per_eviction") is not None):
            rows[row["frames"]] = row["ns_per_eviction"]
    if not rows:
        print(f"{args.file}: no policy_overhead rows for {args.policy}",
              file=sys.stderr)
        return 2
    smallest, largest = min(rows), max(rows)
    base, top = rows[smallest], rows[largest]
    if base <= 0:
        print(f"{args.policy}: ns_per_eviction {base} at {smallest} frames "
              f"is not positive", file=sys.stderr)
        return 2
    ratio = top / base
    label = (f"{args.policy} ns/evict {base:.1f} @ {smallest} frames -> "
             f"{top:.1f} @ {largest} frames: ratio {ratio:.2f}")
    if ratio > args.max_ratio:
        print(f"FAIL {label} > {args.max_ratio:g}", file=sys.stderr)
        return 1
    print(f"ok   {label} <= {args.max_ratio:g}")
    return 0


def check_hit_scaling(args):
    rows = {}
    most = None
    for row in read_rows(args.file):
        if (row.get("bench") == "latch_overhead"
                and row.get("threads") is not None
                and row.get("ns_per_fetch_per_thread") is not None):
            rows[row["threads"]] = row["ns_per_fetch_per_thread"]
            most = row.get("max_threads", most)
    if 1 not in rows or most is None:
        print(f"{args.file}: no one-thread latch_overhead row with "
              f"max_threads", file=sys.stderr)
        return 2
    base = rows[1]
    if base <= 0:
        print(f"one-thread ns_per_fetch_per_thread {base} is not positive",
              file=sys.stderr)
        return 2
    if most == 1:
        print(f"ok   hit scaling: T = 1 ({base:.1f} ns per fetch); a host "
              f"with one hardware thread has no contention to gate")
        return 0
    if most not in rows:
        print(f"{args.file}: no latch_overhead row at {most} threads",
              file=sys.stderr)
        return 2
    ratio = rows[most] / base
    label = (f"hit scaling {base:.1f} ns per fetch @ 1 thread -> "
             f"{rows[most]:.1f} @ {most} threads: ratio {ratio:.2f}")
    if ratio > args.max_ratio:
        print(f"FAIL {label} > {args.max_ratio:g}", file=sys.stderr)
        return 1
    print(f"ok   {label} <= {args.max_ratio:g}")
    return 0


def check_latch_overhead(args):
    rows = [r for r in read_rows(args.file)
            if r.get("bench") == "latch_overhead"
            and r.get("ns_per_fetch_mutex") is not None]
    if not rows:
        print(f"{args.file}: no one-shard latch_overhead rows found",
              file=sys.stderr)
        return 2
    failures = 0
    for row in rows:
        frac = row["overhead_frac"]
        label = (f"{row.get('frames', '?')} frames: optimistic "
                 f"{row['ns_per_fetch_optimistic']:.1f} vs mutex "
                 f"{row['ns_per_fetch_mutex']:.1f} ns/fetch, overhead_frac "
                 f"{frac:.4f}")
        if frac > args.max_frac:
            print(f"FAIL {label} > {args.max_frac:g}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label} <= {args.max_frac:g}")
    return 1 if failures else 0


NODE_SCAN = "BM_NodeScanKernels"
NODE_SCAN_BARE = "BM_NodeScanBareKernel"
INSERT = "BM_Insert"
DELETE = "BM_Delete"
CHOOSE_SUBTREE_REFERENCE = "BM_ChooseSubtreeReference"
WINDOW_QUERY = "BM_WindowQuery/100000"
WINDOW_QUERY_TYPE_ERASED = "BM_WindowQueryTypeErased/100000"
PAGE_CHECKSUM = "BM_PageChecksum"
PAGE_COPY = "BM_PageCopy"
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def gbench_medians(path, names):
    """Median real time in ns of each named google-benchmark row, or an
    exit status (2) when the file is unreadable or a row is missing."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return 2
    times = {name: [] for name in names}
    for row in report.get("benchmarks", []):
        name = row.get("run_name", row.get("name"))
        if name in times and row.get("run_type") != "aggregate":
            unit = TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
            times[name].append(row["real_time"] * unit)
    missing = [name for name, values in times.items() if not values]
    if missing:
        print(f"{path}: no rows for {', '.join(missing)}", file=sys.stderr)
        return 2
    medians = {name: statistics.median(values)
               for name, values in times.items()}
    for name, value in medians.items():
        if value <= 0:
            print(f"{name}: time {value} ns is not positive", file=sys.stderr)
            return 2
    return medians


def check_gbench_ratio(args, numerator, denominator, describe,
                       max_ratio=None):
    max_ratio = args.max_ratio if max_ratio is None else max_ratio
    medians = gbench_medians(args.file, (numerator, denominator))
    if not isinstance(medians, dict):
        return medians
    ratio = medians[numerator] / medians[denominator]
    label = (f"{describe(medians[numerator], medians[denominator])}: "
             f"ratio {ratio:.2f}")
    if ratio > max_ratio:
        print(f"FAIL {label} > {max_ratio:g}", file=sys.stderr)
        return 1
    print(f"ok   {label} <= {max_ratio:g}")
    return 0


def check_node_scan(args):
    return check_gbench_ratio(
        args, NODE_SCAN, NODE_SCAN_BARE,
        lambda scan, bare: f"node scan {scan:.1f} ns in place vs "
                           f"{bare:.1f} ns bare kernel")


def check_choose_subtree(args):
    return check_gbench_ratio(
        args, INSERT, CHOOSE_SUBTREE_REFERENCE,
        lambda insert, loop: f"insert {insert / 1e3:.1f} us vs reference "
                             f"ChooseSubtree step {loop / 1e3:.1f} us")


def check_delete(args):
    return check_gbench_ratio(
        args, DELETE, INSERT,
        lambda delete, insert: f"delete {delete / 1e3:.1f} us vs insert "
                               f"{insert / 1e3:.1f} us")


def check_visit(args):
    return check_gbench_ratio(
        args, WINDOW_QUERY, WINDOW_QUERY_TYPE_ERASED,
        lambda inlined, erased: f"window query {inlined / 1e3:.2f} us with "
                                f"the visitor inlined vs "
                                f"{erased / 1e3:.2f} us type-erased")


def check_checksum(args):
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            rows = json.load(handle).get("benchmarks", [])
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read {args.file}: {err}", file=sys.stderr)
        return 2
    tiers = {row.get("label") for row in rows
             if row.get("run_name", row.get("name")) == PAGE_CHECKSUM}
    if not tiers or None in tiers or "" in tiers or len(tiers) > 1:
        print(f"{args.file}: {PAGE_CHECKSUM} rows name no single kernel "
              f"label ({sorted(map(str, tiers))})", file=sys.stderr)
        return 2
    tier = tiers.pop()
    return check_gbench_ratio(
        args, PAGE_CHECKSUM, PAGE_COPY,
        lambda crc, copy: f"page checksum ({tier}) {crc:.1f} ns vs page "
                          f"copy {copy:.1f} ns",
        args.max_fold_ratio if tier == "vpclmulqdq" else args.max_ratio)


ROW_KEY = ("bench", "database", "fraction", "query_set", "policy",
           "baseline", "buffer_frames")


def row_key(row):
    return tuple(row.get(field) for field in ROW_KEY)


def field_value(row, field):
    if field in row:
        return row[field]
    if field == "hit_rate":
        requests = row.get("buffer_requests")
        hits = row.get("buffer_hits")
        if requests:
            return hits / requests
    return None


def check_compare(args):
    rows_a = {row_key(r): r for r in read_rows(args.file_a)}
    rows_b = {row_key(r): r for r in read_rows(args.file_b)}
    shared = sorted(set(rows_a) & set(rows_b), key=repr)
    if not shared:
        print("no shared rows between the two files", file=sys.stderr)
        return 2
    failures = 0
    compared = 0
    for key in shared:
        va = field_value(rows_a[key], args.field)
        vb = field_value(rows_b[key], args.field)
        if va is None or vb is None:
            continue
        compared += 1
        if abs(va - vb) > args.tol:
            label = "/".join(str(k) for k in key if k is not None)
            print(f"FAIL {label}: {args.field} {va} vs {vb} "
                  f"(drift {abs(va - vb):g} > tol {args.tol:g})",
                  file=sys.stderr)
            failures += 1
    if compared == 0:
        print(f"no shared rows carry field {args.field!r}", file=sys.stderr)
        return 2
    print(f"compared {compared} shared rows on {args.field!r}: "
          f"{failures} drifted")
    return 1 if failures else 0


def check_metrics_schema(args):
    groups = {}
    for row in read_rows(args.file):
        metrics = row.get("metrics")
        if metrics is None:
            continue
        key = (row.get("bench"), row.get("policy"))
        groups.setdefault(key, {}).setdefault(frozenset(metrics), []).append(
            row.get("query_set", "?"))
    if not groups:
        print(f"{args.file}: no row carries a metrics block", file=sys.stderr)
        return 2
    failures = 0
    for (bench, policy), schemas in sorted(groups.items(), key=repr):
        label = f"{bench}/{policy}"
        if len(schemas) == 1:
            names, rows = next(iter(schemas.items()))
            print(f"ok   {label}: {len(rows)} rows export the same "
                  f"{len(names)} metrics")
            continue
        failures += 1
        union = frozenset().union(*schemas)
        print(f"FAIL {label}: {len(schemas)} different metric-name sets",
              file=sys.stderr)
        for names, rows in schemas.items():
            missing = ", ".join(sorted(union - names)) or "-"
            print(f"     {len(rows)} rows (e.g. {rows[0]}) lack: {missing}",
                  file=sys.stderr)
    return 1 if failures else 0


def check_evictions(args):
    rows = [r for r in read_rows(args.file)
            if r.get("bench") == "concurrent_service"
            and r.get("metrics") is not None]
    if not rows:
        print(f"{args.file}: no concurrent_service row with a metrics block",
              file=sys.stderr)
        return 2
    evicting = [r for r in rows
                if r["metrics"].get("buffer.evictions", 0) > 0]
    if not evicting:
        print(f"FAIL none of {len(rows)} concurrent_service rows evicted a "
              f"frame: the buffer holds the whole database", file=sys.stderr)
        return 1
    most = max(r["metrics"]["buffer.evictions"] for r in evicting)
    print(f"ok   {len(evicting)} of {len(rows)} concurrent_service rows "
          f"evicted (at most {most} frames)")
    return 0


def check_wal(args):
    def commit_rows(path):
        rows = {}
        for row in read_rows(path):
            if row.get("bench") != "wal_commit":
                continue
            rows[(row.get("window_us"), row.get("threads"))] = row
        return rows

    rows_a = commit_rows(args.file_a)
    rows_b = commit_rows(args.file_b)
    shared = sorted(set(rows_a) & set(rows_b), key=repr)
    if not shared:
        print("no shared wal_commit rows between the two files",
              file=sys.stderr)
        return 2
    failures = 0
    for key in shared:
        base = rows_a[key].get("commits_per_sec")
        cand = rows_b[key].get("commits_per_sec")
        if not base or cand is None:
            continue
        label = f"window={key[0]}us/threads={key[1]}"
        floor = (1.0 - args.max_drop) * base
        if cand < floor:
            print(f"FAIL {label}: commits_per_sec {cand:.0f} < "
                  f"{floor:.0f} ({base:.0f} - {100 * args.max_drop:.0f}%)",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label}: commits_per_sec {cand:.0f} "
                  f">= {floor:.0f}")
    return 1 if failures else 0


def check_writeback(args):
    rows = {}
    for row in read_rows(args.file):
        if row.get("bench") != "wal_writeback":
            continue
        key = (row.get("operations"), row.get("frames"), row.get("flusher"))
        rows[key] = row
    pairs = sorted({(ops, frames) for (ops, frames, _) in rows}, key=repr)
    if not pairs:
        print(f"{args.file}: no wal_writeback rows found", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for ops, frames in pairs:
        off = rows.get((ops, frames, 0))
        on = rows.get((ops, frames, 1))
        label = f"ops={ops}/frames={frames}"
        if off is None or on is None:
            print(f"FAIL {label}: missing flusher "
                  f"{'off' if off is None else 'on'} row", file=sys.stderr)
            failures += 1
            continue
        checked += 1
        for counter in ("sync_writeback_fallbacks", "forced_steals"):
            value = on.get(counter)
            if value != 0:
                print(f"FAIL {label}: flusher-on {counter} = {value} "
                      f"(expected 0 in steady state)", file=sys.stderr)
                failures += 1
            else:
                print(f"ok   {label}: flusher-on {counter} = 0")
        flushed = on.get("pages_flushed")
        if not flushed:
            print(f"FAIL {label}: flusher-on pages_flushed = {flushed} "
                  f"(background flusher did no work)", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label}: pages_flushed = {flushed}")
        base = off.get("p99_pin_ns")
        cand = on.get("p99_pin_ns")
        if not base or cand is None:
            print(f"FAIL {label}: rows missing p99_pin_ns", file=sys.stderr)
            failures += 1
            continue
        ceiling = args.max_p99_ratio * base
        if cand > ceiling:
            print(f"FAIL {label}: flusher-on p99_pin_ns {cand:.0f} > "
                  f"{ceiling:.0f} ({base:.0f} x {args.max_p99_ratio:g})",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label}: p99_pin_ns {cand:.0f} <= {ceiling:.0f} "
                  f"(off: {base:.0f})")
    if checked == 0:
        return 2
    return 1 if failures else 0


def check_writefault(args):
    rows = [r for r in read_rows(args.file)
            if r.get("bench") == "fault_write"]
    if not rows:
        print(f"{args.file}: no fault_write rows found", file=sys.stderr)
        return 2
    failures = 0
    injected_total = 0
    faulty_rows = 0
    for row in rows:
        label = f"{row.get('profile', '?')}/seed={row.get('seed', '?')}"
        if row.get("recovered_match") != 1:
            print(f"FAIL {label}: recovery diverged from the last "
                  f"acknowledged commit", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {label}: recovered {row.get('recovered_entries')} "
                  f"entries exactly ({row.get('commits_acked')} commits "
                  f"acked)")
        if row.get("sticky") == 1:
            if not row.get("degraded"):
                print(f"FAIL {label}: fsync outage never entered degraded "
                      f"mode", file=sys.stderr)
                failures += 1
            if not row.get("degraded_reads_served"):
                print(f"FAIL {label}: degraded service served no reads "
                      f"(read availability floor)", file=sys.stderr)
                failures += 1
        elif row.get("degraded"):
            print(f"FAIL {label}: transient-only profile entered degraded "
                  f"mode", file=sys.stderr)
            failures += 1
        is_faulty = (row.get("wal_write_rate") or row.get("sync_fail_rate")
                     or row.get("data_write_rate") or row.get("sticky"))
        if is_faulty:
            faulty_rows += 1
            injected_total += (row.get("wal_faults_injected", 0)
                              + row.get("data_faults_injected", 0))
    if faulty_rows and injected_total == 0:
        print("FAIL soak injected zero write faults across every faulty "
              "profile: the matrix proved nothing", file=sys.stderr)
        failures += 1
    elif faulty_rows:
        print(f"ok   {injected_total} write faults injected across "
              f"{faulty_rows} faulty cells")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    obs = sub.add_parser("obs-overhead",
                         help="guard obs_overhead rows against a threshold")
    obs.add_argument("file")
    obs.add_argument("--max-frac", type=float, default=0.5)

    scaling = sub.add_parser("evict-scaling",
                             help="guard eviction cost growth with frames")
    scaling.add_argument("file")
    scaling.add_argument("--policy", default="LRU")
    scaling.add_argument("--max-ratio", type=float, default=3.0)

    hits = sub.add_parser("hit-scaling",
                          help="guard contended all-hit fetches against "
                               "one thread")
    hits.add_argument("file")
    hits.add_argument("--max-ratio", type=float, default=4.0)

    latch = sub.add_parser("latch-overhead",
                           help="guard the uncontended optimistic hit "
                                "against the shard mutex")
    latch.add_argument("file")
    latch.add_argument("--max-frac", type=float, default=0.25)

    node_scan = sub.add_parser("node-scan",
                               help="guard the in-place node scan against "
                                    "the bare kernel")
    node_scan.add_argument("file")
    node_scan.add_argument("--max-ratio", type=float, default=2.0)

    choose = sub.add_parser("choose-subtree",
                            help="guard an insert against the pre-kernel "
                                 "ChooseSubtree loop")
    choose.add_argument("file")
    choose.add_argument("--max-ratio", type=float, default=0.5)

    delete = sub.add_parser("delete",
                            help="guard a delete against an insert")
    delete.add_argument("file")
    delete.add_argument("--max-ratio", type=float, default=0.65)

    visit = sub.add_parser("visit",
                           help="guard the inlined window-query visitor "
                                "against a std::function one")
    visit.add_argument("file")
    visit.add_argument("--max-ratio", type=float, default=0.9)

    checksum = sub.add_parser("checksum",
                              help="guard the page checksum against a "
                                   "page copy")
    checksum.add_argument("file")
    checksum.add_argument("--max-ratio", type=float, default=6.0)
    checksum.add_argument("--max-fold-ratio", type=float, default=2.5)

    cmp_parser = sub.add_parser("compare",
                                help="diff a field between two bench runs")
    cmp_parser.add_argument("file_a")
    cmp_parser.add_argument("file_b")
    cmp_parser.add_argument("--field", default="hit_rate")
    cmp_parser.add_argument("--tol", type=float, default=0.0)

    wal = sub.add_parser("wal",
                         help="guard wal_commit throughput between runs")
    wal.add_argument("file_a")
    wal.add_argument("file_b")
    wal.add_argument("--max-drop", type=float, default=0.5)

    wb = sub.add_parser("writeback",
                        help="guard the background-flusher churn rows")
    wb.add_argument("file")
    wb.add_argument("--max-p99-ratio", type=float, default=1.0)

    wf = sub.add_parser("writefault",
                        help="guard the write-fault chaos-soak rows")
    wf.add_argument("file")

    ev = sub.add_parser("evictions",
                        help="demand that a concurrent_service row evicts")
    ev.add_argument("file")

    schema = sub.add_parser("metrics-schema",
                            help="demand one metric-name set per "
                                 "bench and policy")
    schema.add_argument("file")

    args = parser.parse_args()
    if args.mode == "obs-overhead":
        sys.exit(check_obs_overhead(args))
    if args.mode == "evict-scaling":
        sys.exit(check_evict_scaling(args))
    if args.mode == "hit-scaling":
        sys.exit(check_hit_scaling(args))
    if args.mode == "latch-overhead":
        sys.exit(check_latch_overhead(args))
    if args.mode == "node-scan":
        sys.exit(check_node_scan(args))
    if args.mode == "choose-subtree":
        sys.exit(check_choose_subtree(args))
    if args.mode == "delete":
        sys.exit(check_delete(args))
    if args.mode == "visit":
        sys.exit(check_visit(args))
    if args.mode == "checksum":
        sys.exit(check_checksum(args))
    if args.mode == "wal":
        sys.exit(check_wal(args))
    if args.mode == "writeback":
        sys.exit(check_writeback(args))
    if args.mode == "writefault":
        sys.exit(check_writefault(args))
    if args.mode == "evictions":
        sys.exit(check_evictions(args))
    if args.mode == "metrics-schema":
        sys.exit(check_metrics_schema(args))
    sys.exit(check_compare(args))


if __name__ == "__main__":
    main()
