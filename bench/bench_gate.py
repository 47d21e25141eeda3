#!/usr/bin/env python3
"""Perf-regression gate over bench JSON rows.

Compares rows of a chosen kind (--kind, default `parallel_engine`) from a
fresh bench run against the committed baseline and fails when any matched
row's gated fields (--fields, default the parallel-engine wall clocks)
regressed by more than the tolerance (default 20%). E.g. the serving tier
gates `bench_loadgen` rows with:

  bench_gate.py --kind loadgen --fields wall_ms,p99_ms \
      --current loadgen.bench.json --baseline bench/baselines/loadgen.bench.json

Matching and noise policy:
  * Rows are keyed on (kind, workload, family, n, threads, par_threshold,
    host_cores) — the self-describing fields every row carries. A current
    row with no baseline counterpart is reported and skipped (new sweep
    points bootstrap on the next baseline refresh); a baseline row with no
    current counterpart fails the gate (a silently dropped sweep point is a
    coverage regression).
  * host_cores is part of the key on purpose: wall clocks from a 1-core
    container and an 8-core runner are not comparable. When *no* baseline
    row matches the current host_cores at all, the gate skips with a
    warning instead of failing — a new runner shape needs a baseline
    bootstrap, not a red build.
  * Rows faster than --min-ms (default 5 ms) are ignored: at that scale
    scheduler jitter dwarfs any real regression. Both binaries already
    report min-of-reps timings (bench_util.hpp), so the gate adds no
    repetition logic of its own.

Exit status: 0 = pass (or skip), 1 = regression / coverage loss,
2 = usage or malformed input.
"""

import argparse
import json
import sys

KEY_FIELDS = ("kind", "workload", "family", "n", "threads", "par_threshold",
              "host_cores")
# Default wall-clock fields gated per row, with the headline one first.
WALL_FIELDS = ("wall_ms_parallel", "wall_ms_serial")
# Per-kind field defaults, so the common gates need no --fields flag.
KIND_FIELDS = {
    "parallel_engine": WALL_FIELDS,
    "loadgen": ("wall_ms",),
    "query": ("warm_wall_ms", "cold_job_ms"),
    "ingest": ("wall_ms", "reject_wall_ms"),
    "taskgraph": ("dag_wall_ms",),
}


def load_rows(path, kind):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench-gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("rows")
    if not isinstance(rows, list):
        print(f"bench-gate: {path} has no rows[]", file=sys.stderr)
        sys.exit(2)
    return [r for r in rows if r.get("kind") == kind]


def row_key(row):
    return tuple(row.get(f) for f in KEY_FIELDS)


def fmt_key(key):
    return " ".join(f"{f}={v}" for f, v in zip(KEY_FIELDS, key))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="bench JSON produced by this build")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline bench JSON")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative slowdown (default 0.20 = 20%%)")
    ap.add_argument("--min-ms", type=float, default=5.0,
                    help="ignore rows whose baseline wall clock is below "
                         "this (noise floor, default 5 ms)")
    ap.add_argument("--kind", default="parallel_engine",
                    help="row kind to gate (default parallel_engine)")
    ap.add_argument("--fields", default=None,
                    help="comma-separated wall-clock fields to gate per row "
                         "(default: the kind's entry in KIND_FIELDS, else "
                         f"{','.join(WALL_FIELDS)})")
    args = ap.parse_args()
    if args.fields is None:
        fields = KIND_FIELDS.get(args.kind, WALL_FIELDS)
    else:
        fields = tuple(f for f in args.fields.split(",") if f)

    current = {row_key(r): r for r in load_rows(args.current, args.kind)}
    baseline = {row_key(r): r for r in load_rows(args.baseline, args.kind)}
    if not current:
        print(f"bench-gate: no {args.kind} rows in current run",
              file=sys.stderr)
        return 1
    if not baseline:
        print(f"bench-gate: baseline has no {args.kind} rows",
              file=sys.stderr)
        return 1

    host_cores = {k[KEY_FIELDS.index("host_cores")] for k in current}
    base_cores = {k[KEY_FIELDS.index("host_cores")] for k in baseline}
    if not (host_cores & base_cores):
        print(f"bench-gate: SKIP — baseline rows are from host_cores="
              f"{sorted(base_cores)} but this runner has host_cores="
              f"{sorted(host_cores)}; refresh the baseline from this "
              f"runner shape to arm the gate here.")
        return 0

    failures = []
    compared = 0
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            if key[KEY_FIELDS.index("host_cores")] not in host_cores:
                continue  # other runner shape's rows — not ours to check
            failures.append(f"missing sweep point: {fmt_key(key)}")
            continue
        for field in fields:
            b, c = base.get(field), cur.get(field)
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            if b < args.min_ms:
                continue
            compared += 1
            ratio = c / b if b > 0 else float("inf")
            marker = ""
            if ratio > 1.0 + args.tolerance:
                marker = "  << REGRESSION"
                failures.append(
                    f"{fmt_key(key)} {field}: {b:.2f} ms -> {c:.2f} ms "
                    f"({ratio:.2f}x)")
            print(f"  {fmt_key(key)} {field}: {b:.2f} -> {c:.2f} ms "
                  f"({ratio:.2f}x){marker}")

    for key in sorted(set(current) - set(baseline)):
        print(f"  new (unbaselined, skipped): {fmt_key(key)}")

    if failures:
        print(f"\nbench-gate: FAIL — {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench-gate: PASS — {compared} wall-clock cells within "
          f"{args.tolerance:.0%} of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
