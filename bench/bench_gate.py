#!/usr/bin/env python3
"""Perf-regression gate over bench JSON rows.

Two tiers, run in this order:

1. Exact. Every baseline row of a kind listed in EXACT_FIELDS (the
   dfs_rounds bench's `dfs_analytic` and `engine` rows, E9's `partwise`
   rows, E10's `phase_coverage` rows and E11's `hierarchy` rows) must
   reappear in the run, matched on its kind's EXACT_KEYS entry (by
   default the key without host_cores), with each exact field (validity,
   phase, round and message counts, piece counts, index bytes, the
   Lemma 1 case that settled each part) equal to the baseline. These are
   deterministic outputs, so this tier holds on any host. Kinds whose
   KIND_FIELDS entry is empty (`partwise`, `phase_coverage`,
   `hierarchy`) are gated by this tier alone:

  bench_gate.py --kind partwise \
      --current partwise.bench.json --baseline bench/baselines/partwise.bench.json

2. Wall clock. Compares rows of a chosen kind (--kind, default `engine`)
   from a fresh bench run against the committed baseline and fails when
   any matched row's gated fields (--fields, default the kind's entry in
   KIND_FIELDS) regressed by more than the tolerance (default 20%). E.g.
   the query tier's warm batch alone is gated with:

  bench_gate.py --kind query --fields warm_wall_ms \
      --current query.bench.json --baseline bench/baselines/query.bench.json

Wall-clock matching and noise policy:
  * Rows are keyed on (kind, workload, family, n, threads, host_cores) —
    the self-describing fields a row carries (a field the row lacks keys
    as absent). A current
    row with no baseline counterpart is reported and skipped (new sweep
    points bootstrap on the next baseline refresh); a baseline row with no
    current counterpart fails the gate (a silently dropped sweep point is a
    coverage regression).
  * host_cores is part of the key on purpose: wall clocks from a 1-core
    container and an 8-core runner are not comparable. When *no* baseline
    row matches the current host_cores at all, the gate skips with a
    warning instead of failing — a new runner shape needs a baseline
    bootstrap, not a red build. The exact tier has run by then and does
    not depend on this check.
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

KEY_FIELDS = ("kind", "workload", "family", "n", "threads", "host_cores")
# Wall-clock fields gated per row when a kind has no KIND_FIELDS entry.
WALL_FIELDS = ("wall_ms",)
# Per-kind field defaults, so the common gates need no --fields flag.
KIND_FIELDS = {
    "engine": WALL_FIELDS,
    "query": ("warm_wall_ms", "cold_job_ms"),
    "ingest": ("wall_ms", "reject_wall_ms"),
    "taskgraph": ("dag_wall_ms",),
    # Exact tier only: their wall clocks carry no host shape.
    "partwise": (),
    "phase_coverage": (),
    "hierarchy": (),
}
# Per-kind fields that must equal the baseline exactly, on any host.
EXACT_FIELDS = {
    "dfs_analytic": ("valid", "phases", "rounds_measured", "rounds_charged",
                     "diameter_bound"),
    "engine": ("rounds", "messages"),
    "partwise": ("rounds_measured", "rounds_msg_level", "rounds_charged",
                 "diameter_bound"),
    "phase_coverage": ("parts", "tree", "range", "longpath", "aug_leaf",
                       "hidden", "facepath", "phase5", "lastresort"),
    "hierarchy": ("levels", "pieces", "pieces_total", "rounds_charged",
                  "rounds_measured", "index_bytes"),
}
# Per-kind exact-tier keys; kinds not listed match on KEY_FIELDS without
# host_cores.
EXACT_KEYS = {
    "partwise": ("kind", "family", "n", "bands"),
    "phase_coverage": ("kind", "family", "n"),
    "hierarchy": ("kind", "family", "n", "leaf_size"),
}


def load_rows(path, kind=None):
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
    return [r for r in rows if kind is None or r.get("kind") == kind]


def row_key(row, fields=KEY_FIELDS):
    return tuple(row.get(f) for f in fields)


def fmt_key(key, fields=KEY_FIELDS):
    return " ".join(f"{f}={v}" for f, v in zip(fields, key) if v is not None)


def exact_key_fields(kind):
    return EXACT_KEYS.get(kind,
                          tuple(f for f in KEY_FIELDS if f != "host_cores"))


def exact_failures(current_path, baseline_path):
    """Tier 1: deterministic fields of EXACT_FIELDS kinds, on any host."""
    current = {}
    for r in load_rows(current_path):
        kind = r.get("kind")
        if kind in EXACT_FIELDS:
            current[row_key(r, exact_key_fields(kind))] = r
    failures = []
    compared = 0
    for base in load_rows(baseline_path):
        kind = base.get("kind")
        if kind not in EXACT_FIELDS:
            continue
        fields = exact_key_fields(kind)
        key = row_key(base, fields)
        cur = current.get(key)
        if cur is None:
            failures.append(f"missing sweep point: {fmt_key(key, fields)}")
            continue
        for field in EXACT_FIELDS[kind]:
            compared += 1
            if cur.get(field) != base.get(field):
                failures.append(f"{fmt_key(key, fields)} {field}: "
                                f"{base.get(field)} -> {cur.get(field)}")
    if compared:
        print(f"bench-gate: exact tier compared {compared} cells, "
              f"{len(failures)} mismatch(es)")
    return failures


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
    ap.add_argument("--kind", default="engine",
                    help="row kind to gate on wall clock (default engine)")
    ap.add_argument("--fields", default=None,
                    help="comma-separated wall-clock fields to gate per row "
                         "(default: the kind's entry in KIND_FIELDS, else "
                         f"{','.join(WALL_FIELDS)})")
    args = ap.parse_args()
    if args.fields is None:
        fields = KIND_FIELDS.get(args.kind, WALL_FIELDS)
    else:
        fields = tuple(f for f in args.fields.split(",") if f)

    exact = exact_failures(args.current, args.baseline)
    if exact:
        print(f"\nbench-gate: FAIL — {len(exact)} exact-field mismatch(es) "
              f"or missing rows:", file=sys.stderr)
        for f in exact:
            print(f"  {f}", file=sys.stderr)
        return 1

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
    if not fields:
        print(f"\nbench-gate: PASS — {args.kind} rows are gated by the "
              f"exact tier only.")
        return 0

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
