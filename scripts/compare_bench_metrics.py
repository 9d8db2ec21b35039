#!/usr/bin/env python3
"""Diff two BENCH_*.json files on their *metrics*, ignoring timing fields.

Used by CI to assert that intra-run parallelism (HG_WORKERS) changes wall
clock but not results: a sharded run at W workers must produce bit-identical
simulation outputs (event counts, per-class percentiles) to the same run at
1 worker. Timing-derived fields (wall_sec, events_per_sec, nodes_per_sec,
peak_rss_mb, and the total_* aggregates of the first two) and the worker
count itself legitimately differ and are stripped before comparison.

Speed is reported, never gated: the script prints each run's wall_sec in
both files and their ratio (A over B, so the speedup of B when B ran on
more workers).

Memory is gated separately: with --rss-tolerance FRAC, the peak_rss_mb
values of the two files are also compared pairwise and may deviate by at
most FRAC (relative to the first file), so a memory regression fails CI
even though exact RSS equality across runs is never expected.

Fields that are *layout* metrics rather than simulation results — the
partition count and the superstep counters derived from it (epochs_run,
epochs_skipped, xpart_datagrams, xpart_exchange_bytes,
xpart_datagram_fraction) — are simulation-deterministic for a fixed
partition layout but legitimately differ across partition counts. They are
kept by default (so worker-count comparisons also pin the superstep
schedule) and stripped on demand with repeatable --strip KEY flags when
comparing runs at different HG_PARTITIONS values.

Usage: compare_bench_metrics.py [--rss-tolerance FRAC] [--strip KEY]... A.json B.json
Exit 0 when the metric payloads match exactly (and, if requested, RSS is
within tolerance); exit 1 with a diagnostic otherwise.
"""

import difflib
import json
import sys

# Fields that measure the machine, not the simulation.
TIMING_KEYS = frozenset(
    [
        "wall_sec",
        "events_per_sec",
        "nodes_per_sec",
        "peak_rss_mb",
        "workers",
        "total_wall_sec",
        "total_events_per_sec",
    ]
)


def strip_keys(obj, keys):
    if isinstance(obj, dict):
        return {k: strip_keys(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [strip_keys(v, keys) for v in obj]
    return obj


def collect(obj, key, out):
    """Appends every value of `key` in document order."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key:
                out.append(float(v))
            else:
                collect(v, key, out)
    elif isinstance(obj, list):
        for v in obj:
            collect(v, key, out)


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def normalize(payload, extra_strip):
    keys = TIMING_KEYS | extra_strip
    return json.dumps(strip_keys(payload, keys), indent=2, sort_keys=True).splitlines(
        keepends=True
    )


def compare_rss(a_doc, b_doc, a_path, b_path, tolerance):
    a_rss, b_rss = [], []
    collect(a_doc, "peak_rss_mb", a_rss)
    collect(b_doc, "peak_rss_mb", b_rss)
    if len(a_rss) != len(b_rss):
        print(
            f"RSS DIFFER: {a_path} has {len(a_rss)} peak_rss_mb entries, "
            f"{b_path} has {len(b_rss)}",
            file=sys.stderr,
        )
        return False
    ok = True
    for i, (a, b) in enumerate(zip(a_rss, b_rss)):
        limit = abs(a) * tolerance
        if abs(b - a) > limit:
            print(
                f"RSS DIFFER: entry {i}: {a:.1f} MB -> {b:.1f} MB "
                f"(|delta| {abs(b - a):.1f} > {limit:.1f} at tolerance {tolerance})",
                file=sys.stderr,
            )
            ok = False
    if ok and a_rss:
        print(
            f"rss within tolerance {tolerance}: "
            + ", ".join(f"{a:.1f}->{b:.1f}MB" for a, b in zip(a_rss, b_rss))
        )
    return ok


def report_wall(a_doc, b_doc):
    """Prints each run's wall_sec ratio between the two files (never fails)."""
    a_wall, b_wall = [], []
    collect(a_doc, "wall_sec", a_wall)
    collect(b_doc, "wall_sec", b_wall)
    if not a_wall or len(a_wall) != len(b_wall):
        return
    print(
        "wall_sec A/B (information only): "
        + ", ".join(
            f"{a:.1f}/{b:.1f}s = {a / b:.2f}x" if b > 0 else f"{a:.1f}/{b:.1f}s"
            for a, b in zip(a_wall, b_wall)
        )
    )


def main(argv):
    args = list(argv[1:])
    tolerance = None
    if "--rss-tolerance" in args:
        i = args.index("--rss-tolerance")
        try:
            tolerance = float(args[i + 1])
        except (IndexError, ValueError):
            print("--rss-tolerance needs a numeric argument", file=sys.stderr)
            return 2
        del args[i : i + 2]
    extra_strip = set()
    while "--strip" in args:
        i = args.index("--strip")
        try:
            extra_strip.add(args[i + 1])
        except IndexError:
            print("--strip needs a KEY argument", file=sys.stderr)
            return 2
        del args[i : i + 2]
    if len(args) != 2:
        print(
            f"usage: {argv[0]} [--rss-tolerance FRAC] [--strip KEY]... A.json B.json",
            file=sys.stderr,
        )
        return 2
    a_doc, b_doc = load(args[0]), load(args[1])
    a, b = normalize(a_doc, extra_strip), normalize(b_doc, extra_strip)
    rc = 0
    if a == b:
        print(f"metrics match: {args[0]} == {args[1]} (timing fields ignored)")
    else:
        sys.stdout.writelines(difflib.unified_diff(a, b, fromfile=args[0], tofile=args[1]))
        print(
            "\nMETRICS DIFFER: parallel execution changed simulation results",
            file=sys.stderr,
        )
        rc = 1
    if tolerance is not None and not compare_rss(a_doc, b_doc, args[0], args[1], tolerance):
        rc = 1
    report_wall(a_doc, b_doc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
