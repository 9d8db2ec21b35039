#!/usr/bin/env python3
"""The scale benches' BENCH json is worker- and thread-invariant and keeps its keys.

Runs bench_fig_scale and bench_fig_fec on a 300-node rung at HG_WORKERS=1
and 2, each into its own scratch directory, and diffs each pair with
scripts/compare_bench_metrics.py (timing fields ignored), as CI's 10k-node
scale-smoke job does. It also checks that the keys CI's diffs name are
present: a renamed key would turn a --strip flag or the RSS gate into a
silent no-op.

Then it runs bench_fig_scale's two seed replicas (HG_SEEDS=2) on one and on
two threads (HG_THREADS=1 and 2) and diffs those: replicas that run
concurrently must pool to the same results as replicas run one by one.
Likewise, the figure bench BENCH_TABLE2 (Table 2, whose class table pools
the replicas' per-class means) must print byte-identical stdout at
HG_SEEDS=2 on one and on two threads.

Usage: bench_json_workers_test.py BENCH_FIG_SCALE BENCH_FIG_FEC BENCH_TABLE2
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parents[2] / "scripts" / "compare_bench_metrics.py"
NODES = "300"
# Environment knobs a run sets itself or leaves at their defaults; inherited
# values are dropped.
KNOBS = ("HG_WORKERS", "HG_SEEDS", "HG_THREADS", "HG_BENCH_JSON", "HG_SCALE")

PERCENTILE_KEYS = {f"{m}_p{q}" for m in ("lag", "jitter_pct") for q in (50, 90, 99)}
# Per bench: keys every run record must carry, and keys of its class records.
REQUIRED = {
    "bench_fig_scale": (
        {"peak_rss_mb", "partitions", "epochs_run", "epochs_skipped", "xpart_datagrams",
         "xpart_exchange_bytes", "xpart_datagram_fraction", "classes"},
        PERCENTILE_KEYS,
    ),
    "bench_fig_fec": (PERCENTILE_KEYS, set()),
}


def missing_keys(doc, run_keys, class_keys):
    missing = set()
    for run in doc["runs"]:
        missing |= run_keys - run.keys()
        for cls in run.get("classes", []):
            missing |= class_keys - cls.keys()
    return missing


def run_bench(binary, out_dir, **knobs):
    """Runs `binary` on the test rung with `knobs` set and the other KNOBS
    unset; returns the path of its BENCH json."""
    out_dir.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env.update({k: str(v) for k, v in knobs.items()}, HG_BENCH_JSON_DIR=str(out_dir))
    subprocess.run([binary, NODES], env=env, check=True)
    return out_dir / f"BENCH_{Path(binary).name}.json"


def figure_stdout(binary, **knobs):
    """Runs the figure bench `binary` at quick scale with `knobs` set, the
    other KNOBS unset and no BENCH json; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env.update({k: str(v) for k, v in knobs.items()}, HG_BENCH_JSON="0")
    return subprocess.run([binary], env=env, check=True, stdout=subprocess.PIPE).stdout


def compare(paths):
    """True when compare_bench_metrics.py finds the two files' metrics equal."""
    cmd = [sys.executable, str(COMPARE), *map(str, paths)]
    return subprocess.run(cmd, check=False).returncode == 0


def main(argv):
    if len(argv) != 4:
        print(f"usage: {argv[0]} BENCH_FIG_SCALE BENCH_FIG_FEC BENCH_TABLE2", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for binary in argv[1:3]:
            name = Path(binary).name
            paths = [run_bench(binary, Path(tmp) / f"{name}-w{w}", HG_WORKERS=w) for w in (1, 2)]
            with open(paths[0], encoding="utf-8") as f:
                missing = missing_keys(json.load(f), *REQUIRED[name])
            if missing:
                print(f"{name}: BENCH json lacks {sorted(missing)}", file=sys.stderr)
                failed = True
            failed |= not compare(paths)
        scale = argv[1]
        paths = [
            run_bench(scale, Path(tmp) / f"seeds2-t{t}", HG_SEEDS=2, HG_THREADS=t) for t in (1, 2)
        ]
        failed |= not compare(paths)
    table2 = argv[3]
    outputs = [figure_stdout(table2, HG_SEEDS=2, HG_THREADS=t) for t in (1, 2)]
    if outputs[0] != outputs[1]:
        print(f"{Path(table2).name}: stdout differs between HG_THREADS=1 and 2", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
