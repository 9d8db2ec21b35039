#!/usr/bin/env python3
"""The scale benches' BENCH json is worker-invariant and keeps its keys.

Runs bench_fig_scale and bench_fig_fec on a 300-node rung at HG_WORKERS=1
and 2, each into its own scratch directory, and diffs each pair with
scripts/compare_bench_metrics.py (timing fields ignored), as CI's 10k-node
scale-smoke job does. It also checks that the keys CI's diffs name are
present: a renamed key would turn a --strip flag or the RSS gate into a
silent no-op.

Usage: bench_json_workers_test.py BENCH_FIG_SCALE BENCH_FIG_FEC
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parents[2] / "scripts" / "compare_bench_metrics.py"
NODES = "300"

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


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} BENCH_FIG_SCALE BENCH_FIG_FEC", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for binary in argv[1:]:
            name = Path(binary).name
            paths = []
            for workers in (1, 2):
                out_dir = Path(tmp) / f"{name}-w{workers}"
                out_dir.mkdir()
                env = dict(os.environ, HG_WORKERS=str(workers), HG_BENCH_JSON_DIR=str(out_dir))
                env.pop("HG_BENCH_JSON", None)
                subprocess.run([binary, NODES], env=env, check=True)
                paths.append(out_dir / f"BENCH_{name}.json")
            with open(paths[0], encoding="utf-8") as f:
                missing = missing_keys(json.load(f), *REQUIRED[name])
            if missing:
                print(f"{name}: BENCH json lacks {sorted(missing)}", file=sys.stderr)
                failed = True
            compare = [sys.executable, str(COMPARE), *map(str, paths)]
            failed |= subprocess.run(compare, check=False).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
