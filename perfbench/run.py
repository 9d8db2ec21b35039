#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `hg_perfbench` (Release) into
`.bench_build/` from the sources in the checkout, then runs the workload in
fresh child processes, one simulation each, for as many children as fit in
`--seconds` of host time (at least MIN_CHILDREN). A fresh process per simulation
makes `peak_rss_mb` that workload's alone. A fixed host-speed reference loop
(`hg_perfbench --reference <workload>`) runs before the first child and
after every child; throughput is counted in units of the reference time
around each child. Every figure is a median over the children.

Set-up time varies more between processes than within one, so with
`--trace 0` short set-up-only children (`hg_perfbench --setup <workload>`)
also run after every reference, for about SETUP_PROBE_S of host time (none
where one would take longer). Each child's set-up time is divided by the reference
time just before it, and `setup_s` is the median over all children, scaled
to a host whose reference takes NOMINAL_REFERENCE_S.

Every child's outputs are checked (see hg_perfbench.cpp): rejected wire
input, unclaimed tags on receivers, failed RS decodes, and on real payloads
the "decoded iff >= k distinct packets arrived" audit. All children of one
run must print the same digest of simulated outcomes and deterministic
counters, and where `digests.json` records a digest for the workload and
seed, it must match. A child whose checks fail counts all its operations as
failed.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced children and reports the per-layer metrics
from the traced ones, plus the tracing overhead; the traced children must
reproduce the untraced digest. Span files land in `.bench_build/traces/`,
and every child's run record (commit, compiler, build type, nproc, seed) is
appended to `.bench_build/runs/<workload>.jsonl`.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `--record-digest` stores this run's digest in digests.json.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hg_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 2009
# setup_s is in seconds on a host where one reference loop takes this long
# (0.9-1.7 s on a shared 4-core x86 VM).
NOMINAL_REFERENCE_S = 1.0
MIN_CHILDREN = 3
SETUP_PROBE_S = 1.0
CHILD_TIMEOUT_S = 120
BUILD_JOBS = "2"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures on first use, then incrementally builds hg_perfbench."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} at {ROOT}: the benchmark builds the program from source")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target", "hg_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed", 1)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    necessarily a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(args):
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail(f"hg_perfbench exited with {proc.returncode}", 1)
    return json.loads(out.strip().splitlines()[-1])


def median(records, section, name):
    return statistics.median(r[section][name] for r in records)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="store this run's digest in perfbench/digests.json")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number >= 0")
    # A SIGTERM from a caller's timeout, like Ctrl-C, must still reap the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    meta = {"commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "seed": args.seed}
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)

    records = []
    setup_refs = []  # set-up times in reference times, every child
    t0 = time.monotonic()
    reference = ["--reference", args.workload]
    ref_before = run_child(reference)["reference_s"]
    while True:
        traced = args.trace == 1 and len(records) % 2 == 1
        cmd = ["--workload", args.workload, "--seed", str(args.seed)]
        if traced:
            cmd += ["--trace", os.path.join(
                BUILD, "traces", f"{args.workload}-seed{args.seed}-{len(records)}.json")]
        rec = run_child(cmd)
        if not rec["traced"]:
            setup_refs.append(rec["host"]["setup_s"] / ref_before)
        ref_after = run_child(reference)["reference_s"]
        # The host's speed while this child ran: the reference runs just
        # before and just after it.
        rec["reference_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        # Set-up-only children for about SETUP_PROBE_S. One costs about the
        # main child's own set-up time, so where that alone exceeds
        # SETUP_PROBE_S (paper-fec) none runs and the time goes to children.
        probe_end = (time.monotonic() + SETUP_PROBE_S
                     - rec["host"]["setup_s"] * rec["host"]["setup_builds"])
        while args.trace == 0 and time.monotonic() < probe_end:
            probe = run_child(["--setup", args.workload, "--seed", str(args.seed)])
            setup_refs.append(probe["setup_s"] / ref_after)
        records.append(rec)
        with open(os.path.join(BUILD, "runs", f"{args.workload}.jsonl"), "a") as f:
            f.write(json.dumps({**meta, "compiler": rec["compiler"],
                                "build_type": rec["build_type"], "record": rec}) + "\n")
        print(f"perfbench: {args.workload} seed {args.seed} child {len(records)}"
              f"{' (traced)' if traced else ''}: run {rec['host']['run_s']:.3f} s, "
              f"reference {rec['reference_s']:.3f} s, digest {rec['digest']}", file=sys.stderr)
        # Stop before a further child would overrun the run's time budget.
        elapsed = time.monotonic() - t0
        next_end = elapsed * (len(records) + 1) / len(records)
        if len(records) >= MIN_CHILDREN and next_end > args.seconds:
            break

    # --- output checks -------------------------------------------------------
    problems = []
    for i, rec in enumerate(records):
        problems += [f"child {i}: check {k} failed" for k, ok in rec["checks"].items() if not ok]
    digests = sorted({r["digest"] for r in records})
    if len(digests) != 1:
        problems.append(f"children disagree on the digest: {digests}")
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            recorded = json.load(f)
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    if expected is not None and expected != digests[0]:
        problems.append(f"digest {digests[0]} != recorded {expected}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in records)
    if len(digests) != 1 or expected not in (None, digests[0]):
        # Simulated results changed: no child's operations can be trusted.
        failed = attempted
    else:
        failed = sum(r["attempted"] if not all(r["checks"].values()) else r["failed"]
                     for r in records)

    # --- metrics -------------------------------------------------------------
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    first = records[0]

    def run_refs(recs):
        """Median over children of run host time in units of reference time."""
        return statistics.median(r["host"]["run_s"] / r["reference_s"] for r in recs)

    node_sim_s = first["receivers"] * first["sim_s"]
    values = {
        # Other tenants' memory traffic moves a shared VM's speed by up to 1.7x
        # over minutes, so host times are counted in reference-loop times,
        # which drift with it. The wall-clock figures are host.setup_s and
        # host.node_sim_s_per_s.
        "setup_s": NOMINAL_REFERENCE_S * statistics.median(setup_refs),
        "node_sim_s_per_ref": node_sim_s / run_refs(untraced),
        "peak_rss_mb": median(untraced, "host", "peak_rss_mb"),
        "host.setup_s": median(untraced, "host", "setup_s"),
        "host.node_sim_s_per_s": median(untraced, "host", "node_sim_s_per_s"),
        "host.reference_s": statistics.median(r["reference_s"] for r in untraced),
        **first["sim"],
    }
    if traced:
        values.update(traced[0]["counters"])
        for name in traced[0]["host"]:
            # End-to-end figures stay the untraced children's.
            values.setdefault(name, median(traced, "host", name))
        values["trace.overhead_pct"] = 100.0 * (run_refs(traced) / run_refs(untraced) - 1.0)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # Human-readable summary: every end-to-end figure, including the ones
    # BENCHMARK.json cannot bound (undecoded share is 0 by workload design).
    print(f"workload {args.workload}  seed {args.seed}  children {len(records)} "
          f"({len(traced)} traced) + {len(setup_refs) - len(untraced)} set-up only  "
          f"receivers {first['receivers']}  "
          f"sim {first['sim_s']:.1f} s  digest {digests[0]}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'sim_windows_undecoded_pct':<28} {values['sim_windows_undecoded_pct']:>14.6g} %")
    print(f"  {'host.setup_s':<28} {values['host.setup_s']:>14.6g} s (wall clock)")
    print(f"  {'host.node_sim_s_per_s':<28} {values['host.node_sim_s_per_s']:>14.6g} node-s/s"
          f" (reference {values['host.reference_s']:.4g} s)")
    print(f"  operations attempted {attempted}, failed {failed}")
    if traced:
        print(f"  tracing overhead {values['trace.overhead_pct']:+.2f} % of run host time")

    if args.record_digest and len(digests) == 1 and attempted > failed == 0:
        recorded.setdefault(args.workload, {})[str(args.seed)] = digests[0]
        with open(DIGESTS, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
