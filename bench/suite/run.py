#!/usr/bin/env python3
"""The simulator's benchmark: builds bench/suite/suite_driver, runs its
workloads one repetition ("rep") per process, round-robin, checks every
session's output and prints each metric with its unit and sample count.

    python3 bench/suite/run.py [--workload NAME|all] [--seed N]
                               [--seconds S | --reps N] [--sets K]
                               [--trace 0|1] [--smoke]
                               [--out FILE [--append]] [--write-golden]

--seconds S   keep starting reps round-robin until S seconds are spent
              (at least one rep per workload); otherwise --reps N
              (default 5) reps per workload.
--sets K      repeat the whole round K times back to back (default 1).
--trace 1     also run one traced rep per workload per set (obs profile
              and counters on) and print the per-layer metrics.
--smoke       every workload at 200 nodes and 5 s: one rep plus one
              traced rep each, for checking the benchmark itself.
--out FILE    write the JSON record (every rep, plus a summary);
              --append adds this run's sets to an existing record, which
              is how interleaved base/head runs are collected for
              compare.py.
--write-golden  record the result fingerprints of seeds 42 and 7 (every
              rep variant) in golden.json. Nothing else writes that file.

Rep i of a workload runs with session seed N + ((i mod 8) << 32), its
"variant"; the traced rep runs variant 0. Every input derives from N.

setup_s and run_s are in reference-host seconds. A fixed host-speed
probe that calls no simulator code (suite_driver --probe) runs in its
own process just before and just after every rep, and the rep's wall
times are scaled by REF_PROBE_MS over the mean of those two probes. The
probe runs no simulator code, so a code change moves the scaled times in
the same proportion as the wall times, while a shared host's speed
drift moves the rep and its probes together and largely cancels. The
raw wall times stay in the record and are reported as
host.run_wall_s / host.setup_wall_s.

Checks, per session of every rep: stable continuity in [0, 1], zero
mixed-batch fallbacks, and a result fingerprint equal to golden.json for
the seeds it lists, or else equal to the first rep of the same variant
(the traced rep included, which covers observability non-perturbation).
A traced rep also fails when its
per-layer rows do not add up to its run wall. Failed sessions are
counted against sessions attempted.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1), each the median over
reps. With several workloads the metric keys are "workload/metric".

Exit codes: 0 all checks passed, 1 a check failed, 2 bad arguments or
the driver could not be built.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build-suite"
DRIVER = BUILD / "suite_driver"
GOLDEN = SUITE / "golden.json"
GOLDEN_SEEDS = (42, 7)
# Session work varies by ~15% from seed to seed at 8000 nodes, so each
# run's median covers several session seeds instead of one.
VARIANTS = 8
REP_TIMEOUT_S = 120
# About the probe's time on a quiet 4-vCPU Xeon host: the host speed that
# scaled timings are expressed in.
REF_PROBE_MS = 80.0
# A traced rep runs the workload once more up to its warm-up horizon.
TRACED_COST = 1.4
# Rows of the traced breakdown that add up to sim.run_wall_ms.
WALL_ROWS = (
    "round.prepare_local.wall_ms", "round.plan.wall_ms", "sim.lax_drain.wall_ms",
    "net.delivery_bucket.wall_ms", "overlay.churn_sweep.wall_ms",
    "metrics.sample_sweep.wall_ms", "sim.other_fork.wall_ms", "sim.serial_ms",
    "sim.unattributed_ms",
)


class UsageError(Exception):
    pass


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read BENCHMARK.json: {exc}") from exc


def build():
    """Configures (once) and builds the driver; quiet unless it fails."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise UsageError(f"{ROOT} holds no simulator sources (src/, CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "suite_driver",
                  "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, capture_output=True, text=True)
        except OSError as exc:
            raise UsageError(f"cannot run {step[0]}: {exc}") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise UsageError(f"build step failed: {' '.join(step)}")


def run_driver(label, args):
    """One driver process: its JSON record, or a record with an "error"."""
    cmd = [str(DRIVER), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            error = f"driver exited {proc.returncode}"
        else:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        error = f"driver timed out after {REP_TIMEOUT_S} s"
    except (ValueError, IndexError):
        error = "unreadable driver output"
    print(f"{label}: {error}", file=sys.stderr)
    return {"workload": label, "error": error}


def run_rep(workload, seed, variant, traced, smoke):
    cmd = ["--workload", workload, "--seed", str(seed + (variant << 32))]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    return {**run_driver(workload, cmd), "variant": variant}


class Prober:
    """Host-speed probes around reps. The probe taken right after one rep
    also serves as the probe before the next."""

    def __init__(self):
        self.last = None

    def probe(self):
        self.last = run_driver("probe", ["--probe"]).get("probe_ms")
        return self.last

    def timed_rep(self, workload, seed, variant, traced, smoke):
        before = self.last if self.last is not None else self.probe()
        rec = run_rep(workload, seed, variant, traced, smoke)
        after = self.probe()
        if "error" in rec:
            return rec
        if before is None or after is None:
            return {**rec, "error": "host probe failed"}
        probe = (before + after) / 2.0
        scale = REF_PROBE_MS / probe
        return {**rec, "probe_ms": probe, "setup_s": rec["setup_wall_s"] * scale,
                "run_s": rec["run_wall_s"] * scale}


def run_set(workloads, seed, reps, seconds, trace, smoke):
    """Untraced reps round-robin, then one traced rep per workload."""
    untraced, traced = [], []
    cost = {}
    prober = Prober()
    start = time.monotonic()
    rounds = 0
    while True:
        if reps is not None and rounds >= reps:
            break
        if seconds is not None and rounds >= 1:
            need = sum(cost.values()) * (1 + (TRACED_COST if trace else 0))
            if time.monotonic() - start + need > seconds:
                break
        for workload in workloads:
            t0 = time.monotonic()
            untraced.append(prober.timed_rep(workload, seed, rounds % VARIANTS, False, smoke))
            cost[workload] = time.monotonic() - t0
        rounds += 1
    if trace:
        traced = [prober.timed_rep(workload, seed, 0, True, smoke) for workload in workloads]
    return {"reps": untraced, "traced": traced}


def load_golden():
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def fingerprints(rec):
    return {s["label"]: s["fingerprint"] for s in rec["sessions"]}


def rows_add_up(layers):
    """The traced rows sum to the run wall and the remainder row is not
    negative, so no span is counted twice."""
    wall = layers["sim.run_wall_ms"]
    rows = sum(layers[name] for name in WALL_ROWS)
    return abs(rows - wall) <= 0.01 * wall and layers["sim.unattributed_ms"] >= -0.01 * wall


def check(workload, golden_runs, recs):
    """(attempted, failed) sessions over one workload's recs, in run order.

    golden_runs[v] maps session label to fingerprint for variant v (from
    golden.json); a variant it does not cover must match its first rep."""
    wants = dict(enumerate(golden_runs or []))
    attempted = failed = 0
    for rec in recs:
        if "error" in rec:
            lost = len(wants.get(rec["variant"], ())) or 1
            attempted += lost
            failed += lost
            continue
        want = wants.setdefault(rec["variant"], fingerprints(rec))
        rows_ok = "layers" not in rec or rows_add_up(rec["layers"])
        missing = set(want) - {session["label"] for session in rec["sessions"]}
        attempted += len(missing)
        failed += len(missing)
        for session in rec["sessions"]:
            attempted += 1
            expected = want.get(session["label"])
            if (rows_ok and 0.0 <= session["continuity"] <= 1.0
                    and session["mixed_batch_fallbacks"] == 0
                    and expected == session["fingerprint"]):
                continue
            failed += 1
            print(f"{workload} seed {rec['seed']}: session {session['label']} failed: "
                  f"fingerprint {session['fingerprint']} (want {expected}), "
                  f"continuity {session['continuity']}, mixed-batch fallbacks "
                  f"{session['mixed_batch_fallbacks']}, traced rows add up {rows_ok}",
                  file=sys.stderr)
    return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(spec, record, workloads):
    """Per-workload checks and medians over every set of the record."""
    golden = {} if record["smoke"] else load_golden()
    summary = {}
    for workload in workloads:
        reps = [r for s in record["sets"] for r in s["reps"] if r["workload"] == workload]
        traced = [r for s in record["sets"] for r in s["traced"] if r["workload"] == workload]
        golden_runs = golden.get(workload, {}).get(str(record["seed"]))
        attempted, failed = check(workload, golden_runs, reps + traced)
        reps = [r for r in reps if "error" not in r]
        traced = [r for r in traced if "error" not in r]
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in reps]
            if values:
                q1, q3 = quartiles(values)
                e2e[m["name"]] = {"value": statistics.median(values), "q1": q1,
                                  "q3": q3, "n": len(values)}
        layers = {}
        for name in traced[0]["layers"] if traced else ():
            layers[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                            "n": len(traced)}
        same_input = [r["run_s"] for r in reps if r["variant"] == 0]
        if traced and same_input:
            slowdown = (statistics.median(r["run_s"] for r in traced)
                        / statistics.median(same_input))
            layers["obs.overhead_pct"] = {"value": (slowdown - 1.0) * 100.0,
                                          "n": len(traced)}
        if reps or traced:
            layers["host.probe_ms"] = {
                "value": statistics.median(r["probe_ms"] for r in reps + traced),
                "n": len(reps) + len(traced)}
        for name, field in (("host.setup_wall_s", "setup_wall_s"),
                            ("host.run_wall_s", "run_wall_s")):
            if reps:
                layers[name] = {"value": statistics.median(r[field] for r in reps),
                                "n": len(reps)}
        summary[workload] = {"attempted": attempted, "failed": failed,
                             "failed_frac": failed / attempted if attempted else 1.0,
                             "end_to_end": e2e, "per_layer": layers}
    return summary


def print_table(spec, summary):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, s in summary.items():
        print(f"== {workload}: failed_frac {s['failed_frac']:.4g} "
              f"({s['failed']} failed / {s['attempted']} sessions attempted)")
        for name, m in s["end_to_end"].items():
            print(f"  {name:32s} {m['value']:14.6g} {units[name]:6s} "
                  f"n={m['n']:<3d} IQR [{m['q1']:.6g}, {m['q3']:.6g}]")
        for name, m in s["per_layer"].items():
            print(f"  {name:32s} {m['value']:14.6g} {units.get(name, '?'):6s} n={m['n']}")


def result_line(spec, summary, trace):
    """The benchmark's contract line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    single = len(summary) == 1
    metrics = {}
    for workload, s in summary.items():
        found = {**s["end_to_end"], **s["per_layer"]}
        for m in wanted:
            if m["name"] in found:
                key = m["name"] if single else f"{workload}/{m['name']}"
                metrics[key] = {"value": found[m["name"]]["value"], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    complete = len(metrics) == len(wanted) * len(summary)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_golden(workloads):
    """Re-records the selected workloads; other entries are kept."""
    golden = load_golden()
    for workload in workloads:
        golden[workload] = {}
        for seed in GOLDEN_SEEDS:
            runs = []
            for variant in range(VARIANTS):
                rec = run_rep(workload, seed, variant, False, False)
                if "error" in rec:
                    raise UsageError(f"{workload} seed {seed} variant {variant}: "
                                     f"{rec['error']}; golden.json not written")
                runs.append(fingerprints(rec))
            golden[workload][str(seed)] = runs
            print(f"{workload} seed {seed}: {VARIANTS} variants")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"note": "result fingerprints per workload, seed and rep variant; "
                           "written only by run.py --write-golden; seed 7 is held "
                           "out for claims",
                   "workloads": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in names:
        raise UsageError(f"unknown workload '{args.workload}'; "
                         f"known: all, {', '.join(names)}")
    if not args.seed.isdigit() or int(args.seed) >= 1 << 32:
        raise UsageError(f"--seed wants an integer in [0, 2^32), got '{args.seed}'")
    args.seed = int(args.seed)
    if args.reps is not None and args.reps <= 0:
        raise UsageError(f"--reps must be positive, got {args.reps}")
    if args.seconds is not None and args.seconds <= 0:
        raise UsageError(f"--seconds must be positive, got {args.seconds}")
    if args.sets <= 0:
        raise UsageError(f"--sets must be positive, got {args.sets}")
    if args.append and not args.out:
        raise UsageError("--append needs --out")
    if args.smoke:
        args.reps, args.seconds, args.trace = 1, None, 1
    elif args.reps is None and args.seconds is None:
        args.reps = 5
    args.workloads = names if args.workload == "all" else [args.workload]
    return args


def main(argv):
    try:
        spec = load_spec()
        args = parse_args(argv, [w["name"] for w in spec["workloads"]])
        build()
        if args.write_golden:
            write_golden(args.workloads)
            return 0
    except UsageError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    record = {"seed": args.seed, "smoke": args.smoke, "sets": []}
    if args.append and Path(args.out).is_file():
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
        if record["seed"] != args.seed or record["smoke"] != args.smoke:
            print("run.py: --append target was recorded with another seed or mode",
                  file=sys.stderr)
            return 2
    started = time.monotonic()
    for _ in range(args.sets):
        record["sets"].append(run_set(args.workloads, args.seed, args.reps,
                                      args.seconds, args.trace, args.smoke))
    workloads = sorted({r["workload"] for s in record["sets"] for r in s["reps"]},
                       key=[w["name"] for w in spec["workloads"]].index)
    summary = summarize(spec, record, workloads)
    record["summary"] = summary
    record["host"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "wall_s_last_invocation": time.monotonic() - started}
    print_table(spec, summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    line = result_line(spec, summary, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
