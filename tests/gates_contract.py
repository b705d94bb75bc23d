#!/usr/bin/env python3
"""Exit-code contract of the bench-gate runner, bench/check_gates.py.

    gates_contract.py BENCH_DIVERGENCE

Runs a copy of check_gates.py beside a synthetic manifest whose rows read
synthetic records through the real command line: for each check kind a
passing record must exit 0 and a failing one exit 1, and every
malformed record must exit 2 without a traceback. The ceilings and
floors come from the committed bench/budgets/ files. One row runs the
real bench_divergence briefly and feeds its record to the drift check,
so the bench's writer and the checker's reader cannot drift apart.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def budget(name):
    with open(ROOT / "bench" / "budgets" / name, encoding="utf-8") as fh:
        return json.load(fh)


def scaling(hardware, speedup):
    return {"bench": "session_scaling", "hardware_concurrency": hardware,
            "points": [{"threads": 1, "speedup": 1.0},
                       {"threads": 4, "speedup": speedup}]}


def large_session(scale, obs=False):
    """A static_8k record at `scale` times the budget's ceilings and floor."""
    b = budget("static_8k.json")
    nodes = 8000
    return {"bench": "large_session", "scenario": "static_8k", "obs_enabled": obs,
            "events_per_sec": b["min_events_per_sec"] / scale,
            "memory": {"measured_nodes": nodes,
                       "per_node_bytes": b["max_per_node_bytes"] * scale,
                       "engine_bytes": b["max_engine_bytes_per_node"] * scale * nodes}}


def drift(delta):
    return {"bench": "divergence", "axis": "skews", "reps": 8,
            "scenarios": [{"scenario": "q1_static_1k", "exact": {"continuity": 0.8},
                           "points": [{"skew": 1, "continuity": 0.8 + delta,
                                       "continuity_delta": delta}]}]}


# name -> (check, records, expected exit).
RECORDS = {
    "scaling_pass": ("scaling", [scaling(8, 3.0)], 0),
    "scaling_unarmed": ("scaling", [scaling(2, 1.0)], 0),
    "scaling_fail": ("scaling", [scaling(8, 1.0)], 1),
    "scaling_empty": ("scaling", [{"bench": "x", "hardware_concurrency": 8, "points": []}], 2),
    "scaling_null": ("scaling", [{"bench": "x", "hardware_concurrency": 8,
                                  "points": [{"threads": 4, "speedup": None}]}], 2),
    "budget_pass": ("budget", [large_session(0.5)], 0),
    "budget_fail": ("budget", [large_session(2.0)], 1),
    "budget_no_memory": ("budget", [{"bench": "large_session", "scenario": "static_8k",
                                     "events_per_sec": 900000}], 2),
    "budget_null": ("budget", [{"bench": "large_session", "scenario": "static_8k",
                                "events_per_sec": 900000,
                                "memory": {"per_node_bytes": None}}], 2),
    "overhead_pass": ("overhead", [large_session(0.5), large_session(0.5, obs=True)], 0),
    "overhead_fail": ("overhead", [large_session(0.5), large_session(0.6, obs=True)], 1),
    "overhead_null": ("overhead", [large_session(0.5),
                                   dict(large_session(0.5, obs=True), events_per_sec=None)], 2),
    "drift_pass": ("drift", [drift(0.0)], 0),
    "drift_fail": ("drift", [drift(0.5)], 1),
    "drift_missing": ("drift", [{"bench": "divergence", "axis": "skews", "reps": 8,
                                 "scenarios": []}], 2),
    "drift_null": ("drift", [{"bench": "divergence", "axis": "skews", "reps": 8,
                              "scenarios": [{"scenario": "q1_static_1k",
                                             "exact": {"continuity": 0.9},
                                             "points": [{"skew": 1,
                                                         "continuity_delta": None}]}]}], 2),
    "record_pass": ("record", [{"bench": "anything"}], 0),
}
BUDGETS = {"budget": "static_8k.json", "overhead": "static_8k.json",
           "drift": "drift_q1_static_1k.json"}


def manifest_rows(records_dir):
    rows = []
    for name, (check, records, _) in RECORDS.items():
        runs = []
        for i, record in enumerate(records):
            path = records_dir / f"{name}_{i}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            runs.append(["emit", str(path)])
        row = {"name": name, "check": check, "runs": runs, "provenance": "synthetic"}
        if check == "scaling":
            row["floor"] = 1.5
        if check == "overhead":
            row["max_overhead_pct"] = 3.0
        if check in BUDGETS:
            row["budget"] = f"bench/budgets/{BUDGETS[check]}"
        rows.append(row)
    rows.append({"name": "record_bench_fails", "check": "record", "runs": [["fail"]]})
    # 21 s is the shortest whole-second run past q1_static_small's
    # stable_from (20 s): a shorter one is refused, because its stable
    # continuity would read 0 on both sides and pass vacuously.
    rows.append({"name": "drift_live", "check": "drift",
                 "runs": [["bench_divergence", "--scenarios", "q1_static_small",
                           "--skews", "1", "--reps", "1", "--duration", "21"]],
                 "budget": "bench/budgets/drift_live.json", "provenance": "synthetic"})
    return rows


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    expected = {name: code for name, (_, _, code) in RECORDS.items()}
    expected.update(record_bench_fails=1, drift_live=0)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bench = tmp / "repo" / "bench"
        shutil.copytree(ROOT / "bench" / "budgets", bench / "budgets")
        shutil.copy(ROOT / "bench" / "check_gates.py", bench)
        (bench / "budgets" / "drift_live.json").write_text(json.dumps(
            {"scenario": "q1_static_small", "skew": 1,
             "max_abs_continuity_delta": 1.0, "min_reps": 1}), encoding="utf-8")
        bin_dir = tmp / "bin"
        bin_dir.mkdir()
        for tool, body in (("emit", 'cat "$1"'), ("fail", "exit 3")):
            (bin_dir / tool).write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
            (bin_dir / tool).chmod(0o755)
        os.symlink(os.path.abspath(sys.argv[1]), bin_dir / "bench_divergence")
        records_dir = tmp / "records"
        records_dir.mkdir()
        (bench / "gates.json").write_text(
            json.dumps({"rows": manifest_rows(records_dir)}), encoding="utf-8")

        failures = []
        for name, want in expected.items():
            run = subprocess.run(
                [sys.executable, str(bench / "check_gates.py"), "--bin", str(bin_dir),
                 "--out", str(tmp / "out"), name],
                capture_output=True, text=True)
            output = run.stdout + run.stderr
            verdict = "ok"
            if run.returncode != want:
                verdict = f"exit {run.returncode}, expected {want}"
            elif "Traceback" in output:
                verdict = "printed a traceback"
            print(f"{name:<20} {verdict}")
            if verdict != "ok":
                failures.append(name)
                print(output)
    if failures:
        print(f"{len(failures)} case(s) broke the contract: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
