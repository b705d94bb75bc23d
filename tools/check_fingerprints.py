#!/usr/bin/env python3
"""Fingerprint determinism gate over one declared matrix.

Runs scenario_fingerprint once per cell of MATRIX and checks two rules:

* every cell of a group prints byte-identical output — the thread count
  and the observability layer never change a result;
* groups named in DISTINCT print a different line for every scenario
  they share — the windowed engine is its own universe, so a match
  means it silently fell back to the exact engine.

    check_fingerprints.py --bin build/scenario_fingerprint [--out DIR]

Each cell's output is kept in DIR (default: the working directory) as
fp_<group>_t<threads>[_obs].txt for diffing by hand.

Exit codes: 0 pass, 1 a rule failed, 2 usage error or a
scenario_fingerprint run that failed.
"""

import argparse
import itertools
import os
import subprocess
import sys

# One group per engine. Cells are threads x obs; the engine is part of
# the group because engines are distinct universes.
MATRIX = [
    {
        "group": "exact",
        "scenarios": [
            "static_small", "no_prefetch", "thin_replicas", "q1_static_1k",
            "f5_static_1k", "f5_q1_static_small",
        ],
        "args": [],
        "threads": [1, 4],
        "obs": [False, True],
    },
    {
        "group": "windowed_skew1",
        "scenarios": ["q1_static_1k", "f5_q1_static_small"],
        "args": ["--queue-skew", "1"],
        "threads": [1, 4],
        "obs": [False, True],
    },
    {
        # The widest window: forwards made during a bucket sweep fence
        # to the next window.
        "group": "windowed_skew4",
        "scenarios": ["q1_static_small", "f5_q1_static_small"],
        "args": ["--queue-skew", "4"],
        "threads": [1, 4],
        "obs": [False],
    },
]
DISTINCT = [("exact", "windowed_skew1"), ("exact", "windowed_skew4")]


class ToolFailure(Exception):
    pass


def run_cell(binary, out_dir, group, threads, obs):
    """Runs one cell; returns its stdout lines keyed by scenario name."""
    cmd = [binary, "--quiet", "--only", ",".join(group["scenarios"]),
           "--threads", str(threads)] + group["args"]
    if obs:
        cmd.append("--obs")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as error:
        raise ToolFailure(f"cannot run {binary}: {error}") from error
    if proc.returncode != 0:
        raise ToolFailure(
            f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    name = f"fp_{group['group']}_t{threads}{'_obs' if obs else ''}.txt"
    try:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
    except OSError as error:
        raise ToolFailure(f"cannot write {name}: {error}") from error
    lines = {}
    for line in proc.stdout.splitlines():
        lines[line.split(" ", 1)[0]] = line
    if sorted(lines) != sorted(group["scenarios"]):
        raise ToolFailure(f"{name}: expected one line per scenario, got "
                          f"{sorted(lines)}")
    return name, lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin", required=True, help="scenario_fingerprint binary")
    parser.add_argument("--out", default=".", help="directory for cell outputs")
    args = parser.parse_args()
    if not os.path.isdir(args.out):
        print(f"fingerprint gate: --out {args.out} is not a directory",
              file=sys.stderr)
        return 2

    ok = True
    reference = {}
    try:
        for group in MATRIX:
            first = None
            cells = 0
            for threads, obs in itertools.product(group["threads"], group["obs"]):
                name, lines = run_cell(args.bin, args.out, group, threads, obs)
                cells += 1
                if first is None:
                    first = (name, lines)
                    reference[group["group"]] = lines
                    continue
                for scenario, line in lines.items():
                    if line != first[1][scenario]:
                        print(f"FAIL {group['group']}: {scenario} differs between "
                              f"{first[0]} and {name}", file=sys.stderr)
                        ok = False
            print(f"{group['group']}: {cells} cells x "
                  f"{len(group['scenarios'])} scenarios compared")
    except ToolFailure as error:
        print(f"fingerprint gate: {error}", file=sys.stderr)
        return 2

    for left, right in DISTINCT:
        shared = sorted(set(reference[left]) & set(reference[right]))
        for scenario in shared:
            if reference[left][scenario] == reference[right][scenario]:
                print(f"FAIL {scenario}: {left} and {right} print the same line — "
                      f"{right} did not engage", file=sys.stderr)
                ok = False
        print(f"{left} vs {right}: {len(shared)} shared scenarios checked distinct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
