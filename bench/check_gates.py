#!/usr/bin/env python3
"""Bench gates: run the rows of bench/gates.json and check each bound.

    check_gates.py [--bin DIR] [--out DIR] [ROW ...]

Each manifest row names the bench command(s) that produce its JSON
record, a check kind, its bound and the bound's provenance. check_gates.py
runs every named row (all rows when none is named) even after one
fails, writes each command's stdout to OUT/<row>.json (OUT/<row>_<i>.json
when the row has several runs), and prints the provenance and a verdict
per row. Commands run from the binary directory DIR.

Check kinds:
  scaling   armed only when the record's hardware_concurrency >= 4; the
            point at width 4 (threads or jobs) must reach `floor`;
  budget    B/node, engine bytes per measured node and events/s against
            the `budget` file's ceilings and floor;
  overhead  best events/s of the obs-on runs within `max_overhead_pct`
            of the best obs-off run, which must clear the `budget`
            file's events/s floor;
  drift     a record of at least the budget's `min_reps`, whose
            |continuity delta| at the budget's skew stays within
            `max_abs_continuity_delta`;
  record    archive only: the output must be JSON.

Exit codes: 0 every row passed (a scaling row on a host with fewer than
4 cores passes unarmed), 1 a row missed its bound or its bench failed,
2 malformed input (arguments, manifest, budget file or record), always
with a one-line diagnosis and never a traceback.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "bench" / "gates.json"
WIDTH = 4
BOUND_FIELDS = {
    "scaling": ("floor",),
    "budget": ("budget",),
    "overhead": ("max_overhead_pct", "budget"),
    "drift": ("budget",),
    "record": (),
}


class Malformed(Exception):
    """Input that cannot be evaluated (exit 2)."""


class BenchFailed(Exception):
    """A bench command did not run to a clean exit (exit 1)."""


def field(obj, *path):
    """obj[path[0]][path[1]]...; Malformed when a step is missing."""
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            raise Malformed(f"missing '{'.'.join(map(str, path))}'")
        obj = obj[key]
    return obj


def number(obj, *path):
    value = field(obj, *path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Malformed(f"'{'.'.join(path)}' is not a number (got {value!r})")
    return float(value)


def objects(value, what):
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise Malformed(f"'{what}' is not a list of objects")
    return value


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as error:
        raise Malformed(f"cannot read {path}: {error}") from None


def load_budget(row):
    budget = load_json(ROOT / row["budget"])
    if not isinstance(budget, dict):
        raise Malformed(f"{row['budget']} is not a JSON object")
    return budget


def check_scaling(row, records):
    (record,) = records
    points = objects(field(record, "points"), "points")
    if not points:
        raise Malformed("'points' is empty (truncated bench run?)")
    hardware = field(record, "hardware_concurrency")
    if isinstance(hardware, bool) or not isinstance(hardware, int):
        raise Malformed(f"'hardware_concurrency' is not an integer (got {hardware!r})")
    if hardware < WIDTH:
        print(f"  host exposes {hardware} core(s) < {WIDTH}")
        return "NOT ARMED"
    axis = "threads" if any("threads" in p for p in points) else "jobs"
    target = next((p for p in points if p.get(axis) == WIDTH), None)
    if target is None:
        raise Malformed(f"no {axis}={WIDTH} point")
    speedup = number(target, "speedup")
    print(f"  {axis}={WIDTH} on {hardware} cores: {speedup:.2f}x, floor {row['floor']:.2f}x")
    return "PASS" if speedup >= row["floor"] else "FAIL"


def check_budget(row, records):
    (record,) = records
    budget = load_budget(row)
    if record.get("scenario") != budget.get("scenario"):
        raise Malformed(
            f"bench ran '{record.get('scenario')}' but {row['budget']} "
            f"covers '{budget.get('scenario')}'"
        )
    per_node = number(record, "memory", "per_node_bytes")
    ceiling = number(budget, "max_per_node_bytes")
    print(f"  {per_node:.1f} B/node, ceiling {ceiling:.1f}")
    ok = per_node <= ceiling
    if "max_engine_bytes_per_node" in budget:
        nodes = max(int(record["memory"].get("measured_nodes", 1)), 1)
        engine = number(record, "memory", "engine_bytes") / nodes
        engine_ceiling = number(budget, "max_engine_bytes_per_node")
        print(f"  engine {engine:.1f} B/node, ceiling {engine_ceiling:.1f}")
        ok = ok and engine <= engine_ceiling
    if "min_events_per_sec" in budget:
        throughput = number(record, "events_per_sec")
        floor = number(budget, "min_events_per_sec")
        print(f"  {throughput:,.0f} events/s, floor {floor:,.0f}")
        ok = ok and throughput >= floor
    return "PASS" if ok else "FAIL"


def check_overhead(row, records):
    best = {False: None, True: None}
    scenario = records[0].get("scenario")
    for record in records:
        if record.get("scenario") != scenario:
            raise Malformed(
                f"runs cover scenarios '{scenario}' and '{record.get('scenario')}'"
            )
        arm = field(record, "obs_enabled")
        if not isinstance(arm, bool):
            raise Malformed(f"'obs_enabled' is not a boolean (got {arm!r})")
        throughput = number(record, "events_per_sec")
        best[arm] = throughput if best[arm] is None else max(best[arm], throughput)
    if best[False] is None or best[True] is None:
        raise Malformed("needs at least one obs-off and one obs-on run")
    budget = load_budget(row)
    if budget.get("scenario") != scenario:
        raise Malformed(f"{row['budget']} covers '{budget.get('scenario')}', not '{scenario}'")
    off, on = best[False], best[True]
    overhead = (1.0 - on / off) * 100.0 if off > 0 else 0.0
    allowance = row["max_overhead_pct"]
    print(f"  obs-off {off:,.0f} events/s, obs-on {on:,.0f}: overhead "
          f"{overhead:+.2f}%, allowance {allowance:.2f}%")
    ok = overhead <= allowance
    if "min_events_per_sec" in budget:
        floor = number(budget, "min_events_per_sec")
        print(f"  obs-off floor {floor:,.0f} events/s")
        ok = ok and off >= floor
    return "PASS" if ok else "FAIL"


def check_drift(row, records):
    (record,) = records
    budget = load_budget(row)
    name = field(budget, "scenario")
    skew = field(budget, "skew")
    ceiling = number(budget, "max_abs_continuity_delta")
    min_reps = budget.get("min_reps", 1)
    if record.get("axis") != "skews":
        raise Malformed(f"record varies axis {record.get('axis')!r}, not 'skews'")
    reps = record.get("reps")
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < min_reps:
        raise Malformed(f"reps={reps!r}, the budget needs >= {min_reps}")
    scenarios = objects(field(record, "scenarios"), "scenarios")
    scenario = next((s for s in scenarios if s.get("scenario") == name), None)
    if scenario is None:
        raise Malformed(f"no scenario '{name}'")
    exact = number(scenario, "exact", "continuity")
    points = objects(field(scenario, "points"), f"{name}.points")
    target = next((p for p in points if p.get("skew") == skew), None)
    if target is None:
        raise Malformed(f"no skew={skew} point for '{name}'")
    delta = number(target, "continuity_delta")
    print(f"  {name} skew {skew}, {reps} reps: continuity "
          f"{target.get('continuity')} vs exact {exact}, drift {delta:+.6f}, "
          f"ceiling |drift| <= {ceiling:.6f}")
    return "PASS" if abs(delta) <= ceiling else "FAIL"


# Each check returns its verdict, one of PASSING or "FAIL", and raises
# Malformed on input it cannot evaluate.
CHECKS = {
    "scaling": check_scaling,
    "budget": check_budget,
    "overhead": check_overhead,
    "drift": check_drift,
    "record": lambda row, records: "RECORDED",
}
PASSING = ("PASS", "NOT ARMED", "RECORDED")


def load_manifest():
    manifest = load_json(MANIFEST)
    rows = objects(field(manifest, "rows"), "rows")
    seen = set()
    for row in rows:
        name = row.get("name")
        if not isinstance(name, str) or name in seen:
            raise Malformed(f"row name {name!r} is missing or repeated")
        seen.add(name)
        kind = row.get("check")
        if kind not in CHECKS:
            raise Malformed(f"row '{name}' has unknown check {kind!r}")
        runs = row.get("runs")
        if not isinstance(runs, list) or not runs or not all(
            isinstance(run, list) and run and all(isinstance(a, str) for a in run)
            for run in runs
        ):
            raise Malformed(f"row '{name}' needs 'runs', a list of argument lists")
        if kind in ("scaling", "budget", "drift") and len(runs) != 1:
            raise Malformed(f"row '{name}': a {kind} check reads exactly one run")
        for key in BOUND_FIELDS[kind]:
            value = row.get(key)
            valid = isinstance(value, str) if key == "budget" else (
                isinstance(value, (int, float)) and not isinstance(value, bool))
            if not valid:
                raise Malformed(f"row '{name}' needs its bound '{key}'")
        if kind != "record" and not isinstance(row.get("provenance"), str):
            raise Malformed(f"row '{name}' needs a 'provenance' string")
    return rows


def run_row(row, bin_dir, out_dir):
    """Runs the row's commands; returns their parsed JSON records."""
    runs = row["runs"]
    records = []
    for i, argv in enumerate(runs, 1):
        suffix = f"_{i}" if len(runs) > 1 else ""
        out_path = out_dir / f"{row['name']}{suffix}.json"
        command = [str(bin_dir / argv[0])] + argv[1:]
        print(f"  $ {' '.join(argv)} > {out_path}", flush=True)
        try:
            with open(out_path, "w", encoding="utf-8") as out:
                code = subprocess.run(command, stdout=out, cwd=bin_dir).returncode
        except OSError as error:
            raise BenchFailed(f"cannot run {argv[0]}: {error.strerror}") from None
        if code != 0:
            raise BenchFailed(f"{argv[0]} exited {code}")
        records.append(load_json(out_path))
    if row["check"] != "record" and not all(isinstance(r, dict) for r in records):
        raise Malformed("a record is not a JSON object")
    return records


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--bin", default="build", help="directory of the bench binaries")
    parser.add_argument("--out", default="build/bench-json", help="directory for the records")
    parser.add_argument("rows", nargs="*", help="rows to run (default: all)")
    try:
        args = parser.parse_args()
    except SystemExit as exit_:
        return 0 if exit_.code == 0 else 2

    try:
        rows = load_manifest()
        unknown = sorted(set(args.rows) - {row["name"] for row in rows})
        if unknown:
            raise Malformed(f"no row named {', '.join(unknown)} in {MANIFEST}")
        bin_dir = Path(args.bin).resolve()
        out_dir = Path(args.out).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
    except (Malformed, OSError) as error:
        print(f"bench gates: {error}", file=sys.stderr)
        return 2

    verdicts = []
    for row in rows:
        if args.rows and row["name"] not in args.rows:
            continue
        bound = "".join(f" {key}={row[key]}" for key in BOUND_FIELDS[row["check"]])
        print(f"== {row['name']} [{row['check']}]{bound}")
        if "provenance" in row:
            print(f"  provenance: {row['provenance']}")
        try:
            records = run_row(row, bin_dir, out_dir)
            verdict = CHECKS[row["check"]](row, records)
        except BenchFailed as error:
            verdict = f"BENCH FAILED ({error})"
        except (Malformed, KeyError, TypeError, ValueError, AttributeError) as error:
            verdict = f"MALFORMED ({error})"
        print(f"  -> {verdict}", flush=True)
        verdicts.append((row["name"], verdict))

    print("\nbench gates:")
    for name, verdict in verdicts:
        print(f"  {name:<28} {verdict}")
    if any(v.startswith("MALFORMED") for _, v in verdicts):
        return 2
    return 0 if all(v in PASSING for _, v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
