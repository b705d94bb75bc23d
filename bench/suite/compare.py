#!/usr/bin/env python3
"""Compares two benchmark records under the bounds in BENCHMARK.json.

    compare.py BASE.json HEAD.json [--base-set N] [--head-set N]

BASE and HEAD are records written by `run.py --out` with the same seed.
Rep i of BASE is paired with rep i of HEAD, per workload, in run order;
collect them interleaved (see README.md). --base-set / --head-set pick one
set of a record instead of all of them, e.g. to compare the two
back-to-back sets of one record with each other.

Each (end-to-end metric, workload) pair gets one label:

  unresolved  fewer than 10 pairs; or BASE's own spread (IQR / median)
              is wider than the bound and not every HEAD rep beats every
              BASE rep
  regressed   HEAD's median is worse than BASE's by more than the bound
  improved    HEAD wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than BASE's IQR
  no change   anything else

More failed sessions in HEAD than in BASE is a regression too.

Exit codes: 0 no regression, 1 at least one regression, 2 usage error or
malformed input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


class InputError(Exception):
    pass


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def samples(record, path, chosen_set, metrics):
    """{workload: {metric: [values in run order]}}, and the record's
    failed-session count per workload (over all of its sets)."""
    try:
        sets = record["sets"]
        if chosen_set is not None:
            if not 0 <= chosen_set < len(sets):
                raise InputError(f"{path}: no set {chosen_set} (it has {len(sets)})")
            sets = [sets[chosen_set]]
        values = {}
        for one_set in sets:
            for rep in one_set["reps"]:
                if "error" not in rep:
                    per = values.setdefault(rep["workload"], {m: [] for m in metrics})
                    for m in metrics:
                        per[m].append(float(rep[m]))
        failed = {w: int(s["failed"]) for w, s in record["summary"].items()}
        return values, failed
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a run.py record ({exc!r})") from exc


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def label(base, head, bound, lower_is_better):
    n = min(len(base), len(head))
    if n < MIN_PAIRS:
        return "unresolved", f"{n} pairs < {MIN_PAIRS}"
    sign = 1.0 if lower_is_better else -1.0
    mb, mh = statistics.median(base), statistics.median(head)
    worse = sign * (mh - mb) / mb
    spread = iqr(base) / mb
    all_better = (max(head) < min(base)) if lower_is_better else (min(head) > max(base))
    wins = sum(1 for b, h in zip(base[:n], head[:n]) if sign * (h - b) < 0)
    detail = f"{worse:+.1%} worse, base spread {spread:.1%}, wins {wins}/{n}"
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    if wins >= WIN_SHARE * n and sign * (mb - mh) > iqr(base):
        return "improved", detail
    return "no change", detail


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--base-set", type=int)
    parser.add_argument("--head-set", type=int)
    args = parser.parse_args(argv)
    try:
        spec = load_json(Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json")
        e2e = spec["end_to_end"]
        names = [m["name"] for m in e2e]
        base_rec, head_rec = load_json(args.base), load_json(args.head)
        base, base_failed = samples(base_rec, args.base, args.base_set, names)
        head, head_failed = samples(head_rec, args.head, args.head_set, names)
        if base_rec["seed"] != head_rec["seed"]:
            raise InputError(f"seeds differ: {base_rec['seed']} vs {head_rec['seed']}")
        if sorted(base_failed) != sorted(head_failed):
            raise InputError(f"records cover different workloads: "
                             f"{sorted(base_failed)} vs {sorted(head_failed)}")
    except InputError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2

    regressions = 0
    for workload in sorted(base_failed):
        if head_failed[workload] > base_failed[workload]:
            regressions += 1
            print(f"{workload:10s} failed sessions {base_failed[workload]} -> "
                  f"{head_failed[workload]}: regressed")
        for m in e2e:
            b = base.get(workload, {}).get(m["name"], [])
            h = head.get(workload, {}).get(m["name"], [])
            verdict, detail = label(b, h, m["bound"], m["better"] == "lower")
            regressions += verdict == "regressed"
            mb = f"{statistics.median(b):.6g}" if b else "-"
            mh = f"{statistics.median(h):.6g}" if h else "-"
            print(f"{workload:10s} {m['name']:12s} {mb:>12s} -> {mh:<12s} {m['unit']:4s} "
                  f"bound {m['bound']:.0%}: {verdict} ({detail})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
