#!/usr/bin/env python3
"""Windowed-engine drift-budget gate.

Reads a bench_lax_divergence JSON record and FAILS (exit 1) when the
windowed engine's mean-continuity drift versus the exact engine exceeds
the committed budget:

    check_drift.py --budget bench/budgets/drift_q1_static_1k.json <bench_json>

The budget file pins (scenario, skew, max_abs_continuity_delta): the
record must contain that scenario, its exact-engine baseline, and a
point at that skew, all measured live in the same CI run — the gate never
compares against committed measurements, per the BENCHMARKS.md
philosophy. Deltas are mean-vs-mean over matched replication seeds
(the bench's protocol); ``min_reps`` in the budget rejects records
sampled too thinly to mean anything.

Exit codes: 0 gate passed, 1 drift over budget, 2 usage / malformed
input.
"""

import argparse
import json
import sys


def load_budget(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        budget = json.load(fh)
    for key in ("scenario", "skew", "max_abs_continuity_delta"):
        if key not in budget:
            raise ValueError(f"budget {path} is missing '{key}'")
    return budget


def check_record(path: str, budget: dict) -> bool:
    """Returns True when the record passes the budget."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)

    scenario_name = str(budget["scenario"])
    skew = int(budget["skew"])
    ceiling = float(budget["max_abs_continuity_delta"])
    min_reps = int(budget.get("min_reps", 1))

    reps = record.get("reps")
    if not isinstance(reps, int) or reps < min_reps:
        raise ValueError(
            f"{path} was sampled with reps={reps!r}, budget requires >= "
            f"{min_reps} — a thin sample measures noise, not drift"
        )

    scenarios = record.get("scenarios")
    if not isinstance(scenarios, list) or not all(
        isinstance(s, dict) for s in scenarios
    ):
        raise ValueError(f"'scenarios' is not a list of objects in {path}")
    scenario = next(
        (s for s in scenarios if s.get("scenario") == scenario_name), None
    )
    if scenario is None:
        raise ValueError(f"no scenario '{scenario_name}' in {path}")

    exact = scenario.get("exact")
    if not isinstance(exact, dict) or not isinstance(
        exact.get("continuity"), (int, float)
    ):
        raise ValueError(
            f"scenario '{scenario_name}' in {path} has no exact baseline"
        )

    points = scenario.get("points")
    if not isinstance(points, list) or not all(
        isinstance(p, dict) for p in points
    ):
        raise ValueError(
            f"'points' is not a list of objects for '{scenario_name}' in {path}"
        )

    target = next((p for p in points if p.get("skew") == skew), None)
    if target is None:
        raise ValueError(f"no skew={skew} point for '{scenario_name}' in {path}")
    delta = target.get("continuity_delta")
    if not isinstance(delta, (int, float)):
        raise ValueError(
            f"skew={skew} point for '{scenario_name}' in {path} has no "
            f"numeric 'continuity_delta' (got {delta!r})"
        )

    print(
        f"drift gate [{scenario_name} skew={skew}, reps={reps}]: mean "
        f"continuity {target.get('continuity')} vs exact "
        f"{exact['continuity']}, drift {delta:+.6f}, budget "
        f"|delta| <= {ceiling:.6f}"
    )
    if abs(float(delta)) <= ceiling:
        return True
    print(
        f"drift gate [{scenario_name} skew={skew}]: FAIL — mean "
        f"continuity drifted {delta:+.6f}, over the {ceiling:.6f} "
        f"budget. Either the window drain grew a reordering bug or the "
        f"approximation genuinely coarsened; re-measure locally with "
        f"bench_lax_divergence and either fix the drain or justify a "
        f"budget change in the same PR.",
        file=sys.stderr,
    )
    return False


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("bench", help="bench_lax_divergence JSON file")
    parser.add_argument(
        "--budget", required=True, help="drift budget JSON file"
    )
    args = parser.parse_args()

    try:
        budget = load_budget(args.budget)
        passed = check_record(args.bench, budget)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        # Broad on purpose: any shape surprise (truncated bench run,
        # nulled field, wrong type) must print a diagnosis and exit 2,
        # never a raw traceback.
        print(f"drift gate: cannot evaluate: {error}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
