#!/usr/bin/env python3
"""Memory-footprint and throughput regression gate.

Compares a bench_large_session JSON record against a checked-in budget
file and fails (exit 1) when bytes-per-node exceeds the budget OR
events-per-second falls below the floor — so neither a container
regression nor a wall-clock regression can land silently.

    check_budget.py <bench_json> <budget_json>

The bench JSON is one bench_large_session stdout line; the budget file
holds {"scenario": ..., "max_per_node_bytes": ..., and optionally
"min_events_per_sec": ... and "max_engine_bytes_per_node": ...}. The
throughput floor is skipped when the budget file does not set one. The
engine ceiling bounds memory.engine_bytes (event queue plus pending
quantized deliveries, kept outside the per-node total) divided by the
measured node count; a record without memory.engine_bytes cannot be
evaluated against it (exit 2).

Exit codes: 0 within budget, 1 budget regression, 2 usage / malformed
or unreadable input.
"""

import json
import sys


def check(bench_path: str, budget_path: str) -> int:
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(budget_path, encoding="utf-8") as fh:
        budget = json.load(fh)

    if bench.get("scenario") != budget.get("scenario"):
        print(
            f"budget gate: scenario mismatch — bench ran "
            f"'{bench.get('scenario')}' but budget covers "
            f"'{budget.get('scenario')}'",
            file=sys.stderr,
        )
        return 2

    measured = float(bench["memory"]["per_node_bytes"])
    limit = float(budget["max_per_node_bytes"])
    sections = {
        key: bench["memory"].get(key, 0)
        for key in ("buffer_bytes", "neighbor_bytes", "dht_bytes", "inflight_bytes")
    }
    print(
        f"budget gate [{bench['scenario']}]: measured {measured:.1f} B/node, "
        f"budget {limit:.1f} B/node"
    )
    for key, value in sections.items():
        nodes = max(int(bench["memory"].get("measured_nodes", 1)), 1)
        print(f"  {key:>15}: {value / nodes:8.1f} B/node")

    failed = False
    if measured > limit:
        print(
            f"budget gate: FAIL — {measured:.1f} exceeds the checked-in "
            f"budget of {limit:.1f} B/node. If the growth is intentional, "
            f"raise {budget_path} in the same PR with a justification.",
            file=sys.stderr,
        )
        failed = True

    engine_limit = budget.get("max_engine_bytes_per_node")
    if engine_limit is not None:
        nodes = max(int(bench["memory"].get("measured_nodes", 1)), 1)
        engine = float(bench["memory"]["engine_bytes"]) / nodes
        print(
            f"budget gate [{bench['scenario']}]: measured engine "
            f"{engine:.1f} B/node, budget {float(engine_limit):.1f} B/node"
        )
        if engine > float(engine_limit):
            print(
                f"budget gate: FAIL — engine memory {engine:.1f} B/node "
                f"exceeds the checked-in budget of {float(engine_limit):.1f}. "
                f"If the growth is intentional, raise {budget_path} in the "
                f"same PR with a justification.",
                file=sys.stderr,
            )
            failed = True

    floor = budget.get("min_events_per_sec")
    if floor is not None:
        throughput = float(bench["events_per_sec"])
        print(
            f"budget gate [{bench['scenario']}]: measured "
            f"{throughput:,.0f} events/s, floor {float(floor):,.0f} events/s"
        )
        if throughput < float(floor):
            print(
                f"budget gate: FAIL — {throughput:,.0f} events/s is below "
                f"the checked-in floor of {float(floor):,.0f}. If the "
                f"slowdown is intentional, lower {budget_path} in the same "
                f"PR with a justification.",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("budget gate: OK")
    return 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        return check(sys.argv[1], sys.argv[2])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        # Unreadable file, malformed JSON, or a record missing/mistyping
        # a required field (memory.per_node_bytes, max_per_node_bytes,
        # events_per_sec, ...): the documented exit 2 with a pointer at
        # the culprit, never a raw traceback in the CI log.
        print(
            f"budget gate: cannot evaluate {sys.argv[1]} against "
            f"{sys.argv[2]}: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
