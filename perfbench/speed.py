"""Machine-speed probe.

The benchmark shares its host with other tenants, and their load changes
the speed of this machine for tens of seconds at a time. On the machine the
benchmark was defined on, a fixed pure-Python loop took between 68 and
240 ms per million iterations while nothing else of ours ran, with the same
CPU time as wall time. Whole runs landed in fast or slow stretches, so
run-to-run spreads of raw wall times reached 20-65%.

Every timed stretch (a pass of a workload, one fresh interpreter) is
therefore bracketed by a fixed probe workload that does not depend on the
program. Times are reported at reference speed:

    measured time x REFERENCE_S / (mean probe time around the stretch)

On a quiet machine the factor is about 1. A slower program still reads
slower, because the probe does not change with the program. Runs print
the median factor, and traced runs report raw wall times.
"""

from __future__ import annotations

import json
import statistics
from decimal import ROUND_HALF_UP, Decimal
from time import perf_counter

# Median probe time of the defining machine (2 vCPUs, x86_64, Linux,
# Python 3.11.7) at its quiet speed.
REFERENCE_S = 0.00195

_CENT = Decimal("0.01")
_DOC = json.dumps([{"name": f"item-{i}", "value": i * 0.37, "tags": [i, i + 1]}
                   for i in range(40)])


def _probe_once() -> float:
    """About 2 ms of the work the package does: JSON, Decimal rounding,
    string formatting and splitting, small dicts and lists."""
    start = perf_counter()
    total = Decimal(0)
    for _ in range(10):
        rows = json.loads(_DOC)
        for row in rows:
            total += Decimal(repr(row["value"])).quantize(_CENT, rounding=ROUND_HALF_UP)
            cells = f"{row['name']} | {row['value']:.2f} | {len(row['tags'])}".split("|")
            row["cells"] = [c.strip() for c in cells]
        json.dumps(rows)
    return perf_counter() - start


def probe_s() -> float:
    return statistics.median(_probe_once() for _ in range(3))


class Speed:
    """Scale factors for consecutive timed stretches."""

    def __init__(self):
        self.last = probe_s()
        self.factors: list[float] = []

    def factor(self) -> float:
        """The factor for the stretch since the previous call (or creation)."""
        now = probe_s()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
