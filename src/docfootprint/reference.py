"""Known divergences from the bundled reference assessment.

The packaged configs reproduce a published sustainability assessment.
A handful of its table values cannot be derived from its own stated
inputs and conventions; each such case is recorded here with the value
we compute instead, and the acceptance suite asserts both our value
and the presence of the record.

Also worth knowing, though not a table deviation: the two bundled
profiles carry per-token energy rates 125x apart (0.24 vs 30 Wh per
1,000 tokens). Each reproduces a different part of the assessment and
no reconciliation between them is attempted.
"""

from __future__ import annotations

from .core import _Record


class Deviation(_Record):
    """A published figure this tool does not reproduce, and why."""

    key: str
    quantity: str
    published: tuple[float, float] | float
    computed: tuple[float, float] | float
    note: str

    def __init__(self, key, quantity, published, computed, note):
        self._store(key, quantity, published, computed, note)


DEVIATIONS: tuple[Deviation, ...] = (
    Deviation(
        key="manual-water-lower-bound",
        quantity="manual scenario daily water (L/day)",
        published=(35.1, 58.4),
        computed=(6.5, 58.4),
        note="The reference pairs maximum energy with minimum WUE for this one "
             "lower bound (194.7 x 0.18 = 35.1) while every other water range "
             "is endpoint-matched. We apply the endpoint-matched convention "
             "uniformly: 36.3 x 0.18 = 6.5.",
    ),
    Deviation(
        key="agentic-daily-energy",
        quantity="agentic scenario daily energy (kWh/day)",
        published=(9.8, 20.5),
        computed=(10.1, 20.2),
        note="0.001345 kWh/doc x 5,000 docs plus the 7-28 operator laptop range "
             "gives [10.085, 20.165]. The published range is not derivable from "
             "the stated per-document energies; ours is within 5%.",
    ),
    Deviation(
        key="manual-operator-count",
        quantity="manual scenario operators",
        published=(70.0, 400.0),
        computed=(69.0, 411.0),
        note="The ceiling formula over 14-84 docs/operator-day at a 15% buffer "
             "yields [69, 411]; the published [70, 400] is irregular rounding. "
             "Reproduction configs pin the published range via "
             "operators_override; the formula result stays within 3%.",
    ),
    Deviation(
        key="hitl-water-reduction-pct",
        quantity="HITL vs manual water reduction (%)",
        published=(94.0, 97.0),
        computed=(83.0, 92.0),
        note="Under endpoint-matched scaling, water reduction equals energy "
             "reduction, giving [83, 92]. The published row matches no pairing "
             "convention tried; the closest derivation, using the published "
             "water rows including the 35.1 bound, gives [92, 97].",
    ),
    Deviation(
        key="agentic-water-reduction-pct",
        quantity="agentic vs manual water reduction (%)",
        published=(91.0, 97.0),
        computed=(73.0, 90.0),
        note="Same convention mismatch as the HITL water row; deriving from the "
             "published water rows instead gives [89, 95].",
    ),
    Deviation(
        key="usecase-wh-equivalence",
        quantity="use-case extraction energy (Wh)",
        published=1286.0,
        computed=357.18,
        note="The reference prose equates 0.3572 kWh with approximately "
             "1,286 Wh, which is internally inconsistent (0.3572 kWh is "
             "357.18 Wh; 1,286 Wh only appears via a 1,000 W laptop-minutes "
             "comparison). We reproduce 0.3572 kWh.",
    ),
)

_BY_KEY = {d.key: d for d in DEVIATIONS}


def get_deviation(key: str) -> Deviation | None:
    """Look up a deviation record by key, or None if we track no such case."""
    return _BY_KEY.get(key)
