"""Quality pin: PCAPS with ``P'`` as a draw mask against the retired loop.

PCAPS used to enforce the Section 5.1 parallelism cap ``P'`` by rejection:
it sampled from the whole frontier, the engine blocked a pick already
running ``P'`` tasks, and PCAPS re-scored, re-normalized and re-drew a
shrinking frontier. It now masks capped stages before one draw, keeping
them in the softmax and in Definition 4.2's ``r = p_v / max_{u in A_t}
p_u``. That changes RNG consumption, so schedules cannot match the old
ones; instead this pins that quality did not get worse across seeds.

``data/pcaps_rejection_loop_pin.json`` holds per-seed ``(carbon, ECT)``
of the retired loop on the Fig. 11 config (DE, standalone, 40 executors,
25 TPC-H jobs, 45 s mean interarrival, seeds 0–29, γ ∈ {0.5, 0.9}),
recorded once at the last commit that had the loop. It cannot be
re-recorded: the same trials now measure the masked scheduler
(``conftest.pinned_quality_changes`` runs them). Measured when the mask
landed (paired mean ± standard error over the 30 seeds):

=====  =================  =================
γ      carbon change      ECT change
=====  =================  =================
0.5    −3.81% ± 0.29%     +0.15% ± 0.14%
0.9    −3.65% ± 0.59%     +15.87% ± 1.64%
=====  =================  =================

The γ=0.9 ECT shift comes from normalizing importance over the full
``A_t``: capped bottleneck stages keep their probability mass, so the
side stages PCAPS draws stay unimportant and are deferred more often.
The loop instead re-normalized over the rows it had not yet blocked,
which inflated their importance. A mask variant that takes the maximum
over the growable rows only goes further the other way: carbon +4.25% ±
0.63% and ECT −0.94% ± 0.91% at γ=0.5, carbon +12.57% ± 1.34% and ECT
−16.43% ± 1.71% at γ=0.9. The test holds carbon to "no worse" at both γ
and ECT to ±1% at γ=0.5.
"""

from __future__ import annotations

import pytest

from conftest import pinned_quality_changes


@pytest.fixture(scope="module")
def changes() -> dict[str, tuple[float, float]]:
    """Per γ: paired mean relative change of (carbon, ECT) vs the pin."""
    return pinned_quality_changes(
        "pcaps_rejection_loop_pin.json",
        "gammas",
        lambda gamma: {"scheduler": "pcaps", "gamma": float(gamma)},
    )


@pytest.mark.parametrize("gamma", ["0.5", "0.9"])
def test_carbon_no_worse_than_the_rejection_loop(changes, gamma):
    assert changes[gamma][0] <= 0.0


def test_ect_within_one_percent_at_moderate_gamma(changes):
    assert abs(changes["0.5"][1]) <= 0.01
