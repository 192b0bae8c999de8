"""MPQ's final frontier does not depend on the partition count.

This is the invariant that lets a plan-cache key leave parallelism out:
a request for any worker count may be served from an entry computed at any
other partition count.  Checked at 1, 2, 4 and 8 partitions against the
serial DP, for plain, interesting-order and parametric settings in both
plan spaces:

* plain and orders — the best cost and every frontier cost, exactly;
* parametric — the same lower envelope, within the 1e-9 relative tie
  slack of :mod:`repro.cost.parametric`.  Row counts accumulated in a
  different join order can differ in the last float bits, so partitions
  may keep a different one of two tied plans; the envelope they span is
  the same.
"""

from __future__ import annotations

import pytest

from repro.algorithms.mpq import optimize_mpq
from repro.config import PARAMETRIC_OBJECTIVES, OptimizerSettings, PlanSpace
from repro.core.serial import best_plan, optimize_serial
from repro.cost.parametric import candidate_thetas, scalarize
from repro.cost.pruning import final_prune, make_pruning
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind

PARTITION_COUNTS = (1, 2, 4, 8)

#: Query sizes at which each space admits 8 partitions (2^(n//2) linear,
#: 2^(n//3) bushy), with the join graphs swept per space; the bushy sweep
#: is narrower because 9-table bushy DP with orders takes seconds.
CASES = (
    (PlanSpace.LINEAR, 7, tuple(JoinGraphKind)),
    (PlanSpace.BUSHY, 9, (JoinGraphKind.STAR,)),
)

FEATURES = {
    "plain": {},
    "orders": {"consider_orders": True},
    "parametric": {"objectives": PARAMETRIC_OBJECTIVES, "parametric": True},
}


def serial_reference(query, settings):
    """The serial DP's best cost and its frontier costs after the final prune."""
    serial = optimize_serial(query, settings)
    pruning = make_pruning(settings, n_tables=query.n_tables)
    frontier = final_prune(pruning, [serial.plans])
    return best_plan(serial).cost, sorted(plan.cost for plan in frontier)


def envelope_gap(costs, reference):
    """Largest relative gap between two cost sets' lower envelopes.

    Both envelopes are minima of lines over θ, so they agree everywhere iff
    they agree at θ = 0, 1 and every pairwise crossing of the union.
    """
    gap = 0.0
    for theta in candidate_thetas([*costs, *reference]):
        ours = min(scalarize(cost, theta) for cost in costs)
        theirs = min(scalarize(cost, theta) for cost in reference)
        gap = max(gap, abs(ours - theirs) / max(1.0, abs(theirs)))
    return gap


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize(
    "space, n_tables, kinds", CASES, ids=[case[0].value for case in CASES]
)
def test_frontier_is_independent_of_partition_count(
    feature, space, n_tables, kinds
):
    settings = OptimizerSettings(plan_space=space, **FEATURES[feature])
    generator = SteinbrunnGenerator(41, clustered_tables=True)
    for kind in kinds:
        query = generator.query(n_tables, kind)
        reference_best, reference_costs = serial_reference(query, settings)
        for partitions in PARTITION_COUNTS:
            report = optimize_mpq(query, partitions, settings)
            label = f"{space.value} {feature} {kind.value} at {partitions}"
            assert report.n_partitions == partitions, label
            costs = sorted(plan.cost for plan in report.plans)
            if settings.parametric:
                assert envelope_gap(costs, reference_costs) <= 1e-9, label
            else:
                assert costs == reference_costs, label
                assert report.best.cost == reference_best, label
