"""Property-based fingerprint/remap coverage over seeded random queries.

The example-based tests in ``test_service.py`` pin specific regressions;
these sweeps assert the *properties* the serving layer is built on, over a
few hundred seeded random queries spanning every join-graph topology:

* fingerprint invariance under relation relabeling, predicate reordering,
  and predicate endpoint swaps (none of which change query semantics);
* worker-count independence: every requested parallelism level shares
  one fingerprint, since ``workers`` only bounds the partition count;
* remap round-trips: relabeling a plan through a permutation and back is
  the identity, canonical numbering is a true permutation, and serving an
  isomorphic request yields plans in the requester's own numbering.

Everything is seeded — a failure reproduces with the printed seed.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    OptimizerSettings,
)
from repro.core.serial import optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.service import OptimizerService, canonicalize, fingerprint
from repro.service.remap import invert, remap_mask, remap_plan
from tests.test_service import permute_query, shuffled

KINDS = (
    JoinGraphKind.STAR,
    JoinGraphKind.CHAIN,
    JoinGraphKind.CYCLE,
    JoinGraphKind.CLIQUE,
)

SETTINGS_VARIANTS = (
    OptimizerSettings(),
    OptimizerSettings(consider_orders=True),
    OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0),
    OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
)


def random_queries(count: int, seed: int, tables=(3, 8)):
    """``count`` seeded random queries cycling topologies and sizes."""
    rng = random.Random(seed)
    generator = SteinbrunnGenerator(seed)
    return [
        generator.query(rng.randint(*tables), KINDS[index % len(KINDS)])
        for index in range(count)
    ]


def reorder_predicates(query: Query, seed: int) -> Query:
    """Shuffle predicate order and swap random predicates' endpoints."""
    rng = random.Random(seed)
    predicates = list(query.predicates)
    rng.shuffle(predicates)
    swapped = tuple(
        dataclasses.replace(
            predicate,
            left_table=predicate.right_table,
            left_column=predicate.right_column,
            right_table=predicate.left_table,
            right_column=predicate.left_column,
        )
        if rng.random() < 0.5
        else predicate
        for predicate in predicates
    )
    return Query(tables=query.tables, predicates=swapped, name=query.name)


class TestFingerprintInvariance:
    def test_invariant_under_relabeling_200_queries(self):
        # The headline sweep: ~200 queries x several permutations each.
        settings = OptimizerSettings()
        for index, query in enumerate(random_queries(200, seed=101)):
            reference = fingerprint(query, settings)
            for permutation_seed in range(3):
                relabeled = permute_query(
                    query, shuffled(query.n_tables, seed=permutation_seed)
                )
                assert fingerprint(relabeled, settings) == reference, (
                    f"query #{index} ({query.name}) fingerprint changed under "
                    f"permutation seed {permutation_seed}"
                )

    def test_invariant_under_predicate_rewrites(self):
        settings = OptimizerSettings()
        for index, query in enumerate(random_queries(100, seed=102)):
            reference = fingerprint(query, settings)
            for rewrite_seed in range(3):
                rewritten = reorder_predicates(query, seed=rewrite_seed)
                assert fingerprint(rewritten, settings) == reference, (
                    f"query #{index} fingerprint changed under predicate "
                    f"rewrite seed {rewrite_seed}"
                )

    def test_invariant_under_combined_rewrites_across_settings(self):
        # Permute AND rewrite predicates, under every settings variant.
        for index, query in enumerate(random_queries(48, seed=103)):
            mangled = reorder_predicates(
                permute_query(query, shuffled(query.n_tables, seed=index)),
                seed=index,
            )
            for settings in SETTINGS_VARIANTS:
                assert fingerprint(query, settings) == fingerprint(
                    mangled, settings
                ), f"query #{index} under {settings}"

    def test_distinct_settings_never_collide(self):
        for query in random_queries(24, seed=104):
            keys = {
                fingerprint(query, settings) for settings in SETTINGS_VARIANTS
            }
            assert len(keys) == len(SETTINGS_VARIANTS)

    def test_worker_counts_always_share_keys(self):
        # ``workers`` is an upper bound on the partition count, not part of
        # the key: MPQ's frontier does not depend on the partition count,
        # so every worker count (and none) names the one cache entry.
        rng = random.Random(105)
        for index, query in enumerate(random_queries(100, seed=105)):
            settings = SETTINGS_VARIANTS[index % len(SETTINGS_VARIANTS)]
            workers_a = rng.randint(1, 64)
            workers_b = rng.randint(1, 64)
            key = fingerprint(query, settings)
            assert fingerprint(query, settings, workers_a) == key, (
                f"query #{index}: workers {workers_a} changed the key"
            )
            assert fingerprint(query, settings, workers_b) == key, (
                f"query #{index}: workers {workers_b} changed the key"
            )

    def test_memoized_canonicalization_matches_fresh(self):
        # The hot-path memo must be an invisible optimization: a fresh
        # equal-content query object canonicalizes to the identical form.
        for query in random_queries(24, seed=106):
            twin = Query(
                tables=query.tables, predicates=query.predicates, name="twin"
            )
            first = canonicalize(query)
            second = canonicalize(twin)
            assert first.encoding == second.encoding
            assert first.numbering == second.numbering


class TestCanonicalNumbering:
    def test_numbering_is_a_permutation(self):
        for query in random_queries(100, seed=107):
            numbering = canonicalize(query).numbering
            assert sorted(numbering) == list(range(query.n_tables))
            assert invert(invert(numbering)) == numbering

    def test_isomorphic_queries_map_to_one_canonical_query(self):
        # numbering(q) and numbering(permuted q) compose to the permutation.
        for index, query in enumerate(random_queries(48, seed=108)):
            permutation = shuffled(query.n_tables, seed=index)
            relabeled = permute_query(query, permutation)
            numbering = canonicalize(query).numbering
            relabeled_numbering = canonicalize(relabeled).numbering
            for original in range(query.n_tables):
                assert (
                    relabeled_numbering[permutation[original]]
                    == numbering[original]
                )


class TestRemapRoundTrips:
    def test_mask_round_trip_under_random_permutations(self):
        rng = random.Random(109)
        for n_tables in range(1, 12):
            for __ in range(20):
                permutation = shuffled(n_tables, seed=rng.randint(0, 10_000))
                mask = rng.randint(0, (1 << n_tables) - 1)
                there = remap_mask(mask, permutation)
                assert remap_mask(there, invert(permutation)) == mask
                assert bin(there).count("1") == bin(mask).count("1")

    def test_plan_round_trip_on_real_frontiers(self):
        # Real DP output (multi-objective, so frontiers have several plans):
        # remapping there and back must reproduce the identical plan values.
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE)
        for index, query in enumerate(random_queries(24, seed=110, tables=(3, 6))):
            plans = optimize_serial(query, settings).plans
            assert plans
            permutation = shuffled(query.n_tables, seed=index)
            for plan in plans:
                there = remap_plan(plan, permutation)
                assert remap_plan(there, invert(permutation)) == plan
                assert there.cost == plan.cost

    def test_service_serves_permuted_requests_in_their_numbering(self):
        # End to end: optimize a query, then request a permuted copy; the
        # hit must come back renumbered for the permuted query.
        with OptimizerService(n_workers=4) as service:
            for index, query in enumerate(
                random_queries(16, seed=111, tables=(4, 6))
            ):
                original = service.optimize(query)
                permuted = permute_query(
                    query, shuffled(query.n_tables, seed=index)
                )
                served = service.optimize(permuted)
                assert served.cached
                assert served.fingerprint == original.fingerprint
                assert served.best.mask == permuted.all_tables_mask
                assert served.best.cost[0] == pytest.approx(
                    original.best.cost[0], rel=1e-9
                )
