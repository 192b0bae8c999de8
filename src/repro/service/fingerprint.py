"""Query canonicalization and fingerprinting for the optimizer service.

A service that caches optimization results needs a cache key that is stable
under the *accidents* of query construction: the order in which relations are
listed (their table numbers) carries no semantics, so two queries that differ
only by a relation permutation must map to the same key.  Table and query
*names* are likewise excluded — they are aliases, not statistics — while
everything the optimizer actually consumes (cardinalities, row widths,
column domains, clustering, predicate endpoints and selectivities, and the
:class:`~repro.config.OptimizerSettings`) is hashed in.

Canonicalization uses color refinement (1-WL) over the join graph seeded
with per-table statistic signatures, followed by individualization on
remaining symmetric classes; the canonical form is the lexicographically
smallest encoding over all explored branches.  For the symmetric cases where
the search could explode, branch exploration is capped — capping can only
cost cache *hits* (two labelings of a pathologically symmetric query may
canonicalize differently), never correctness: a cache hit requires equal
canonical encodings, and equal encodings certify that both queries are
isomorphic to the same canonical query, which is exactly what plan
remapping (:mod:`repro.service.remap`) relies on.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import lru_cache

from repro.config import OptimizerSettings
from repro.query.query import Query
from repro.query.schema import Table

#: Maximum individualization branches explored before the canonical search
#: settles for the best encoding found so far.  Only near-fully-symmetric
#: queries (identical stats on many clique-connected tables) ever reach it.
MAX_BRANCHES = 256


def _stable_hash(payload: object) -> int:
    """Deterministic 64-bit hash of a repr-serializable value.

    Python's builtin ``hash`` is randomized per process for strings; the
    fingerprint must be stable across processes and sessions, so hash the
    ``repr`` (deterministic for tuples/ints/floats/strings) with sha256.
    """
    digest = hashlib.sha256(repr(payload).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _table_signature(table: Table) -> tuple:
    """Everything the optimizer reads from a table, minus its name."""
    columns = tuple(sorted((column.name, column.domain_size) for column in table.columns))
    return (table.cardinality, table.row_bytes, table.clustered_on, columns)


def _settings_signature(settings: OptimizerSettings) -> tuple:
    # Memoized: backend resolution consults the registry, and the serving
    # hot path calls this once per request with a handful of distinct
    # settings values.  The registry generation is part of the memo key so
    # registering/replacing a backend (which can change what AUTO resolves
    # to) invalidates cached signatures instead of serving stale ones.
    #
    # A θ binding is stripped *before* the memo probe: θ parameterizes the
    # lookup into a cached envelope, never the optimization problem, so
    # every θ of one settings value must share one signature (hence one
    # fingerprint and one cache entry) — and must not churn the memo with
    # per-θ variants.
    from repro.core.worker import registry_generation

    return _settings_signature_cached(
        settings.without_theta(), registry_generation()
    )


@lru_cache(maxsize=128)  # bounded: stale-generation entries must age out
def _settings_signature_cached(
    settings: OptimizerSettings, generation: int
) -> tuple:
    # The backend is part of the signature even though all backends return
    # equivalent frontiers: the cached entry also carries run statistics
    # (simulated timing), which are backend-specific, and keeping the key
    # exact makes backend A/B comparisons through the service meaningful.
    # AUTO is hashed as the backend it *resolves* to, so a request with the
    # default AUTO and one explicitly naming the same core share an entry —
    # the execution, not the spelling, keys the cache.
    from repro.core.worker import resolve_backend

    return (
        settings.plan_space.value,
        tuple(objective.value for objective in settings.objectives),
        settings.alpha,
        settings.consider_orders,
        settings.use_all_join_algorithms,
        settings.parametric,
        resolve_backend(settings).backend.value,
    )


def settings_signature(settings: OptimizerSettings) -> str:
    """Stable string form of the *resolved* settings signature.

    This is what cache-entry provenance records store: it embeds the backend
    that ``Backend.AUTO`` resolved to at creation time, so an entry remains
    attributable — and selectively invalidatable — even after the registry
    changes what AUTO means.  The string is ``repr`` of the same tuple the
    fingerprint hashes, so provenance and fingerprints can never disagree
    about what the settings were.
    """
    return repr(_settings_signature(settings))


def _adjacency(query: Query) -> dict[int, list[tuple[tuple, int]]]:
    """Per-table incident predicate signatures: ``table -> [(edge_sig, other)]``.

    The edge signature is directional (local column first) so that a table's
    view of a predicate distinguishes its own endpoint from the neighbor's.
    """
    incident: dict[int, list[tuple[tuple, int]]] = {i: [] for i in range(query.n_tables)}
    for predicate in query.predicates:
        left_sig = (predicate.selectivity, predicate.left_column, predicate.right_column)
        right_sig = (predicate.selectivity, predicate.right_column, predicate.left_column)
        incident[predicate.left_table].append((left_sig, predicate.right_table))
        incident[predicate.right_table].append((right_sig, predicate.left_table))
    return incident


def _refine(colors: list[int], incident: dict[int, list[tuple[tuple, int]]]) -> list[int]:
    """1-WL color refinement to a fixed point."""
    n = len(colors)
    while True:
        refined = [
            _stable_hash(
                (
                    colors[node],
                    tuple(sorted((edge_sig, colors[other]) for edge_sig, other in incident[node])),
                )
            )
            for node in range(n)
        ]
        if len(set(refined)) == len(set(colors)):
            return refined
        colors = refined


def _encode(query: Query, numbering: tuple[int, ...]) -> str:
    """Serialize the query under ``numbering`` (original -> canonical)."""
    order = sorted(range(query.n_tables), key=lambda original: numbering[original])
    tables = tuple(_table_signature(query.tables[original]) for original in order)
    predicates = []
    for predicate in query.predicates:
        a = numbering[predicate.left_table]
        b = numbering[predicate.right_table]
        if a <= b:
            predicates.append((a, predicate.left_column, b, predicate.right_column, predicate.selectivity))
        else:
            predicates.append((b, predicate.right_column, a, predicate.left_column, predicate.selectivity))
    return repr((tables, tuple(sorted(predicates))))


@dataclass(frozen=True)
class CanonicalForm:
    """A query's canonical serialization plus the numbering that produced it.

    ``numbering[original_table_number]`` is the table's canonical number.
    Two queries are join-isomorphic (up to names) iff their ``encoding``
    strings are equal, and composing one numbering with the inverse of the
    other maps plans between them (see :func:`repro.service.remap.remap_plan`).
    """

    encoding: str
    numbering: tuple[int, ...]


#: Memoized canonical forms, weakly keyed by the query value.  A serving
#: tier canonicalizes the same hot query objects on every request (the hit
#: path is otherwise dominated by WL refinement, ~180us at 9 tables versus
#: ~10us for a memo probe); keying by value means equal-content query
#: objects share one entry, and weak keys let retired queries be collected.
#: Safe because canonicalization is a pure function of query content and
#: queries are immutable.
_canonical_memo: "weakref.WeakKeyDictionary[Query, CanonicalForm]" = (
    weakref.WeakKeyDictionary()
)


def canonicalize(query: Query) -> CanonicalForm:
    """Compute the relation-permutation-invariant canonical form of ``query``.

    Memoized on the query value (weakly, so the memo never extends a
    query's lifetime); an unhashable query — not produced by this package,
    but possible for hand-built table objects — just skips the memo.
    """
    try:
        cached = _canonical_memo.get(query)
    except TypeError:
        return _canonicalize(query)
    if cached is not None:
        return cached
    canonical = _canonicalize(query)
    _canonical_memo[query] = canonical
    return canonical


def _canonicalize(query: Query) -> CanonicalForm:
    incident = _adjacency(query)
    initial = [_stable_hash(("table", _table_signature(table))) for table in query.tables]

    best: CanonicalForm | None = None
    branches = 0

    def search(colors: list[int]) -> None:
        nonlocal best, branches
        if branches >= MAX_BRANCHES:
            return
        colors = _refine(colors, incident)
        classes: dict[int, list[int]] = {}
        for node, color in enumerate(colors):
            classes.setdefault(color, []).append(node)
        # The target cell must be chosen by a labeling-invariant key (class
        # size, then the class's color — never original table numbers), or
        # two labelings of the same query would explore different search
        # trees and could settle on different canonical forms.
        ambiguous = sorted(
            (
                (color, members)
                for color, members in classes.items()
                if len(members) > 1
            ),
            key=lambda item: (len(item[1]), item[0]),
        )
        if not ambiguous:
            branches += 1
            ranked = sorted(range(len(colors)), key=lambda node: colors[node])
            numbering = [0] * len(colors)
            for canonical, original in enumerate(ranked):
                numbering[original] = canonical
            candidate = CanonicalForm(_encode(query, tuple(numbering)), tuple(numbering))
            if best is None or candidate.encoding < best.encoding:
                best = candidate
            return
        for node in ambiguous[0][1]:
            individualized = list(colors)
            individualized[node] = _stable_hash(("individualized", colors[node]))
            search(individualized)
            if branches >= MAX_BRANCHES:
                return

    search(initial)
    assert best is not None
    return best


def fingerprint_canonical(
    canonical: CanonicalForm,
    settings: OptimizerSettings,
    n_workers: int | None = None,
) -> str:
    """Digest a precomputed canonical form (lets callers canonicalize once).

    ``n_workers`` is validated but not hashed: it is only an upper bound on
    the partition count, and MPQ's final frontier does not depend on the
    partition count (best cost and frontier costs exactly; a parametric
    envelope within the pruning's 1e-9 relative tie slack).  Requests for
    any worker count therefore share one cache entry and one flight.
    """
    if n_workers is not None and n_workers < 1:
        raise ValueError("need at least one worker")
    payload = repr((canonical.encoding, _settings_signature(settings)))
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint(
    query: Query,
    settings: OptimizerSettings,
    n_workers: int | None = None,
) -> str:
    """Hex digest identifying ``(query, settings)`` up to relabeling.

    ``n_workers`` is accepted for callers that pass the request's worker
    count, but it does not change the digest: ``workers`` is an upper bound
    on the partition count, capped by the executor's slots, and one shape
    is one cache entry whatever parallelism computed it.
    """
    return fingerprint_canonical(canonicalize(query), settings, n_workers)
