"""Immutable incidence index over knowledge (hyper)graph tuples.

Entities and relations are dense 0-based integer ids assigned at ingest.
A fact is a relation applied to an ordered list of two or more entities;
arity-2 facts are ordinary knowledge-graph triples in the form r(h, t).

Entity co-occurrence is counted by one builder,
:func:`cooccurrence_arrays`, in numpy alone, and every reader walks its
CSR arrays directly; :func:`row_cells` gathers the stored cells of a set
of rows. Those two functions alone import numpy, when first called, so
the facts and their incidence index load without it. Of the CLI
commands only ``generate`` calls them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class GraphError(Exception):
    """Base class for graph construction and lookup failures."""


class MalformedTupleError(GraphError):
    """A fact violates the arity >= 2 requirement."""


class UnknownIdError(GraphError):
    """An entity or relation id is outside the vocabulary bounds."""


@dataclass(frozen=True)
class Fact:
    """One ground tuple r(e_1, ..., e_n). Positions are significant."""

    relation: int
    entities: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.entities)


def cooccurrence_arrays(facts: Sequence[Fact], num_entities: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric entity-by-entity co-occurrence counts, as the int64
    ``indptr``, ``indices`` and ``data`` arrays of a CSR matrix.

    Every fact adds 1 to cell (a, b) for each unordered pair of its
    positions holding a and b, so ``r(a, b, a)`` adds 2 to (a, b) and
    1 to the diagonal cell (a, a). Stored cells are positive, the column
    indices of each row ascend and ``indptr`` has ``num_entities + 1``
    entries.
    """
    import numpy as np

    pairs = np.array([p for f in facts for p in combinations(f.entities, 2)], dtype=np.int64).reshape(-1, 2)
    n = num_entities
    a, b = pairs[:, 0], pairs[:, 1]
    off = a != b
    # cell (a, b) as the key a*n + b, which fits int64 for n < 3e9; a
    # pair counts in both orientations, a same-entity pair once
    keys, data = np.unique(np.concatenate((a * n + b, b[off] * n + a[off])), return_counts=True)
    rows, indices = np.divmod(keys, n)  # keys is empty when n is 0, so nothing divides by 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices, data


def row_cells(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``indices`` and ``data`` of the stored cells of ``rows``,
    row after row in the order given, and each row's cell count."""
    import numpy as np

    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # each row's start less the cells of the rows before it in ``rows``
    shift = starts - np.cumsum(counts) + counts
    return np.arange(counts.sum()) + np.repeat(shift, counts), counts


class KnowledgeGraph:
    """Read-only incidence index over ``facts``.

    The constructor validates the facts and builds the fact and relation
    incidence lists in one pass over them. A fact of arity < 2 raises
    :class:`MalformedTupleError` and an id out of range raises
    :class:`UnknownIdError`, both naming the fact's index.

    Two caches are built from the facts on first use. The entity
    co-occurrence counts (:meth:`cooccurrence_counts`, the read-only CSR
    arrays of :func:`cooccurrence_arrays`, and the same arrays as lists,
    :meth:`cooccurrence_rows`) are the graph's only relation-blind
    co-occurrence structure: neighbours, path BFS, neighbourhood balls
    and IVA matrices all read them.
    :meth:`relation_neighbors` maps, for one relation at a time, each
    entity to the entities it shares a fact of that relation with; the
    ip path search steps by it. Lazily filled caches are idempotent, so
    concurrent readers are safe.

    Deterministic: fact lists ascend by fact index, and every set-valued
    answer is independent of the order of ``facts``.
    """

    def __init__(self, facts: tuple[Fact, ...], num_entities: int, num_relations: int):
        foe: list[list[int]] = [[] for _ in range(num_entities)]
        for_: list[list[int]] = [[] for _ in range(num_relations)]
        entity_sets: list[frozenset[int]] = []
        for i, f in enumerate(facts):
            if f.arity < 2:
                raise MalformedTupleError(f"tuple {i}: arity {f.arity} < 2")
            if not 0 <= f.relation < num_relations:
                raise UnknownIdError(f"tuple {i}: relation id {f.relation} out of range")
            for e in f.entities:
                if not 0 <= e < num_entities:
                    raise UnknownIdError(f"tuple {i}: entity id {e} out of range")
            for_[f.relation].append(i)
            es = frozenset(f.entities)
            entity_sets.append(es)
            for e in es:
                foe[e].append(i)
        self.facts = facts
        self.num_entities = num_entities
        self.num_relations = num_relations
        self._facts_of_entity = tuple(map(tuple, foe))
        self._facts_of_relation = tuple(map(tuple, for_))
        self._fact_entity_sets = tuple(entity_sets)
        self._entities_of_relation = tuple(frozenset().union(*(entity_sets[i] for i in fs)) for fs in for_)
        self._relations_of_entity = tuple(frozenset(facts[i].relation for i in fs) for fs in foe)
        self._cooccurrence: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._cooccurrence_rows: tuple[list[int], list[int], list[int]] | None = None
        self._relation_neighbors: list[dict[int, frozenset[int]] | None] = [None] * num_relations

    # -- id validation -------------------------------------------------

    def _check_entity(self, e: int) -> None:
        if not 0 <= e < self.num_entities:
            raise UnknownIdError(f"entity id {e} out of range [0, {self.num_entities})")

    def _check_relation(self, r: int) -> None:
        if not 0 <= r < self.num_relations:
            raise UnknownIdError(f"relation id {r} out of range [0, {self.num_relations})")

    # -- incidence queries ---------------------------------------------

    def entities_of_relation(self, r: int) -> frozenset[int]:
        """All entities appearing in some fact with relation ``r``."""
        self._check_relation(r)
        return self._entities_of_relation[r]

    def facts_of_entity(self, e: int) -> tuple[int, ...]:
        """Indices into ``facts`` of facts containing ``e``, ascending."""
        self._check_entity(e)
        return self._facts_of_entity[e]

    def fact_entity_set(self, fact_index: int) -> frozenset[int]:
        return self._fact_entity_sets[fact_index]

    def neighbors(self, e: int) -> frozenset[int]:
        """Entities co-occurring with ``e`` in any fact, excluding ``e``:
        row ``e`` of :meth:`cooccurrence_counts` without its diagonal."""
        self._check_entity(e)
        indptr, indices, _ = self.cooccurrence_counts()
        return frozenset(indices[indptr[e] : indptr[e + 1]].tolist()) - {e}

    def cooccurrence_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`cooccurrence_arrays` of the facts, ``(indptr, indices,
        data)``, built once, on first use, and read-only."""
        if self._cooccurrence is None:
            arrays = cooccurrence_arrays(self.facts, self.num_entities)
            for a in arrays:
                a.flags.writeable = False
            self._cooccurrence = arrays
        return self._cooccurrence

    def cooccurrence_rows(self) -> tuple[list[int], list[int], list[int]]:
        """``indptr``, ``indices`` and ``data`` of :meth:`cooccurrence_counts`
        as Python lists, for per-entity walks that numpy calls would slow
        down. Converted once, on first use."""
        if self._cooccurrence_rows is None:
            indptr, indices, data = self.cooccurrence_counts()
            self._cooccurrence_rows = (indptr.tolist(), indices.tolist(), data.tolist())
        return self._cooccurrence_rows

    def relation_neighbors(self, r: int) -> dict[int, frozenset[int]]:
        """Each entity of an ``r`` fact mapped to the entities of its ``r``
        facts, itself included. An entity with one ``r`` fact maps to that
        fact's entity set, shared, not copied. Built on first use."""
        self._check_relation(r)
        nb = self._relation_neighbors[r]
        if nb is None:
            sets_of: dict[int, list[frozenset[int]]] = {}
            for fi in self._facts_of_relation[r]:
                es = self._fact_entity_sets[fi]
                for e in es:
                    sets_of.setdefault(e, []).append(es)
            nb = self._relation_neighbors[r] = {
                e: sets[0] if len(sets) == 1 else frozenset().union(*sets) for e, sets in sets_of.items()
            }
        return nb

    def incident_relations(self, r: int) -> frozenset[int]:
        """Relations r' != r with E(r') intersecting E(r)."""
        self._check_relation(r)
        out: set[int] = set()
        for e in self._entities_of_relation[r]:
            out.update(self._relations_of_entity[e])
        out.discard(r)
        return frozenset(out)


def build_index(facts: Sequence[Fact], num_entities: int, num_relations: int) -> KnowledgeGraph:
    """The :class:`KnowledgeGraph` of ``facts``."""
    return KnowledgeGraph(tuple(facts), num_entities, num_relations)
