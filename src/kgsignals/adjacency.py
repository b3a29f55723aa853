"""Relation-less adjacency matrices and the matrix-equivalence task.

A matrix cell counts (relation, tuple) co-occurrences of two entities
summed over all relations; the diagonal counts self-co-occurrence (the
same entity in two positions of one tuple). Positives pair a matrix with
a simultaneous row+column permutation of itself; negatives corrupt it by
a column-only swap (re-symmetrized from the corrupted upper triangle) or
by resampling values, and are verified to not be permutation-equivalent
for small matrices.

Matrices are NumPy arrays throughout, and resampling draws each cell's
replacement pool by array masking. The token layout of a matrix in an
IVA record is ``kgsignals.corpus._flatten_tokens``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import KnowledgeGraph, row_cells
from .neighborhood import khop_entities

if TYPE_CHECKING:
    from .records import GenerationConfig

VERIFY_LIMIT = 8  # the largest negative, in entities, checked by permutation search


class SkipExample(Exception):
    """Degenerate neighborhood; no example can be built for this center."""


@dataclass(frozen=True)
class AdjacencyMatrix:
    entities: tuple[int, ...]
    values: np.ndarray  # symmetric, nonnegative ints

    def __post_init__(self) -> None:
        n = len(self.entities)
        if self.values.shape != (n, n):
            raise ValueError("matrix shape does not match entity list")


@dataclass(frozen=True)
class IvaExample:
    left: AdjacencyMatrix
    right: AdjacencyMatrix
    label: int
    mode: str  # "permute" | "column_swap" | "value_resample"


def relationless_adjacency(g: KnowledgeGraph, entities: list[int]) -> AdjacencyMatrix:
    """Co-occurrence count matrix restricted to the given entity list."""
    if len(set(entities)) != len(entities):
        raise ValueError("duplicate entities in adjacency entity list")
    for e in entities:
        g._check_entity(e)
    idx = np.asarray(entities, dtype=np.int64)
    indptr, indices, data = g.cooccurrence_counts()
    cells, counts = row_cells(indptr, idx)
    # each cell's column as a position in ``entities``, -1 outside it
    position = np.full(g.num_entities, -1)
    position[idx] = np.arange(len(idx))
    cols = position[indices[cells]]
    keep = cols >= 0
    values = np.zeros((len(idx), len(idx)), dtype=np.int64)
    values[np.repeat(np.arange(len(idx)), counts)[keep], cols[keep]] = data[cells][keep]
    return AdjacencyMatrix(entities=tuple(entities), values=values)


def _row_signatures(m: np.ndarray) -> list[list[int]]:
    """Each row's diagonal value followed by its sorted values, sorted.

    A simultaneous row+column permutation only reorders these, so equal
    signatures are necessary for permutation equivalence."""
    return sorted(np.column_stack([np.diag(m), np.sort(m, axis=1)]).tolist())


def permutation_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """Test whether some simultaneous row+column permutation of ``a``
    equals ``b``.

    Pairs whose row signatures differ are rejected at once; the rest are
    searched exhaustively, so this is only intended for small matrices."""
    n = a.shape[0]
    if b.shape != a.shape or _row_signatures(a) != _row_signatures(b):
        return False
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        if np.array_equal(a[np.ix_(p, p)], b):
            return True
    return False


def make_iva_example(
    g: KnowledgeGraph,
    center: int,
    cfg: GenerationConfig,
    rng: random.Random,
    negative: bool,
) -> IvaExample:
    """Build one matrix-equivalence example around ``center``.

    The matrix covers the ``cfg.hops``-hop ball plus the center,
    uniformly subsampled to ``cfg.iva_cap`` entities. Positives apply a
    uniform random permutation to rows, columns and entity labels.
    Negatives pick a corruption mode uniformly: a column-only swap (with
    the result read back symmetrically from its upper triangle) or
    resampling ~``cfg.corruption_rate`` of the upper-triangle cells to
    different observed values. Negatives on matrices up to
    :data:`VERIFY_LIMIT` entities are checked against every permutation
    of the original.
    """
    ball = khop_entities(g, center, cfg.hops).tolist()
    if not ball:
        raise SkipExample(f"entity {center} has an empty {cfg.hops}-hop neighborhood")
    members = sorted(ball + [center])
    if len(members) > cfg.iva_cap:
        sampled = rng.sample([e for e in members if e != center], cfg.iva_cap - 1)
        members = sorted(sampled + [center])
    left = relationless_adjacency(g, members)
    n = len(members)

    if not negative:
        perm = list(range(n))
        rng.shuffle(perm)
        values = left.values[np.ix_(perm, perm)]
        entities = tuple(left.entities[i] for i in perm)
        right = AdjacencyMatrix(entities=entities, values=values)
        # a relabeled permutation must preserve the degree sequence
        assert sorted(values.sum(axis=1)) == sorted(left.values.sum(axis=1))
        return IvaExample(left=left, right=right, label=1, mode="permute")

    mode = rng.choice(["column_swap", "value_resample"]) if n >= 2 else "value_resample"
    for _ in range(32):
        if mode == "column_swap":
            i, j = rng.sample(range(n), 2)
            values = left.values.copy()
            values[:, [i, j]] = values[:, [j, i]]
            # keep the stored matrix symmetric (it is read back from its
            # upper triangle): mirror the corrupted upper half down
            values = np.triu(values) + np.triu(values, 1).T
        else:
            values = _resample_values(left.values, rng, cfg.corruption_rate)
        if np.array_equal(values, left.values):
            continue
        if n <= VERIFY_LIMIT and permutation_equivalent(left.values, values):
            mode = "value_resample"
            continue
        return IvaExample(
            left=left,
            right=AdjacencyMatrix(entities=left.entities, values=values),
            label=0,
            mode=mode,
        )
    # fallback: push one cell outside the observed value multiset, which
    # no permutation can reproduce
    values = left.values.copy()
    bump = int(values.max()) + 1 + int(values[0, 0])
    values[0, 0] = bump
    return IvaExample(
        left=left,
        right=AdjacencyMatrix(entities=left.entities, values=values),
        label=0,
        mode="value_resample",
    )


def _resample_values(values: np.ndarray, rng: random.Random, rate: float) -> np.ndarray:
    """Set ~``rate`` of the upper-triangle cells (at least one) to a
    different value drawn uniformly from the observed upper-triangle
    values (with multiplicity), mirroring each change below the diagonal.

    A cell's pool is ``observed[observed != cur]``; a cell with no other
    observed value becomes ``cur + 1``. The ``rng`` sees one ``sample``
    of the cells and then one ``choice`` per cell with a nonempty pool.
    """
    rows, cols = np.triu_indices(values.shape[0])
    cells = list(zip(rows.tolist(), cols.tolist()))
    count = max(1, math.ceil(rate * len(cells)))
    chosen = rng.sample(cells, min(count, len(cells)))
    observed = values[rows, cols]
    out = values.copy()
    for i, j in chosen:
        cur = out[i, j]
        pool = observed[observed != cur]
        new = rng.choice(pool) if pool.size else cur + 1
        out[i, j] = new
        out[j, i] = new
    return out
