"""k-hop neighborhoods, occurrence distributions and clustering targets.

The k-hop neighborhood of an entity is the *ball* of entities within k
co-occurrence hops, excluding the center itself. Occurrence targets
normalize per-entity degrees inside the neighborhood subgraph (edges
among neighborhood entities and to the center); clustering targets count
the fraction of connected pairs inside the ball.

Degree semantics: occurrence defaults to multi-edge weighted degrees
(adjacency row sums where parallel relations count separately),
clustering defaults to simple deduplicated counts, which keeps the
coefficient in [0, 1]. Both are switchable per call.

Everything reads the graph's co-occurrence CSR
(:meth:`KnowledgeGraph.cooccurrence_counts`), so memory stays linear in
the number of entities. Balls come from a frontier BFS per center:
radius 1 is the center's row, and each further hop is one sparse
mat-vec. Targets are one mat-vec per radius as well: the CSR, or its
0/1 pattern for simple counts, times the 0/1 indicator of the ball
gives every entity's degree into the ball at once.
:class:`NeighborhoodIndex` keeps the balls of the last center asked,
for bulk generation that queries every radius of one center in turn;
the module-level functions are thin wrappers over the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import KnowledgeGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


class EmptyNeighborhoodError(Exception):
    """No entities within the requested hop radius; record is skipped upstream."""


@dataclass(frozen=True)
class Neighborhood:
    center: int
    hops: int
    entities: tuple[int, ...]  # ascending, center excluded


@dataclass(frozen=True)
class OccurrenceDistribution:
    entities: tuple[int, ...]
    probabilities: tuple[float, ...]


def _balls(w: sp.csr_matrix, e: int, hops: int) -> list[np.ndarray]:
    """Balls of radius 1..hops around ``e``: ascending entity ids, center
    excluded. Returned arrays are read-only."""
    seen = np.zeros(w.shape[0], dtype=bool)
    seen[w.indices[w.indptr[e] : w.indptr[e + 1]]] = True  # radius 1: row e
    frontier = seen.copy()
    frontier[e] = False
    seen[e] = True
    balls: list[np.ndarray] = []
    for h in range(hops):
        if h and frontier.any():
            # stored cells are positive, so a nonzero product marks
            # every entity co-occurring with some frontier entity
            frontier = (w @ frontier) > 0
            frontier &= ~seen
            seen |= frontier
        ball = np.flatnonzero(seen)
        ball = ball[ball != e]
        ball.flags.writeable = False
        balls.append(ball)
    return balls


def khop_entities(g: KnowledgeGraph, e: int, k: int) -> Neighborhood:
    """All entities at hop distance 1..k from ``e``, ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g._check_entity(e)
    ball = _balls(g.cooccurrence_counts(), e, k)[-1]
    return Neighborhood(center=e, hops=k, entities=tuple(ball.tolist()))


def occurrence_distribution(
    g: KnowledgeGraph, e: int, k: int, weighted: bool = True
) -> OccurrenceDistribution:
    """Degree-normalized probability of each entity in the k-hop ball.

    Degrees are taken within the neighborhood subgraph (members plus the
    center); probabilities sum to 1.
    """
    ents, probs = NeighborhoodIndex(g, k).occurrence(e, k, weighted)
    return OccurrenceDistribution(entities=tuple(ents.tolist()), probabilities=tuple(probs.tolist()))


def local_clustering_coefficient(
    g: KnowledgeGraph, e: int, k: int, weighted: bool = False
) -> float:
    """Fraction of connected pairs inside the k-hop ball of ``e``.

    Simple mode (default) divides by C(|ball|, 2), so the value stays in
    [0, 1]. Weighted mode divides by C(d, 2) with d the weighted
    adjacency row sum from the center into the ball, and may exceed 1
    with parallel edges.
    """
    return NeighborhoodIndex(g, k).clustering(e, k, weighted)


class NeighborhoodIndex:
    """Per-center neighbourhood answers for bulk generation.

    Reads the graph's co-occurrence CSR (``weighted``; its diagonal
    carries self-co-occurrence) and a 0/1 copy of it sharing its index
    arrays, whose row sums count distinct neighbours. The first question
    about a center runs one BFS that yields its balls of radius
    1..max_hops; they are kept until a different center is asked about.
    :func:`occurrence_distribution` and
    :func:`local_clustering_coefficient` answer through a fresh index.
    """

    def __init__(self, g: KnowledgeGraph, max_hops: int):
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self.g = g
        self.max_hops = max_hops
        w = self.weighted = g.cooccurrence_counts()
        # w's own class, so that this module never imports scipy itself
        self._pattern = type(w)((np.ones_like(w.data), w.indices, w.indptr), shape=w.shape)
        self._diag = w.diagonal()
        self._center = -1
        self._balls: list[np.ndarray] = []

    def ball(self, e: int, k: int) -> np.ndarray:
        """Entity ids within hop distance 1..k of ``e``, ascending (read-only)."""
        if not 1 <= k <= self.max_hops:
            raise ValueError(f"k must be in [1, {self.max_hops}]")
        if e != self._center:
            self.g._check_entity(e)
            self._balls = _balls(self.weighted, e, self.max_hops)
            self._center = e
        return self._balls[k - 1]

    def _indicator(self, ents: np.ndarray) -> np.ndarray:
        x = np.zeros(self.weighted.shape[0], dtype=self.weighted.dtype)
        x[ents] = 1
        return x

    def occurrence(self, e: int, k: int, weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Ball of radius k and each member's degree within ball + center,
        normalized to sum to 1."""
        ents = self.ball(e, k)
        if ents.size == 0:
            raise EmptyNeighborhoodError(f"entity {e} has no {k}-hop neighborhood")
        x = self._indicator(ents)
        x[e] = 1
        if weighted:
            degrees = (self.weighted @ x)[ents]
        else:
            # distinct neighbours: stored cells less the entity's own diagonal
            degrees = (self._pattern @ x)[ents] - (self._diag[ents] != 0)
        return ents, degrees / int(degrees.sum())

    def clustering(self, e: int, k: int, weighted: bool = False) -> float:
        """Connected ball pairs over C(d, 2); d is the ball size, or in
        weighted mode the center's co-occurrence count into the ball."""
        ents = self.ball(e, k)
        x = self._indicator(ents)
        if weighted:
            w = self.weighted
            lo, hi = w.indptr[e], w.indptr[e + 1]
            d = int(w.data[lo:hi] @ x[w.indices[lo:hi]])
        else:
            d = int(ents.size)
        if d < 2:
            return 0.0
        # each connected pair is two stored cells among the ball's rows
        # and columns; diagonal cells are not pairs
        cells = int((self._pattern @ x)[ents].sum()) - int(np.count_nonzero(self._diag[ents]))
        return cells // 2 / (d * (d - 1) / 2)
