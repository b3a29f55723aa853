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

Everything reads the graph's co-occurrence CSR arrays
(:meth:`KnowledgeGraph.cooccurrence_counts`), so memory stays linear in
the number of entities and stored cells. One breadth-first walk per
center stores the hop distance of every entity; each hop reads the cells
of the frontier's rows (push) or of the rows not yet reached (pull),
whichever holds fewer. The ball of radius k is the entities at distance
1..k. A cell lies inside every ball whose radius is at least the larger
distance of its two ends, its level, so one pass over the off-diagonal
cells gives the connected pairs of every radius. A member nearer than k
has all its neighbours within radius k, so its degree is its row sum;
a member at distance k loses its outward cells, those whose column is
farther out, which one pass over all cells sums for every entity.
:class:`NeighborhoodIndex` keeps the walk of the last center asked, for
bulk generation that queries every radius of one center in turn.
"""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph, row_cells


class EmptyNeighborhoodError(Exception):
    """No entities within the requested hop radius; record is skipped upstream."""


def _distances(indptr: np.ndarray, indices: np.ndarray, row_lens: np.ndarray, e: int, hops: int) -> np.ndarray:
    """Hop distance from ``e`` of every entity over the co-occurrence CSR,
    whose rows hold ``row_lens`` cells: 0 at ``e`` and ``hops + 1`` past
    the last radius. The dtype is the narrowest signed one of at least 16
    bits that holds ``hops + 1``, since the level passes gather it once
    per stored cell."""
    past = hops + 1
    dist = np.full(len(row_lens), past, dtype=np.promote_types(np.int16, np.min_scalar_type(past)))
    dist[indices[indptr[e] : indptr[e + 1]]] = 1
    dist[e] = 0
    unreached_cells = len(indices) - int(row_lens[e])  # cells of the rows not yet reached
    for h in range(2, past):
        frontier = np.flatnonzero(dist == h - 1)
        frontier_cells = int(row_lens[frontier].sum())
        if not frontier_cells:
            break
        unreached_cells -= frontier_cells
        if frontier_cells <= unreached_cells:
            # push: the unreached columns of the frontier's rows
            reached = indices[row_cells(indptr, frontier)[0]]
            reached = reached[dist[reached] == past]
        else:
            # pull: the unreached rows with a cell in the frontier
            rows = np.flatnonzero(dist == past)
            cells, counts = row_cells(indptr, rows)
            reached = np.repeat(rows, counts)[dist[indices[cells]] == h - 1]
        dist[reached] = h
    return dist


def _ball(dist: np.ndarray, e: int, k: int) -> np.ndarray:
    """Entities at distance 1..k in ``dist``, the walk from ``e``, ascending."""
    ball = np.flatnonzero(dist <= k)
    return ball[ball != e]


def khop_entities(g: KnowledgeGraph, e: int, k: int) -> np.ndarray:
    """All entities at hop distance 1..k from ``e``, ascending: the ids
    that :meth:`NeighborhoodIndex.ball` returns, from the same walk."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g._check_entity(e)
    indptr, indices, _ = g.cooccurrence_counts()
    return _ball(_distances(indptr, indices, np.diff(indptr), e, k), e, k)


class NeighborhoodIndex:
    """Per-center neighbourhood answers for bulk generation.

    Reads the graph's co-occurrence CSR arrays, whose diagonal carries
    self-co-occurrence, and keeps each entity's weighted and distinct
    degree and the column of every off-diagonal cell. The first question
    about a center runs one walk that yields its balls of radius
    1..max_hops. The walk, the balls and, once asked, the outward sums
    and the off-diagonal cells' levels are kept until a different center
    is asked about.
    """

    def __init__(self, g: KnowledgeGraph, max_hops: int):
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self.g = g
        self.max_hops = max_hops
        self._indptr, self._indices, self._data = g.cooccurrence_counts()
        self._row_lens = np.diff(self._indptr)
        self._stored = np.flatnonzero(self._row_lens)  # rows with a cell
        off = np.repeat(np.arange(g.num_entities), self._row_lens) != self._indices
        self._off_cols = self._indices[off]
        # row degrees: weighted sums include the diagonal, distinct
        # neighbours, the off-diagonal cells, do not
        self._degrees = {True: self._row_sums(self._data), False: self._row_sums(off)}
        self._center = -1
        self._dist = np.empty(0, dtype=np.int16)
        self._balls: list[np.ndarray] = []
        self._outward: dict[bool, np.ndarray] = {}
        self._levels: np.ndarray | None = None

    def _row_sums(self, cell_values: np.ndarray) -> np.ndarray:
        """Each entity's sum of ``cell_values``, one per stored cell."""
        sums = np.zeros(len(self._indptr) - 1, dtype=np.int64)
        sums[self._stored] = np.add.reduceat(cell_values, self._indptr[self._stored], dtype=np.int64)
        return sums

    def ball(self, e: int, k: int) -> np.ndarray:
        """Entity ids within hop distance 1..k of ``e``, ascending (read-only)."""
        if not 1 <= k <= self.max_hops:
            raise ValueError(f"k must be in [1, {self.max_hops}]")
        if e != self._center:
            self.g._check_entity(e)
            dist = _distances(self._indptr, self._indices, self._row_lens, e, self.max_hops)
            widest = _ball(dist, e, self.max_hops)
            self._balls = []
            for h in range(1, self.max_hops + 1):
                ball = widest[dist[widest] <= h]
                ball.flags.writeable = False
                self._balls.append(ball)
            self._dist, self._center, self._outward, self._levels = dist, e, {}, None
        return self._balls[k - 1]

    def occurrence(self, e: int, k: int, weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Ball of radius k and each member's probability: its degree
        counted within the ball plus the center, over the sum of those
        degrees, so the probabilities sum to 1. Raises
        :class:`EmptyNeighborhoodError` when the ball is empty."""
        ents = self.ball(e, k)
        if ents.size == 0:
            raise EmptyNeighborhoodError(f"entity {e} has no {k}-hop neighborhood")
        outward = self._outward.get(weighted)
        if outward is None:
            # each row's cells whose column is farther from the center
            # than the row, never a diagonal cell
            far = self._dist[self._indices] > np.repeat(self._dist, self._row_lens)
            outward = self._outward[weighted] = self._row_sums(self._data * far if weighted else far)
        # every neighbour of a member nearer than k lies within radius k;
        # a member at distance k loses its outward cells
        degrees = self._degrees[weighted][ents] - outward[ents] * (self._dist[ents] == k)
        return ents, degrees / int(degrees.sum())

    def clustering(self, e: int, k: int, weighted: bool = False) -> float:
        """Fraction of connected pairs inside the ball of radius k:
        connected pairs over C(d, 2), and 0 when d < 2.

        Simple mode (default) takes d as the ball size, so the value
        stays in [0, 1]. Weighted mode takes d as the center's weighted
        co-occurrence count into the ball, which parallel edges raise,
        and may exceed 1."""
        ents = self.ball(e, k)
        if weighted:
            lo, hi = self._indptr[e], self._indptr[e + 1]
            near = self._dist[self._indices[lo:hi]]
            d = int(self._data[lo:hi][(near >= 1) & (near <= k)].sum())
        else:
            d = int(ents.size)
        if d < 2:
            return 0.0
        if self._levels is None:
            # a cell's level, the larger distance of its ends, is the
            # smallest radius whose ball holds it; cells at the center are
            # in no ball, so it counts as past the last radius
            dist = self._dist.copy()
            dist[e] = self.max_hops + 1
            # the off-diagonal cells lie row by row, _degrees[False] a row
            self._levels = np.maximum(np.repeat(dist, self._degrees[False]), dist[self._off_cols])
        # each connected pair is two off-diagonal cells
        return int(np.count_nonzero(self._levels <= k)) // 2 / (d * (d - 1) / 2)
