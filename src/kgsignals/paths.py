"""Relational path extraction: shortest paths and entropy-guided search.

A relational path is an ordered, duplicate-free tuple of relation ids
joining two query entities. Two generators are provided:

* :func:`shortest_relational_paths` -- relation sequences of all
  minimum-hop walks between two entities (unit edge weights, so plain
  BFS suffices).
* :func:`information_gain_paths` -- beam construction seeded with the
  highest-entropy relations incident to the query relation, extended at
  each hop by the lowest-conditional-entropy incident relations.

Entropy is computed in nats; only relative order matters for the top-k
and bottom-k selections, which is base-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .graph import KnowledgeGraph

RelationalPath = tuple[int, ...]


class UndefinedEntropyError(Exception):
    """Conditional entropy is undefined when the first relation has no entities."""


@dataclass(frozen=True)
class PathSearchConfig:
    beam_k: int = 4
    max_hops: int = 4
    sp_cap: int = 16

    def __post_init__(self) -> None:
        if self.beam_k < 1 or self.max_hops < 1 or self.sp_cap < 1:
            raise ValueError("beam_k, max_hops and sp_cap must be >= 1")


def _xlogx(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def relation_entropy(g: KnowledgeGraph, r: int) -> float:
    """Binary entropy of the fraction of entities touched by relation ``r``.

    H(r) = -(p log p + (1-p) log(1-p)) with p = |E(r)| / |entities|,
    using the 0 log 0 := 0 convention. Always in [0, ln 2].
    """
    p = len(g.entities_of_relation(r)) / g.num_entities
    return -(_xlogx(p) + _xlogx(1.0 - p))


def conditional_entropy(g: KnowledgeGraph, r_prev: int, r_next: int) -> float:
    """Conditional entropy H(r_prev | r_next) over entity-set overlap.

    With E = E(r_prev), F = E(r_next):
    U = |E symdiff F| / |E|, V = |E intersect F| / |E|, and
    H = -(|E| / |entities|) * (U log U + V log V).

    U may exceed 1 for disjoint sets, which makes the value negative;
    the formula is applied verbatim.
    """
    ep = g.entities_of_relation(r_prev)
    en = g.entities_of_relation(r_next)
    if not ep:
        raise UndefinedEntropyError(f"relation {r_prev} has no entities")
    u = len(ep.symmetric_difference(en)) / len(ep)
    v = len(ep & en) / len(ep)
    return -(len(ep) / g.num_entities) * (_xlogx(u) + _xlogx(v))


def path_information_gain(g: KnowledgeGraph, path: RelationalPath) -> float:
    """H(last relation) minus the sum of consecutive conditional entropies."""
    if not path:
        raise ValueError("empty relational path")
    ig = relation_entropy(g, path[-1])
    for i in range(len(path) - 1):
        ig -= conditional_entropy(g, path[i], path[i + 1])
    return ig


def information_gain_paths(
    g: KnowledgeGraph, r: int, cfg: PathSearchConfig, cache: dict[int, list[int]] | None = None
) -> list[RelationalPath]:
    """Beam-grown relational paths for query relation ``r``.

    Seeds are the (at most) beam_k incident relations with highest
    entropy; each round extends every frontier path ending in r' with
    the beam_k incident relations of lowest conditional entropy
    H(candidate | r'), skipping relations already on that path. Paths of
    every intermediate length are retained, so at depth d there are at
    most beam_k**d paths. Ties break by ascending relation id; output is
    sorted lexicographically.

    ``cache`` may be an initially-empty dict shared across calls on the
    same graph. It maps each relation r' to its incident relations in
    extension order, ascending H(candidate | r') then relation id.
    """
    k = cfg.beam_k
    if cache is None:
        cache = {}

    def ordered(last: int) -> list[int]:
        order = cache.get(last)
        if order is None:
            order = cache[last] = sorted(
                g.incident_relations(last), key=lambda rr: (conditional_entropy(g, rr, last), rr)
            )
        return order

    seeds = sorted(g.incident_relations(r), key=lambda rr: (-relation_entropy(g, rr), rr))[:k]
    paths: list[RelationalPath] = [(s,) for s in seeds]
    frontier = list(paths)
    for _ in range(cfg.max_hops - 1):
        nxt: list[RelationalPath] = []
        for p in frontier:
            on_path = set(p)
            best: list[int] = []
            for rr in ordered(p[-1]):
                if rr not in on_path:
                    best.append(rr)
                    if len(best) == k:
                        break
            nxt.extend(p + (rr,) for rr in best)
        if not nxt:
            break
        paths.extend(nxt)
        frontier = nxt
    return sorted(paths)


class CandidateTrie:
    """Distinct candidate paths as a prefix trie.

    A node is ``(is_candidate, children)`` with ``children`` a tuple of
    ``(relation, node)`` pairs in ascending relation order, so a walk
    needs no per-query sorting. Iterating the trie yields its distinct
    paths in lexicographic order.
    """

    __slots__ = ("paths", "root")

    def __init__(self, candidates) -> None:
        self.paths: list[RelationalPath] = sorted(set(candidates))
        self.root: tuple = _trie_node(self.paths, 0)

    def __iter__(self):
        return iter(self.paths)


def _trie_node(paths: list[RelationalPath], depth: int) -> tuple:
    """Node over sorted distinct ``paths`` that share their first ``depth``
    relations; the one path of exactly that length, if any, comes first."""
    is_candidate = bool(paths) and len(paths[0]) == depth
    children = groupby(paths[is_candidate:], key=lambda p: p[depth])
    return is_candidate, tuple((rel, _trie_node(list(group), depth + 1)) for rel, group in children)


def ground_paths(
    g: KnowledgeGraph,
    e_i: int,
    e_j: int,
    candidates: CandidateTrie | list[RelationalPath],
    exclude_fact: int | None = None,
) -> list[RelationalPath]:
    """Keep candidates for which a grounded walk from e_i to e_j exists.

    A walk is a fact sequence whose relations spell the candidate,
    consecutive facts share an entity, the first fact contains e_i and
    the last contains e_j. ``exclude_fact`` (fact index) is never usable,
    which keeps the queried fact itself out of its own evidence.

    Walks a trie of the candidates depth-first, computing the frontier
    of each distinct prefix exactly once and pruning dead branches, so
    cost is polynomial in graph size and the number of prefixes. Corpus
    generation builds one :class:`CandidateTrie` per relation and passes
    it for every query; a plain list is turned into a trie here. Kept
    paths come out in lexicographic order.
    """
    g._check_entity(e_i)
    g._check_entity(e_j)
    trie = candidates if isinstance(candidates, CandidateTrie) else CandidateTrie(candidates)
    kept: list[RelationalPath] = []

    def walk(prefix: RelationalPath, frontier: frozenset[int], children: tuple) -> None:
        for rel, (is_candidate, grandchildren) in children:
            front = _step_frontier(g, frontier, rel, exclude_fact)
            if not front:
                continue
            p = prefix + (rel,)
            if is_candidate and e_j in front:
                kept.append(p)
            walk(p, front, grandchildren)

    walk((), frozenset((e_i,)), trie.root[1])
    return kept


def _step_frontier(
    g: KnowledgeGraph, frontier: frozenset[int], rel: int, exclude_fact: int | None
) -> frozenset[int]:
    """The entities that share a fact of relation ``rel``, other than
    ``exclude_fact``, with some entity of ``frontier``: the union of the
    frontier entities' :meth:`~KnowledgeGraph.relation_neighbors`. Only
    a frontier entity inside the excluded fact, when that fact has
    relation ``rel``, has its part rebuilt from its other ``rel`` facts."""
    nb = g.relation_neighbors(rel)
    excluded: frozenset[int] = frozenset()
    if exclude_fact is not None and g.facts[exclude_fact].relation == rel:
        excluded = g.fact_entity_set(exclude_fact)
    out: set[int] = set()
    for u in frontier:
        if u in excluded:
            for fi in g.facts_of_entity(u):
                if fi != exclude_fact and g.facts[fi].relation == rel:
                    out.update(g.fact_entity_set(fi))
        else:
            out.update(nb.get(u, ()))
    return frozenset(out)


def _bfs_levels(
    g: KnowledgeGraph,
    src: int,
    cutoff: int,
    exclude_fact: int | None,
    stop_at: int | None = None,
) -> list[int]:
    """BFS hop levels from ``src`` over entity co-occurrence; -1 means
    unreached.

    Traverses the co-occurrence counts rather than fact lists; an edge
    surviving only through the excluded fact is skipped. That fact adds
    m(u) * m(v) to cell (u, v), where m(x) counts the positions of x in
    it, so the edge survives iff its count exceeds that product. The
    search returns the moment ``stop_at`` is discovered, so only levels
    strictly below its distance are guaranteed complete.
    """
    indptr, indices, counts = g.cooccurrence_rows()
    mult: dict[int, int] = {}
    if exclude_fact is not None:
        for x in g.facts[exclude_fact].entities:
            mult[x] = mult.get(x, 0) + 1
    dist = [-1] * g.num_entities
    dist[src] = 0
    frontier = [src]
    for d in range(1, cutoff + 1):
        nxt: list[int] = []
        for u in frontier:
            mu = mult.get(u)
            if mu:
                for j in range(indptr[u], indptr[u + 1]):
                    v = indices[j]
                    if dist[v] < 0 and counts[j] > mu * mult.get(v, 0):
                        dist[v] = d
                        if v == stop_at:
                            return dist
                        nxt.append(v)
            else:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = d
                        if v == stop_at:
                            return dist
                        nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return dist


def shortest_relational_paths(
    g: KnowledgeGraph,
    e_i: int,
    e_j: int,
    cfg: PathSearchConfig,
    exclude_fact: int | None = None,
) -> list[RelationalPath]:
    """Distinct relation sequences of all minimum-hop walks e_i -> e_j.

    Sequences with repeated relations are removed; the result is the
    lexicographically-first ``sp_cap`` of the survivors. Empty when the
    endpoints are unreachable within ``max_hops`` (or identical).
    """
    g._check_entity(e_i)
    g._check_entity(e_j)
    if e_i == e_j:
        return []
    # a single BFS from the destination both finds the minimum hop count
    # and yields the level sets used to prune forward expansion
    dist_dst = _bfs_levels(g, e_j, cfg.max_hops, exclude_fact, stop_at=e_i)
    hops = dist_dst[e_i]
    if hops < 0:
        return []

    results: list[RelationalPath] = []

    def expand(prefix: RelationalPath, frontier: frozenset[int], depth: int) -> None:
        if len(results) >= cfg.sp_cap:
            return
        if depth == hops:
            results.append(prefix)
            return
        want = hops - depth - 1
        by_rel: dict[int, set[int]] = {}
        for u in frontier:
            for fi in g.facts_of_entity(u):
                if fi == exclude_fact:
                    continue
                f = g.facts[fi]
                if f.relation in prefix:
                    continue
                for v in g.fact_entity_set(fi):
                    if dist_dst[v] == want:
                        by_rel.setdefault(f.relation, set()).add(v)
        for rel in sorted(by_rel):
            expand(prefix + (rel,), frozenset(by_rel[rel]), depth + 1)
            if len(results) >= cfg.sp_cap:
                return

    expand((), frozenset((e_i,)), 0)
    return results
