"""Independent brute-force references used by the test suite.

Everything here works directly off the raw fact list with linear scans
and exhaustive enumeration; none of it shares code with the package's
indexed implementations.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

from kgsignals.graph import Fact


def random_graph(
    rng: random.Random,
    max_entities: int = 50,
    max_relations: int = 10,
    max_facts: int = 80,
    max_arity: int = 4,
) -> tuple[list[Fact], int, int]:
    n_ent = rng.randint(3, max_entities)
    n_rel = rng.randint(1, max_relations)
    n_facts = rng.randint(1, max_facts)
    facts = []
    for _ in range(n_facts):
        arity = rng.randint(2, max_arity)
        facts.append(
            Fact(
                relation=rng.randrange(n_rel),
                entities=tuple(rng.randrange(n_ent) for _ in range(arity)),
            )
        )
    return facts, n_ent, n_rel


# -- incidence scans ---------------------------------------------------


def scan_entities_of_relation(facts: list[Fact], r: int) -> set[int]:
    return {e for f in facts if f.relation == r for e in f.entities}


def scan_neighbors(facts: list[Fact], e: int) -> set[int]:
    out: set[int] = set()
    for f in facts:
        if e in f.entities:
            out.update(f.entities)
    out.discard(e)
    return out


def scan_incident_relations(facts: list[Fact], n_rel: int, r: int, exclude: set[int]) -> set[int]:
    er = scan_entities_of_relation(facts, r)
    out = set()
    for r2 in range(n_rel):
        if r2 == r or r2 in exclude:
            continue
        if scan_entities_of_relation(facts, r2) & er:
            out.add(r2)
    return out


# -- shortest relational paths -----------------------------------------


def sp_oracle(
    facts: list[Fact],
    e_i: int,
    e_j: int,
    max_hops: int,
    sp_cap: int,
    exclude_fact: int | None = None,
) -> list[tuple[int, ...]]:
    """BFS-level enumeration of every minimum-hop relation sequence.

    Every minimum-hop walk visits one entity per BFS level, so sequence
    sets can be propagated level by level.
    """
    if e_i == e_j:
        return []
    usable = [f for i, f in enumerate(facts) if i != exclude_fact]
    dist = {e_i: 0}
    frontier = {e_i}
    hops = None
    for d in range(1, max_hops + 1):
        nxt: set[int] = set()
        for f in usable:
            es = set(f.entities)
            if es & frontier:
                nxt |= {v for v in es if v not in dist}
        for v in nxt:
            dist[v] = d
        if e_j in nxt:
            hops = d
            break
        if not nxt:
            break
        frontier = nxt
    if hops is None:
        return []
    seqs: dict[int, set[tuple[int, ...]]] = {e_i: {()}}
    for t in range(1, hops + 1):
        new: dict[int, set[tuple[int, ...]]] = {}
        for f in usable:
            sources = [u for u in f.entities if dist.get(u) == t - 1 and u in seqs]
            targets = {v for v in f.entities if dist.get(v) == t}
            if not sources or not targets:
                continue
            grown = {s + (f.relation,) for u in sources for s in seqs[u]}
            for v in targets:
                new.setdefault(v, set()).update(grown)
        seqs = new
    clean = sorted(p for p in seqs.get(e_j, set()) if len(set(p)) == len(p))
    return clean[:sp_cap]


# -- entropy-guided paths ----------------------------------------------


def _entropy_scan(facts: list[Fact], n_ent: int, r: int) -> float:
    p = len(scan_entities_of_relation(facts, r)) / n_ent
    q = 1.0 - p
    h = 0.0
    if p > 0:
        h -= p * math.log(p)
    if q > 0:
        h -= q * math.log(q)
    return h


def _cond_entropy_scan(facts: list[Fact], n_ent: int, r_prev: int, r_next: int) -> float:
    ep = scan_entities_of_relation(facts, r_prev)
    en = scan_entities_of_relation(facts, r_next)
    u = len((ep | en) - (ep & en)) / len(ep)
    v = len(ep & en) / len(ep)
    h = 0.0
    if u > 0:
        h += u * math.log(u)
    if v > 0:
        h += v * math.log(v)
    return -(len(ep) / n_ent) * h


def ip_oracle(
    facts: list[Fact], n_ent: int, n_rel: int, r: int, k: int, max_hops: int
) -> list[tuple[int, ...]]:
    """Enumerate duplicate-free relation sequences and keep exactly those
    passing the top-k seed filter and bottom-k extension filters, both
    computed by full sorting over linear scans."""
    seeds = sorted(
        scan_incident_relations(facts, n_rel, r, set()),
        key=lambda rr: (-_entropy_scan(facts, n_ent, rr), rr),
    )[:k]
    result: set[tuple[int, ...]] = {(s,) for s in seeds}
    frontier = list(result)
    for _ in range(max_hops - 1):
        new: list[tuple[int, ...]] = []
        for p in frontier:
            last = p[-1]
            cands = sorted(
                scan_incident_relations(facts, n_rel, last, set(p)),
                key=lambda rr: (_cond_entropy_scan(facts, n_ent, rr, last), rr),
            )[:k]
            new.extend(p + (c,) for c in cands)
        result.update(new)
        frontier = new
    return sorted(result)


# -- matrix equivalence ------------------------------------------------


def permutation_oracle(a: list[list[int]], b: list[list[int]]) -> bool:
    """Some relabelling p with b[i][j] == a[p[i]][p[j]] for all cells,
    tried over every permutation with plain list indexing."""
    n = len(a)
    if len(b) != n:
        return False
    return any(
        all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


# -- matrix flattening -------------------------------------------------


def flatten_cells(entities: list[int], values: list[list[int]]) -> list[int]:
    """Entity ids in column order, then the cells (i, j) with i <= j,
    row-major with the diagonal: n + n(n+1)/2 items."""
    n = len(entities)
    out = list(entities)
    for i in range(n):
        for j in range(i, n):
            out.append(values[i][j])
    return out


def unflatten_cells(seq: list[int], n: int) -> tuple[list[int], list[list[int]]]:
    """Inverse of :func:`flatten_cells` for n entities: the entity ids and
    the symmetric matrix."""
    if len(seq) != n + n * (n + 1) // 2:
        raise ValueError("flattened sequence has wrong length")
    values = [[0] * n for _ in range(n)]
    rest = iter(seq[n:])
    for i in range(n):
        for j in range(i, n):
            values[i][j] = values[j][i] = next(rest)
    return list(seq[:n]), values


def token_cells(tokens: list[int], n: int, entity_base: int, value_base: int) -> list[int]:
    """The tokens of an n-entity matrix less their offsets: the entity ids,
    then the cell values, in the order of :func:`flatten_cells`."""
    return [t - entity_base for t in tokens[:n]] + [t - value_base for t in tokens[n:]]


# -- path grounding ----------------------------------------------------


def grounding_oracle(
    facts: list[Fact],
    e_i: int,
    e_j: int,
    path: tuple[int, ...],
    exclude_fact: int | None = None,
) -> bool:
    """Plain recursive walk enumeration, no memoization."""

    def rec(step: int, prev: Fact | None) -> bool:
        if step == len(path):
            return prev is not None and e_j in prev.entities
        for i, f in enumerate(facts):
            if i == exclude_fact or f.relation != path[step]:
                continue
            if prev is None:
                if e_i not in f.entities:
                    continue
            elif not set(prev.entities) & set(f.entities):
                continue
            if rec(step + 1, f):
                return True
        return False

    return rec(0, None)


# -- neighborhoods -----------------------------------------------------


def bfs_ball(facts: list[Fact], e: int, k: int) -> set[int]:
    seen = {e}
    frontier = {e}
    for _ in range(k):
        nxt = set()
        for u in frontier:
            nxt |= scan_neighbors(facts, u) - seen
        seen |= nxt
        frontier = nxt
    return seen - {e}


def avg_degree_oracle(facts: list[Fact], n_ent: int) -> float:
    """Distinct co-occurrence partners per entity, from partner sets."""
    partners: dict[int, set[int]] = {}
    for f in facts:
        es = set(f.entities)
        for e in es:
            partners.setdefault(e, set()).update(es - {e})
    return sum(len(s) for s in partners.values()) / n_ent if n_ent else 0.0


def dense_adjacency(facts: list[Fact], n_ent: int) -> list[list[int]]:
    a = [[0] * n_ent for _ in range(n_ent)]
    for f in facts:
        ents = f.entities
        for i in range(len(ents)):
            for j in range(i + 1, len(ents)):
                x, y = ents[i], ents[j]
                if x == y:
                    a[x][x] += 1
                else:
                    a[x][y] += 1
                    a[y][x] += 1
    return a


def occurrence_oracle(
    facts: list[Fact], n_ent: int, e: int, k: int, weighted: bool = True
) -> dict[int, float]:
    """Weighted: dense-adjacency row sums over ball + center. Simple:
    count of distinct other members the entity co-occurs with."""
    ball = sorted(bfs_ball(facts, e, k))
    members = set(ball) | {e}
    a = dense_adjacency(facts, n_ent)
    degrees = {}
    for t in ball:
        if weighted:
            degrees[t] = sum(a[t][x] for x in members)
        else:
            degrees[t] = sum(1 for x in members if x != t and a[t][x] > 0)
    total = sum(degrees.values())
    return {t: d / total for t, d in degrees.items()}


def lcc_oracle(facts: list[Fact], e: int, k: int, weighted: bool = False) -> float:
    """Naive closed-pair counting over the k-hop ball. Weighted mode
    divides by C(d, 2) with d the number of position pairs joining the
    center to a ball entity."""
    ball = sorted(bfs_ball(facts, e, k))
    if weighted:
        d = sum(f.entities.count(e) * f.entities.count(x) for f in facts for x in ball)
    else:
        d = len(ball)
    if d < 2:
        return 0.0
    closed = 0
    for u, v in combinations(ball, 2):
        if v in scan_neighbors(facts, u):
            closed += 1
    return closed / (d * (d - 1) / 2)
