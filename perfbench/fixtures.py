"""Seeded graph fixtures for the benchmark workloads.

Each fixture is a pure function of (workload, seed): the same pair
always yields the same TSV bytes, which the benchmark hashes and checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # ingest --kind: "hypergraph" (mixed arity) or "triples"
    task: str  # generate task ("all" or one task)
    workers: int
    entities: int
    relations: int
    tuples: int
    fringe: int = 0  # small separate components added after the main graph


# Sizes are scaled down from the shapes they imitate so that seven to ten
# full ingest/generate/verify/mix rounds fit in one benchmark run; the
# per-entity densities and skews are kept.
WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance fixture's generator (3000/150/10000 at full size):
        # every task, the only arity-n graph, the only run through the
        # fork pool; path search and IVA take most of generate. The
        # fringe of 2-7 entity components gives IVA balls small enough
        # for the exhaustive permutation check
        Workload("mixed-10k", "hypergraph", "all", 2, 200, 33, 667, fringe=12),
        # FB15k-237-like triples (237 relations, ~18.7 tuples per entity,
        # Zipf-0.5 entity degrees, Zipf-1.0 relations) with lcc only: the
        # one workload where the neighbourhood index and its memory dominate
        Workload("dense-ball", "triples", "lcc", 1, 800, 237, 14960),
    )
}

DEFAULT_SEED = 2024
FRINGE_SEED = 0


def _mixed(rng: random.Random, w: Workload) -> list[str]:
    # same draw order as the acceptance fixture, so seed 2024 at
    # 3000/150/10000 reproduces it exactly
    lines = []
    for _ in range(w.tuples):
        arity = rng.choice([2, 2, 2, 3])
        ents = [f"e{rng.randrange(w.entities)}" for _ in range(arity)]
        lines.append("\t".join([f"r{rng.randrange(w.relations)}"] + ents))
    return lines + _fringe(w)


def _fringe(w: Workload) -> list[str]:
    """``w.fringe`` random trees of new entities, one arity-2 fact per
    edge. Their k-hop balls stay within the tree, so the IVA matrices
    are at most 7 x 7. The sizes cycle through 2 to 7, and the edges and
    relations come from a fixed seed: the factorial permutation check
    depends on the shape of each tree, so the fringe is the same for
    every workload seed and costs the same in every run."""
    rng = random.Random(FRINGE_SEED)
    lines = []
    next_id = w.entities
    for c in range(w.fringe):
        size = 2 + c % 6
        members = [f"e{next_id + i}" for i in range(size)]
        next_id += size
        for i in range(1, size):
            pair = [members[i], members[rng.randrange(i)]]
            rng.shuffle(pair)
            lines.append("\t".join([f"r{rng.randrange(w.relations)}"] + pair))
    return lines


def _zipf_counts(n: int, total: int, exponent: float) -> list[int]:
    """``total`` split over ``n`` ranks in proportion to 1/(rank+1)**exponent,
    rounded by largest remainder so the counts are exact."""
    weights = [1.0 / (i + 1) ** exponent for i in range(n)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - weights[i] * scale, i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _triples(rng: random.Random, w: Workload, ent_exp: float = 0.5, rel_exp: float = 1.0) -> list[str]:
    """Distinct head/relation/tail triples without self-loops.

    A configuration model: every entity gets an exact degree and every
    relation an exact count from the Zipf exponents, and the seed only
    decides the wiring and the names. Keeping the degree sequence fixed
    keeps the work per run nearly the same across seeds.
    """
    stubs = [e for e, c in enumerate(_zipf_counts(w.entities, 2 * w.tuples, ent_exp)) for _ in range(c)]
    rels = [r for r, c in enumerate(_zipf_counts(w.relations, w.tuples, rel_exp)) for _ in range(c)]
    rng.shuffle(stubs)
    rng.shuffle(rels)
    ent_names = [f"e{i}" for i in rng.sample(range(w.entities), w.entities)]
    rel_names = [f"r{i}" for i in rng.sample(range(w.relations), w.relations)]
    seen: set[tuple[int, int, int]] = set()
    lines = []
    for k, r in enumerate(rels):
        # re-draw the tail stub from the unused ones until the triple is
        # new and not a self-loop; swapping keeps every degree exact
        for _ in range(100):
            h, t = stubs[2 * k], stubs[2 * k + 1]
            if h != t and (h, r, t) not in seen:
                seen.add((h, r, t))
                lines.append(f"{ent_names[h]}\t{rel_names[r]}\t{ent_names[t]}")
                break
            if 2 * k + 2 >= len(stubs):
                break
            j = rng.randrange(2 * k + 2, len(stubs))
            stubs[2 * k + 1], stubs[j] = stubs[j], stubs[2 * k + 1]
    return lines


def fixture_text(w: Workload, seed: int) -> str:
    """The train split of workload ``w`` at ``seed`` as TSV text."""
    if w.kind == "hypergraph":
        lines = _mixed(random.Random(seed), w)
    else:
        lines = _triples(random.Random(f"{w.name}:{seed}"), w)
    return "\n".join(lines) + "\n"
