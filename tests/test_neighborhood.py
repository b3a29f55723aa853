import random

import numpy as np
import pytest

from kgsignals.graph import Fact, build_index
from kgsignals.neighborhood import (
    EmptyNeighborhoodError,
    NeighborhoodIndex,
    khop_entities,
    local_clustering_coefficient,
    occurrence_distribution,
)

from oracles import bfs_ball, lcc_oracle, occurrence_oracle, random_graph


def chain3():
    return build_index([Fact(0, (0, 1)), Fact(0, (1, 2))], 3, 1)


def dense_graph(seed):
    """At most 12 entities and 30-60 facts of arity 2-4: the 2- and
    3-hop balls cover the whole component, and the last fact repeats an
    entity, so some diagonal cell is nonzero."""
    rng = random.Random(seed)
    n_ent = rng.randint(4, 12)
    facts = [
        Fact(rng.randrange(3), tuple(rng.randrange(n_ent) for _ in range(rng.randint(2, 4))))
        for _ in range(rng.randint(30, 59))
    ]
    facts.append(Fact(0, (0, 1, 0)))
    return facts, n_ent


class TestKhopEntities:
    def test_chain_hop1(self):
        assert khop_entities(chain3(), 0, 1).entities == (1,)

    def test_chain_hop2(self):
        assert khop_entities(chain3(), 0, 2).entities == (1, 2)

    def test_isolated(self):
        g = build_index([Fact(0, (0, 1))], 3, 1)
        assert khop_entities(g, 2, 1).entities == ()

    def test_center_excluded(self):
        g = build_index([Fact(0, (0, 0)), Fact(0, (0, 1))], 2, 1)
        assert 0 not in khop_entities(g, 0, 2).entities

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            khop_entities(chain3(), 0, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bfs_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=40, max_relations=5, max_facts=60)
        g = build_index(facts, n_ent, n_rel)
        for e in range(0, n_ent, 3):
            for k in (1, 2, 3):
                assert set(khop_entities(g, e, k).entities) == bfs_ball(facts, e, k)

    def test_monotone_balls(self):
        rng = random.Random(4)
        facts, n_ent, n_rel = random_graph(rng, max_entities=30, max_relations=4, max_facts=40)
        g = build_index(facts, n_ent, n_rel)
        for e in range(n_ent):
            for k in (1, 2):
                assert set(khop_entities(g, e, k).entities) <= set(
                    khop_entities(g, e, k + 1).entities
                )


class TestOccurrenceDistribution:
    def test_two_symmetric_neighbors(self):
        g = build_index([Fact(0, (1, 0)), Fact(0, (1, 2))], 3, 1)
        dist = occurrence_distribution(g, 1, 1)
        assert dist.entities == (0, 2)
        assert dist.probabilities == (0.5, 0.5)

    def test_empty_neighborhood_raises(self):
        g = build_index([Fact(0, (0, 1))], 3, 1)
        with pytest.raises(EmptyNeighborhoodError):
            occurrence_distribution(g, 2, 1)

    def test_sums_to_one(self):
        rng = random.Random(12)
        facts, n_ent, n_rel = random_graph(rng, max_entities=25, max_relations=4, max_facts=50)
        g = build_index(facts, n_ent, n_rel)
        for e in range(n_ent):
            for k in (1, 2, 3):
                try:
                    dist = occurrence_distribution(g, e, k)
                except EmptyNeighborhoodError:
                    continue
                assert abs(sum(dist.probabilities) - 1.0) < 1e-9
                assert set(dist.entities) == set(khop_entities(g, e, k).entities)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_adjacency_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=10, max_relations=4, max_facts=25)
        g = build_index(facts, n_ent, n_rel)
        for e in range(n_ent):
            for k in (1, 2):
                try:
                    dist = occurrence_distribution(g, e, k)
                except EmptyNeighborhoodError:
                    continue
                want = occurrence_oracle(facts, n_ent, e, k)
                got = dict(zip(dist.entities, dist.probabilities))
                assert got == pytest.approx(want, abs=1e-12)


class TestLocalClusteringCoefficient:
    def test_triangle_is_one(self):
        facts = [Fact(0, (0, 1)), Fact(0, (1, 2)), Fact(0, (2, 0))]
        g = build_index(facts, 3, 1)
        assert local_clustering_coefficient(g, 0, 1) == 1.0

    def test_star_is_zero(self):
        facts = [Fact(0, (0, 1)), Fact(0, (0, 2)), Fact(0, (0, 3))]
        g = build_index(facts, 4, 1)
        assert local_clustering_coefficient(g, 0, 1) == 0.0

    def test_hyperedge_closes_pairs(self):
        # one arity-3 edge connects all pairs among the neighbors
        g = build_index([Fact(0, (0, 1, 2))], 3, 1)
        assert local_clustering_coefficient(g, 0, 1) == 1.0

    def test_degenerate_is_zero(self):
        g = build_index([Fact(0, (0, 1))], 2, 1)
        assert local_clustering_coefficient(g, 0, 1) == 0.0

    def test_path_graph_hop1_is_zero(self):
        # at radius 1 no two neighbors of a path vertex are adjacent
        facts = [Fact(0, (i, i + 1)) for i in range(6)]
        g = build_index(facts, 7, 1)
        for e in range(7):
            assert local_clustering_coefficient(g, e, 1) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_triangle_oracle(self, seed):
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=40, max_relations=5, max_facts=60)
        g = build_index(facts, n_ent, n_rel)
        for e in range(n_ent):
            got = local_clustering_coefficient(g, e, 1)
            assert 0.0 <= got <= 1.0
            assert got == lcc_oracle(facts, e, 1)


class TestNeighborhoodIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_to_pure_functions(self, seed):
        # the index is checked against the brute-force oracles in both
        # degree modes, and the module-level wrappers against the index
        rng = random.Random(seed)
        facts, n_ent, n_rel = random_graph(rng, max_entities=30, max_relations=5, max_facts=50)
        g = build_index(facts, n_ent, n_rel)
        index = NeighborhoodIndex(g, 3)
        for e in range(n_ent):
            for k in (1, 2, 3):
                ball = tuple(int(x) for x in index.ball(e, k))
                assert ball == tuple(sorted(bfs_ball(facts, e, k)))
                assert khop_entities(g, e, k).entities == ball
                for weighted in (False, True):
                    got = index.clustering(e, k, weighted=weighted)
                    assert got == lcc_oracle(facts, e, k, weighted=weighted)
                    assert local_clustering_coefficient(g, e, k, weighted=weighted) == got
                    if not ball:
                        with pytest.raises(EmptyNeighborhoodError):
                            index.occurrence(e, k, weighted=weighted)
                        continue
                    ents, probs = index.occurrence(e, k, weighted=weighted)
                    got = dict(zip((int(x) for x in ents), (float(p) for p in probs)))
                    assert got == occurrence_oracle(facts, n_ent, e, k, weighted=weighted)
                    dist = occurrence_distribution(g, e, k, weighted=weighted)
                    assert dict(zip(dist.entities, dist.probabilities)) == got

    @pytest.mark.parametrize("seed", range(12), ids=lambda s: f"dense{s}")
    def test_dense_graphs_match_oracles(self, seed):
        # every entity of one component in its 2- and 3-hop balls, and
        # diagonal cells: the degree and pair counts of each target are
        # counted over rows that include self-co-occurrence
        facts, n_ent = dense_graph(seed)
        g = build_index(facts, n_ent, 3)
        indptr, indices, _ = g.cooccurrence_counts()
        assert (np.repeat(np.arange(n_ent), np.diff(indptr)) == indices).any()  # a diagonal cell
        index = NeighborhoodIndex(g, 3)
        for e in range(n_ent):
            assert bfs_ball(facts, e, 2) == bfs_ball(facts, e, n_ent)  # saturated
            for k in (1, 2, 3):
                for weighted in (False, True):
                    want = lcc_oracle(facts, e, k, weighted=weighted)
                    assert index.clustering(e, k, weighted=weighted) == want
                    assert local_clustering_coefficient(g, e, k, weighted=weighted) == want
                    if not bfs_ball(facts, e, k):
                        with pytest.raises(EmptyNeighborhoodError):
                            index.occurrence(e, k, weighted=weighted)
                        continue
                    want = occurrence_oracle(facts, n_ent, e, k, weighted=weighted)
                    ents, probs = index.occurrence(e, k, weighted=weighted)
                    assert dict(zip(ents.tolist(), probs.tolist())) == want
                    dist = occurrence_distribution(g, e, k, weighted=weighted)
                    assert dict(zip(dist.entities, dist.probabilities)) == want

    def test_radii_past_int8(self):
        # a 260-entity chain holds distances past 127, so the hop levels
        # need a dtype wider than int8
        facts = [Fact(i % 3, (i, i + 1)) for i in range(259)]
        g = build_index(facts, 260, 3)
        index = NeighborhoodIndex(g, 200)
        for e in (0, 131):
            assert set(khop_entities(g, e, 200).entities) == bfs_ball(facts, e, 200)
            for k in (1, 128, 200):
                assert set(index.ball(e, k).tolist()) == bfs_ball(facts, e, k)
                for weighted in (False, True):
                    assert index.clustering(e, k, weighted=weighted) == lcc_oracle(facts, e, k, weighted=weighted)
                    ents, probs = index.occurrence(e, k, weighted=weighted)
                    want = occurrence_oracle(facts, 260, e, k, weighted=weighted)
                    assert dict(zip(ents.tolist(), probs.tolist())) == want

    def test_radius_bounds(self):
        index = NeighborhoodIndex(chain3(), 2)
        for k in (0, 3):
            with pytest.raises(ValueError):
                index.ball(0, k)
