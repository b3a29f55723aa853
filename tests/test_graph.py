import random

import pytest
from hypothesis import given, settings, strategies as st

from kgsignals.graph import (
    Fact,
    KnowledgeGraph,
    MalformedTupleError,
    UnknownIdError,
    build_index,
)

from oracles import (
    random_graph,
    scan_entities_of_relation,
    scan_incident_relations,
    scan_neighbors,
)


def test_empty_graph():
    g = build_index([], num_entities=5, num_relations=2)
    assert g.num_entities == 5
    assert g.entities_of_relation(0) == frozenset()
    assert g.entities_of_relation(1) == frozenset()
    assert g.neighbors(3) == frozenset()


def test_single_tuple():
    g = build_index([Fact(0, (0, 1))], num_entities=2, num_relations=1)
    assert g.entities_of_relation(0) == {0, 1}
    assert g.facts_of_entity(0) == g.facts_of_entity(1) == (0,)


BUILDERS = pytest.mark.parametrize(
    "build", [build_index, KnowledgeGraph], ids=["build_index", "KnowledgeGraph"]
)


@BUILDERS
def test_arity_validation(build):
    with pytest.raises(MalformedTupleError, match=r"^tuple 1: arity 1 < 2$"):
        build((Fact(0, (0, 1)), Fact(0, (1,))), 2, 1)


@BUILDERS
def test_id_bounds_validation(build):
    with pytest.raises(UnknownIdError, match=r"^tuple 0: entity id 9 out of range$"):
        build((Fact(0, (0, 9)),), 2, 1)
    with pytest.raises(UnknownIdError, match=r"^tuple 0: relation id 7 out of range$"):
        build((Fact(7, (0, 1)),), 2, 1)


def test_lookup_errors():
    g = build_index([Fact(0, (0, 1))], num_entities=2, num_relations=1)
    with pytest.raises(UnknownIdError):
        g.entities_of_relation(5)
    with pytest.raises(UnknownIdError):
        g.neighbors(-1)


def test_arity3_entity_set():
    g = build_index([Fact(0, (0, 1, 2))], num_entities=3, num_relations=1)
    assert g.entities_of_relation(0) == {0, 1, 2}
    assert g.neighbors(1) == {0, 2}


def test_shared_entity_union():
    facts = [Fact(0, (0, 1)), Fact(0, (1, 2))]
    g = build_index(facts, num_entities=3, num_relations=1)
    assert g.entities_of_relation(0) == {0, 1, 2}


def test_incident_relations_basic():
    facts = [Fact(0, (0, 1)), Fact(1, (1, 2)), Fact(2, (3, 4))]
    g = build_index(facts, num_entities=5, num_relations=3)
    assert g.incident_relations(0) == {1}
    assert g.incident_relations(2) == frozenset()


def test_self_loop_set_semantics():
    g = build_index([Fact(0, (1, 1))], num_entities=2, num_relations=1)
    assert g.entities_of_relation(0) == {1}
    assert 1 not in g.neighbors(1)


def test_isolated_entity():
    g = build_index([Fact(0, (0, 1))], num_entities=3, num_relations=1)
    assert g.neighbors(2) == frozenset()


@pytest.mark.parametrize("seed", range(10))
def test_matches_linear_scan_oracle(seed):
    rng = random.Random(seed)
    facts, n_ent, n_rel = random_graph(rng, max_entities=20, max_relations=6, max_facts=50)
    g = build_index(facts, n_ent, n_rel)
    for r in range(n_rel):
        assert g.entities_of_relation(r) == scan_entities_of_relation(facts, r)
        assert g.incident_relations(r) == scan_incident_relations(facts, n_rel, r, set())
        r_facts = [i for i, f in enumerate(facts) if f.relation == r]
        want = {}
        for i in r_facts:
            for e in facts[i].entities:
                want.setdefault(e, set()).update(facts[i].entities)
        assert g.relation_neighbors(r) == want
        for e, got in g.relation_neighbors(r).items():
            only = [i for i in r_facts if e in facts[i].entities]
            # one fact: its own entity set, not a copy
            assert (got is g.fact_entity_set(only[0])) == (len(only) == 1)
    for e in range(n_ent):
        assert g.neighbors(e) == scan_neighbors(facts, e)
        assert g.facts_of_entity(e) == tuple(i for i, f in enumerate(facts) if e in f.entities)
    for i, f in enumerate(facts):
        assert g.fact_entity_set(i) == set(f.entities)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_membership_and_symmetry_properties(seed):
    rng = random.Random(seed)
    facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=5, max_facts=30)
    g = build_index(facts, n_ent, n_rel)
    for i, f in enumerate(facts):
        for e in f.entities:
            assert e in g.entities_of_relation(f.relation)
            assert i in g.facts_of_entity(e)
    for r1 in range(n_rel):
        for r2 in g.incident_relations(r1):
            assert r1 in g.incident_relations(r2)
    for e1 in range(n_ent):
        for e2 in g.neighbors(e1):
            assert e1 in g.neighbors(e2)


def test_build_order_invariance():
    rng = random.Random(7)
    facts, n_ent, n_rel = random_graph(rng, max_entities=15, max_relations=5, max_facts=30)
    g1 = build_index(facts, n_ent, n_rel)
    shuffled = list(facts)
    rng.shuffle(shuffled)
    g2 = build_index(shuffled, n_ent, n_rel)
    for r in range(n_rel):
        assert g1.entities_of_relation(r) == g2.entities_of_relation(r)
        assert g1.incident_relations(r) == g2.incident_relations(r)
    for e in range(n_ent):
        assert g1.neighbors(e) == g2.neighbors(e)
