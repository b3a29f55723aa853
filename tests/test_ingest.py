import random

import pytest

from kgsignals.ingest import (
    ParseError,
    SPECIAL_TOKENS,
    VocabBuilder,
    Vocabulary,
    compute_stats,
    parse_hypergraph,
    parse_triples,
)

from oracles import avg_degree_oracle, random_graph


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_single_triple(tmp_path):
    b = VocabBuilder()
    facts = parse_triples(write(tmp_path, "t.tsv", "A\tlikes\tB\n"), b)
    assert len(facts) == 1
    f = facts[0]
    assert f.relation == b.relations["likes"]
    assert f.entities == (b.entities["A"], b.entities["B"])


def test_parse_triples_field_count_error(tmp_path):
    b = VocabBuilder()
    p = write(tmp_path, "t.tsv", "A\tlikes\tB\nA\tB\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_triples(p, b)


def test_parse_triples_empty_file(tmp_path):
    assert parse_triples(write(tmp_path, "t.tsv", ""), VocabBuilder()) == []


def test_duplicate_lines_kept(tmp_path):
    b = VocabBuilder()
    facts = parse_triples(write(tmp_path, "t.tsv", "A\tr\tB\nA\tr\tB\n"), b)
    assert len(facts) == 2


def test_parse_hypergraph_arity(tmp_path):
    b = VocabBuilder()
    facts = parse_hypergraph(write(tmp_path, "h.tsv", "rel\ta\tb\tc\n"), b)
    assert facts[0].arity == 3


def test_parse_hypergraph_arity_error(tmp_path):
    p = write(tmp_path, "h.tsv", "rel\ta\tb\nrel\ta\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_hypergraph(p, VocabBuilder())


def test_first_seen_id_order(tmp_path):
    b = VocabBuilder()
    parse_triples(write(tmp_path, "t.tsv", "C\tr2\tA\nA\tr1\tB\n"), b)
    assert b.entities == {"C": 0, "A": 1, "B": 2}
    assert b.relations == {"r2": 0, "r1": 1}


def test_empty_vocab_has_only_specials(tmp_path):
    v = VocabBuilder().freeze()
    path = tmp_path / "vocab.tsv"
    v.save(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(SPECIAL_TOKENS)


def test_vocab_round_trip(tmp_path):
    b = VocabBuilder()
    for s in ["x", "y", "z"]:
        b.entity_id(s)
    for s in ["p", "q"]:
        b.relation_id(s)
    v = b.freeze()
    path = tmp_path / "vocab.tsv"
    v.save(path)
    v2 = Vocabulary.load(path)
    assert v2.entities == v.entities
    assert v2.relations == v.relations
    assert v2.hash() == v.hash()


def test_vocab_bytes_deterministic(tmp_path):
    def build():
        b = VocabBuilder()
        parse_triples(write(tmp_path, "t.tsv", "A\tr\tB\nC\ts\tA\n"), b)
        return b.freeze()

    p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
    build().save(p1)
    build().save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_token_id_layout():
    b = VocabBuilder()
    b.entity_id("a")
    b.entity_id("b")
    b.relation_id("r")
    v = b.freeze()
    ns = v.num_specials
    assert v.entity_token(0) == ns
    assert v.relation_token(0) == ns + 2
    assert v.value_base == ns + 3
    assert v.value_token(5, 64) == (v.value_base + 5, False)
    assert v.value_token(99, 64) == (v.value_base + 64, True)
    assert v.entity_of_token(ns + 1) == 1
    assert v.relation_of_token(ns + 2) == 0


def test_reemit_triples_round_trip(tmp_path):
    text = "A\tr\tB\nC\ts\tA\nA\tr\tB\n"
    b = VocabBuilder()
    facts = parse_triples(write(tmp_path, "t.tsv", text), b)
    ent_by_id = {i: s for s, i in b.entities.items()}
    rel_by_id = {i: s for s, i in b.relations.items()}
    out = "".join(
        f"{ent_by_id[f.entities[0]]}\t{rel_by_id[f.relation]}\t{ent_by_id[f.entities[1]]}\n"
        for f in facts
    )
    assert out == text


def test_stats(tmp_path):
    b = VocabBuilder()
    train = parse_triples(write(tmp_path, "tr.tsv", "A\tr\tB\nB\tr\tC\n"), b)
    valid = parse_triples(write(tmp_path, "va.tsv", "A\ts\tC\n"), b)
    stats = compute_stats(b.freeze(), {"train": train, "valid": valid})
    assert stats.num_entities == 3
    assert stats.num_relations == 2
    assert stats.split_counts == {"train": 2, "valid": 1}
    assert stats.max_arity == 2
    assert stats.tuples_per_entity == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(20))
def test_avg_degree_matches_partner_sets_across_splits(seed):
    rng = random.Random(seed)
    facts, n_ent, n_rel = random_graph(rng, max_entities=20, max_relations=4, max_facts=40)
    cut = rng.randrange(len(facts) + 1)
    vocab = Vocabulary(
        entities={f"e{i}": i for i in range(n_ent)}, relations={f"r{i}": i for i in range(n_rel)}
    )
    stats = compute_stats(vocab, {"train": facts[:cut], "valid": facts[cut:]})
    assert stats.avg_degree == avg_degree_oracle(facts, n_ent)


@pytest.mark.parametrize("parse, text", [
    (parse_triples, "A\tr\tB\n\nB\ts\tC\nC\tr\tA\n"),
    (parse_hypergraph, "r\tA\tB\tC\n\ns\tB\tC\nr\tC\tA\n"),
])
def test_lf_crlf_and_cr_line_endings_give_the_same_facts(tmp_path, parse, text):
    # the last file starts with a UTF-8 byte-order mark, which is not
    # part of the first name
    parsed = []
    for i, (bom, end) in enumerate([("", "\n"), ("", "\r\n"), ("", "\r"), ("\ufeff", "\n")]):
        p = tmp_path / f"f{i}.tsv"
        p.write_bytes((bom + text.replace("\n", end)).encode())
        b = VocabBuilder()
        parsed.append((parse(p, b), b.freeze()))
    assert parsed[0] == parsed[1] == parsed[2] == parsed[3]
    assert len(parsed[0][0]) == 3
