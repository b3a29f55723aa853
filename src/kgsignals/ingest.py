"""File parsing, vocabulary construction and dataset statistics.

Two input conventions are supported:

* triples:     ``head<TAB>relation<TAB>tail`` (FB15k-237 / WN18RR style)
* hypergraph:  ``relation<TAB>e1<TAB>e2[<TAB>e3...]`` (JF17K style)

Every input file is UTF-8 and is read by :func:`read_lines`: a line
ends at LF, CRLF or CR, empty lines are skipped, and a byte that is not
UTF-8 raises :class:`ParseError` naming the file and line (exit 2).
Surface strings are kept verbatim (no normalization); all math
downstream runs on dense integer ids.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Fact, cooccurrence_arrays

# Reserved special tokens; their ids form a contiguous block below all
# entity and relation token ids. Order is part of the file format.
SPECIAL_TOKENS = (
    "[PAD]",
    "[MASK]",
    "[SEP]",
    "[EOS]",
    "[NO_PATH]",
    "[SP]",
    "[IP]",
    "[KHN]",
    "[IVA]",
    "[LCC]",
)

TASK_TOKENS = {"sp": "[SP]", "ip": "[IP]", "khn": "[KHN]", "iva": "[IVA]", "lcc": "[LCC]"}


class ParseError(Exception):
    """Malformed input line; message carries file and line number."""


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The number and text of each non-empty line of the UTF-8 file
    ``path``. A line ends at LF, CRLF or CR, and a byte-order mark that
    starts the file is dropped. Raises :class:`ParseError` at the first
    line holding bytes that are not UTF-8."""
    # undecodable bytes become lone surrogates, which do not encode back
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ParseError(f"{path}:{ln}: not UTF-8 at column {exc.start + 1}") from None
            yield ln, line


@dataclass
class Vocabulary:
    """Bijective surface-string <-> id maps plus token-id arithmetic.

    Internal entity and relation ids are dense and 0-based. Serialized
    token ids share one space: specials first, then entities in
    first-seen order, then relations in first-seen order. Numeric value
    tokens (adjacency counts) occupy a dedicated range above relations.
    """

    entities: dict[str, int] = field(default_factory=dict)
    relations: dict[str, int] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_specials(self) -> int:
        return len(SPECIAL_TOKENS)

    def special_token(self, name: str) -> int:
        return SPECIAL_TOKENS.index(name)

    def entity_token(self, e: int) -> int:
        return self.num_specials + e

    def relation_token(self, r: int) -> int:
        return self.num_specials + self.num_entities + r

    @property
    def value_base(self) -> int:
        return self.num_specials + self.num_entities + self.num_relations

    def value_token(self, v: int, ceiling: int) -> tuple[int, bool]:
        """Token id for an integer count; clamped at ``ceiling``.

        Returns (token, clamped_flag).
        """
        clamped = v > ceiling
        return self.value_base + min(v, ceiling), clamped

    def entity_of_token(self, tok: int) -> int:
        e = tok - self.num_specials
        if not 0 <= e < self.num_entities:
            raise ValueError(f"token {tok} is not an entity token")
        return e

    def relation_of_token(self, tok: int) -> int:
        r = tok - self.num_specials - self.num_entities
        if not 0 <= r < self.num_relations:
            raise ValueError(f"token {tok} is not a relation token")
        return r

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        lines = [f"#kgsignals-vocab\tentities={self.num_entities}\trelations={self.num_relations}"]
        for i, tok in enumerate(SPECIAL_TOKENS):
            lines.append(f"{tok}\t{i}")
        for s, e in sorted(self.entities.items(), key=lambda kv: kv[1]):
            lines.append(f"{s}\t{self.entity_token(e)}")
        for s, r in sorted(self.relations.items(), key=lambda kv: kv[1]):
            lines.append(f"{s}\t{self.relation_token(r)}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = read_lines(path)
        ln, first = next(lines, (0, ""))
        if ln != 1 or not first.startswith("#kgsignals-vocab"):
            raise ParseError(f"{path}:1: missing vocabulary header")
        try:
            header = dict(kv.split("=") for kv in first.split("\t")[1:])
            n_ent, n_rel = int(header["entities"]), int(header["relations"])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{path}:1: bad vocabulary header: expected entities=N and relations=N") from exc
        n_special = len(SPECIAL_TOKENS)
        rows: list[tuple[str, int]] = []
        for ln, line in lines:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{ln}: expected 'token<TAB>id'")
            try:
                rows.append((parts[0], int(parts[1])))
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from exc
        if len(rows) != n_special + n_ent + n_rel:
            raise ParseError(f"{path}: header counts disagree with body")
        rows.sort(key=lambda kv: kv[1])
        for i, (tok, tid) in enumerate(rows):
            if tid != i:
                raise ParseError(f"{path}: non-contiguous token id {tid}")
        if tuple(tok for tok, _ in rows[:n_special]) != SPECIAL_TOKENS:
            raise ParseError(f"{path}: special token block mismatch")
        vocab = cls()
        for tok, tid in rows[n_special : n_special + n_ent]:
            vocab.entities[tok] = tid - n_special
        for tok, tid in rows[n_special + n_ent :]:
            vocab.relations[tok] = tid - n_special - n_ent
        return vocab

    def hash(self) -> str:
        h = hashlib.sha256()
        for tok in SPECIAL_TOKENS:
            h.update(tok.encode())
        for s, i in sorted(self.entities.items(), key=lambda kv: kv[1]):
            h.update(b"e")
            h.update(s.encode())
        for s, i in sorted(self.relations.items(), key=lambda kv: kv[1]):
            h.update(b"r")
            h.update(s.encode())
        return h.hexdigest()


@dataclass
class VocabBuilder:
    """Assigns dense ids in first-seen order; freeze() yields a Vocabulary."""

    entities: dict[str, int] = field(default_factory=dict)
    relations: dict[str, int] = field(default_factory=dict)

    def entity_id(self, s: str) -> int:
        eid = self.entities.get(s)
        if eid is None:
            eid = len(self.entities)
            self.entities[s] = eid
        return eid

    def relation_id(self, s: str) -> int:
        rid = self.relations.get(s)
        if rid is None:
            rid = len(self.relations)
            self.relations[s] = rid
        return rid

    def freeze(self) -> Vocabulary:
        return Vocabulary(entities=dict(self.entities), relations=dict(self.relations))


@dataclass
class DatasetStats:
    num_entities: int
    num_relations: int
    split_counts: dict[str, int]
    tuples_per_entity: float
    avg_degree: float
    max_arity: int

    def as_dict(self) -> dict:
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "splits": dict(self.split_counts),
            "tuples_per_entity": self.tuples_per_entity,
            "avg_degree": self.avg_degree,
            "max_arity": self.max_arity,
        }


def parse_triples(path: str | Path, builder: VocabBuilder) -> list[Fact]:
    """Parse a tab-separated triple file into arity-2 facts r(h, t).

    Ids are assigned in first-seen order; duplicate lines are kept as
    distinct facts.
    """
    facts: list[Fact] = []
    for ln, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 tab-separated fields, got {len(parts)}")
        h, r, t = parts
        facts.append(
            Fact(
                relation=builder.relation_id(r),
                entities=(builder.entity_id(h), builder.entity_id(t)),
            )
        )
    return facts


def parse_hypergraph(path: str | Path, builder: VocabBuilder) -> list[Fact]:
    """Parse ``relation<TAB>e1<TAB>e2[<TAB>...]`` lines into arity-n facts."""
    facts: list[Fact] = []
    for ln, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(f"{path}:{ln}: arity {len(parts) - 1} < 2")
        facts.append(
            Fact(
                relation=builder.relation_id(parts[0]),
                entities=tuple(builder.entity_id(e) for e in parts[1:]),
            )
        )
    return facts


def compute_stats(vocab: Vocabulary, splits: dict[str, list[Fact]]) -> DatasetStats:
    """Dataset statistics over all ingested splits.

    The density column of common dataset tables has no published formula;
    tuples-per-entity and average co-occurrence degree are reported
    instead, labeled as such.
    """
    n_ent = vocab.num_entities
    counts = {name: len(facts) for name, facts in splits.items()}
    all_facts = [f for facts in splits.values() for f in facts]
    max_arity = max((f.arity for f in all_facts), default=2)
    total = len(all_facts)
    tpe = total / n_ent if n_ent else 0.0
    # average degree: distinct co-occurrence partners per entity, the
    # off-diagonal cells of the co-occurrence matrix
    indptr, indices, _ = cooccurrence_arrays(all_facts, n_ent)
    rows = np.repeat(np.arange(n_ent), np.diff(indptr))
    avg_deg = np.count_nonzero(indices != rows) / n_ent if n_ent else 0.0
    return DatasetStats(
        num_entities=n_ent,
        num_relations=vocab.num_relations,
        split_counts=counts,
        tuples_per_entity=tpe,
        avg_degree=avg_deg,
        max_arity=max_arity,
    )
