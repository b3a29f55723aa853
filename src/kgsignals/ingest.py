"""File parsing, vocabulary construction and dataset statistics.

Two input conventions are supported:

* triples:     ``head<TAB>relation<TAB>tail`` (FB15k-237 / WN18RR style)
* hypergraph:  ``relation<TAB>e1<TAB>e2[<TAB>e3...]`` (JF17K style)

Every input file is UTF-8 and is read by :func:`read_lines`: a line
ends at LF, CRLF or CR, empty lines are skipped, and a byte that is not
UTF-8 raises :class:`ParseError` naming the file and line (exit 2).
Every JSON input, a corpus line or a ``--config`` file, is decoded by
:func:`parse_json`, so any text that ``json`` cannot decode is a
:class:`ParseError` too.
Surface strings are kept verbatim (no normalization); all math
downstream runs on dense integer ids. Parsing and statistics run in
plain Python, so ``ingest`` and ``stats`` never load numpy.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from .graph import Fact

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
    """Malformed input file, a corpus included; the message names the
    file and, where the file has lines, the line."""


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


def parse_json(text: str | bytes, where: str) -> object:
    """The JSON value of ``text``. Text that is not JSON or not UTF-8,
    nested too deeply to decode or holding an integer past Python's
    digit limit raises :class:`ParseError`: ``<where>: <reason>``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{where}: {exc}") from exc


@dataclass
class Vocabulary:
    """Bijective surface-string <-> id maps.

    Internal entity and relation ids are dense and 0-based. Serialized
    token ids share one space: specials first, then entities in
    first-seen order, then relations in first-seen order, each numbered
    by its position. The generation code derives the same ids from the
    graph's counts, and numeric value tokens (adjacency counts) follow
    the relations.
    """

    entities: dict[str, int] = field(default_factory=dict)
    relations: dict[str, int] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def entity_id(self, s: str) -> int:
        """The id of entity ``s``; a name not seen before gets the next id."""
        return self.entities.setdefault(s, len(self.entities))

    def relation_id(self, s: str) -> int:
        """The id of relation ``s``; a name not seen before gets the next id."""
        return self.relations.setdefault(s, len(self.relations))

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        names = [*SPECIAL_TOKENS, *sorted(self.entities, key=self.entities.get),
                 *sorted(self.relations, key=self.relations.get)]
        lines = [f"#kgsignals-vocab\tentities={self.num_entities}\trelations={self.num_relations}"]
        lines.extend(f"{s}\t{i}" for i, s in enumerate(names))
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
            if min(n_ent, n_rel) < 0:
                raise ValueError("a negative count")
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{path}:1: bad vocabulary header: expected entities=N and relations=N, N >= 0") from exc
        n_special = len(SPECIAL_TOKENS)
        rows: list[tuple[str, int, int]] = []  # (token, id, line number)
        for ln, line in lines:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{ln}: expected 'token<TAB>id'")
            try:
                rows.append((parts[0], int(parts[1]), ln))
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from exc
        if len(rows) != n_special + n_ent + n_rel:
            raise ParseError(f"{path}: header counts disagree with body")
        rows.sort(key=lambda kv: kv[1])
        for i, (_, tid, _) in enumerate(rows):
            if tid != i:
                raise ParseError(f"{path}: non-contiguous token id {tid}")
        if tuple(tok for tok, _, _ in rows[:n_special]) != SPECIAL_TOKENS:
            raise ParseError(f"{path}: special token block mismatch")
        vocab = cls()
        for tok, tid, ln in rows[n_special:]:
            # an entity and a relation may share a name; two entities or two
            # relations may not, or the later would shift every id after it
            is_ent = tid < n_special + n_ent
            names, i = (vocab.entities, tid - n_special) if is_ent else (vocab.relations, tid - n_special - n_ent)
            if names.setdefault(tok, i) != i:
                raise ParseError(f"{path}:{ln}: {'entity' if is_ent else 'relation'} {tok!r} is listed twice")
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


def parse_triples(path: str | Path, vocab: Vocabulary) -> list[Fact]:
    """Parse a tab-separated triple file into arity-2 facts r(h, t).

    Names not yet in ``vocab`` are added to it in first-seen order;
    duplicate lines are kept as distinct facts.
    """
    facts: list[Fact] = []
    for ln, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 tab-separated fields, got {len(parts)}")
        h, r, t = parts
        facts.append(
            Fact(
                relation=vocab.relation_id(r),
                entities=(vocab.entity_id(h), vocab.entity_id(t)),
            )
        )
    return facts


def parse_hypergraph(path: str | Path, vocab: Vocabulary) -> list[Fact]:
    """Parse ``relation<TAB>e1<TAB>e2[<TAB>...]`` lines into arity-n facts."""
    facts: list[Fact] = []
    for ln, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(f"{path}:{ln}: arity {len(parts) - 1} < 2")
        facts.append(
            Fact(
                relation=vocab.relation_id(parts[0]),
                entities=tuple(vocab.entity_id(e) for e in parts[1:]),
            )
        )
    return facts


def compute_stats(vocab: Vocabulary, splits: dict[str, list[Fact]]) -> dict:
    """Dataset statistics over all ingested splits, as the JSON object
    that ``ingest`` and ``stats`` print: ``entities``, ``relations``,
    ``splits`` (facts per split), ``tuples_per_entity``, ``avg_degree``
    and ``max_arity``.

    The density column of common dataset tables has no published formula;
    tuples-per-entity and average co-occurrence degree are reported
    instead, labeled as such.
    """
    n_ent = vocab.num_entities
    all_facts = [f for facts in splits.values() for f in facts]
    # average degree: distinct co-occurrence partners per entity, the
    # off-diagonal cells of the co-occurrence matrix; each unordered pair
    # {a, b} of distinct entities, keyed a*n + b with a < b, is two cells
    pairs = {
        a * n_ent + b if a < b else b * n_ent + a
        for f in all_facts
        for a, b in combinations(f.entities, 2)
        if a != b
    }
    return {
        "entities": n_ent,
        "relations": vocab.num_relations,
        "splits": {name: len(facts) for name, facts in splits.items()},
        "tuples_per_entity": len(all_facts) / n_ent if n_ent else 0.0,
        "avg_degree": 2 * len(pairs) / n_ent if n_ent else 0.0,
        "max_arity": max((f.arity for f in all_facts), default=2),
    }
