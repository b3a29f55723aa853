"""The corpus format: task records, corpus files, the record contract
and the multitask mixture.

A corpus is line-delimited JSON: a header line, then one
:class:`TaskRecord` per line. Every input token sequence starts with its
task token and is clipped to a maximum length (deterministic prefix).
Targets are type-tagged: token sequences for path tasks, occurrence
distributions for neighbourhood prediction, binary labels for matrix
equivalence and scalars for clustering. :func:`check_corpus` is the
record contract: ``verify`` runs it, ``mix`` runs it on each input, and
``generate`` runs its per-record and totals parts on what it writes.

Writing a corpus serializes each record once, in the process that built
it: :func:`check_and_serialize` runs the per-record part of the record
contract (:func:`check_record`) and returns the record's weightless
prefix, its line up to ``"weight":``. Sorted keys put the weight last,
so a line is that prefix, the weight and ``}``. A task corpus is written
at unit weight by :func:`write_corpus`, which returns every line's byte
offset; :class:`WrittenCorpus` reads the prefixes back by offset, so the
mixture never serializes a record again.

Neither this module nor any module it imports loads numpy, so
``verify`` and ``mix`` run without it. Of the CLI commands only
``generate`` loads numpy, through the generation code of
:mod:`kgsignals.corpus`.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import random
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence, Sized
from dataclasses import dataclass, fields, asdict
from pathlib import Path

from .ingest import SPECIAL_TOKENS, TASK_TOKENS, ParseError, parse_json, read_lines

FORMAT_NAME = "kgsignals-corpus"
FORMAT_VERSION = 1
# each task, in generation order, and the target kind of its records
_TARGET_KINDS = {"sp": "tokens", "ip": "tokens", "khn": "dist", "iva": "label", "lcc": "scalar"}
TASKS = tuple(_TARGET_KINDS)
_FLAGS = frozenset({"clipped", "clamped"})
_FIRST_ENTITY = len(SPECIAL_TOKENS)  # entity tokens follow the special tokens


class EmptyCorpusError(Exception):
    """Every per-task record list was empty; nothing to mix."""


class CorpusInvariantError(Exception):
    """A corpus breaks the record contract of :func:`check_corpus`."""


@dataclass(frozen=True)
class GenerationConfig:
    seed: int
    hops: int = 3  # neighborhood radius bound
    max_hops: int = 4  # path length bound
    beam_k: int = 4
    sp_cap: int = 16
    iva_cap: int = 30
    corruption_rate: float = 0.10
    max_len: int = 1024
    value_ceiling: int = 64
    occurrence_weighted: bool = True
    lcc_weighted: bool = False

    def __post_init__(self) -> None:
        """Reject wrong types and out-of-range values with ValueError."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "bool":
                ok = isinstance(v, bool)
            elif f.type == "float":
                ok = isinstance(v, (int, float)) and not isinstance(v, bool)
            else:
                ok = isinstance(v, int) and not isinstance(v, bool)
            if not ok:
                raise ValueError(f"{f.name} must be {f.type}, got {v!r}")
        for name in ("hops", "max_hops", "beam_k", "sp_cap", "iva_cap", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.corruption_rate <= 1:
            raise ValueError(f"corruption_rate must be in [0, 1], got {self.corruption_rate}")
        if self.value_ceiling < 0:
            raise ValueError(f"value_ceiling must be >= 0, got {self.value_ceiling}")

    def as_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# json.dumps with keyword arguments would build a new encoder per call
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class TaskRecord:
    task: str
    input_tokens: list[int]
    target_kind: str  # tokens | dist | label | scalar
    target: object
    provenance: str
    weight: float | None = None
    flags: Sequence[str] = ()  # distinct names from "clipped" and "clamped"

    def to_json(self) -> str:
        return _RECORD_ENCODER.encode(
            {
                "task": self.task,
                "input": self.input_tokens,
                "target": {"kind": self.target_kind, "value": self.target},
                "prov": self.provenance,
                "weight": self.weight,
                "flags": list(self.flags),
            }
        )

    @classmethod
    def from_json(cls, line: str, where: str = "record") -> "TaskRecord":
        """The record of a corpus line, its fields unjudged. Only a line
        that :func:`parse_json` refuses, a record or target that is not an
        object, or a missing key raises :class:`ParseError`: ``<where>: ...``."""
        d = parse_json(line, where)
        try:
            kind, target, tokens = d["target"]["kind"], d["target"]["value"], d["input"]
            # exact-size copies: a list that json built holds spare capacity
            if type(target) is list:
                target = [tuple(p) if type(p) is list else p for p in target] if kind == "dist" else list(target)
            return cls(
                task=d["task"],
                input_tokens=list(tokens) if type(tokens) is list else tokens,
                target_kind=kind,
                target=target,
                provenance=d["prov"],
                weight=d["weight"],
                flags=d["flags"],
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: {exc}") from exc


def mix_multitask(task_lists: Mapping[str, Sized], seed: int) -> tuple[list[tuple[str, int]], dict[str, float]]:
    """Interleave per-task records into one stream, as (task, index into
    ``task_lists[task]``) pairs, and weigh each task with records; only
    the list lengths are read.

    Drawing the next record by choosing a task with probability
    proportional to its remaining records and then a uniform record
    within that task, without replacement, is exactly a uniform random
    permutation of the union; implemented as a seeded shuffle of the
    records concatenated in sorted task order. The weights ``alpha`` are
    the per-task dataset-size fractions.
    """
    sizes = {t: len(rs) for t, rs in task_lists.items() if len(rs)}
    total = sum(sizes.values())
    if total == 0:
        raise EmptyCorpusError("all task record lists are empty")
    alpha = {t: n / total for t, n in sizes.items()}
    order = [(t, i) for t in sorted(sizes) for i in range(sizes[t])]
    random.Random(f"{seed}:mix").shuffle(order)  # its draws depend only on len(order)
    return order, alpha


def corpus_header(counts: dict[str, int], meta: dict) -> dict:
    """The header line of a corpus: ``meta`` plus the format, the version
    and the per-task record counts."""
    header = dict(meta)
    header.setdefault("format", FORMAT_NAME)
    header.setdefault("version", FORMAT_VERSION)
    header["counts"] = counts
    return header


# a corpus line is a weightless prefix followed by one of these tails
_NO_WEIGHT = "null}"
_UNIT_WEIGHT = "1.0}"


def weightless_prefix(r: TaskRecord) -> str:
    """``r.to_json()`` of a record whose weight is None, up to and
    including ``"weight":``, the last key."""
    return r.to_json()[: -len(_NO_WEIGHT)]


def check_and_serialize(path: str, bounds: RecordBounds, records: list[TaskRecord]) -> list[str]:
    """Check each record of a freshly built chunk against ``bounds``,
    naming it by provenance, then serialize it once: the weightless
    prefixes, in record order. Runs in the process that built the chunk."""
    for r in records:
        check_record(path, r.provenance, bounds, r)
    return [weightless_prefix(r) for r in records]


def write_corpus(path: str | Path, header: dict, lines: Iterable[str]) -> array:
    """Write the header line followed by one line per item of ``lines``.
    Returns the byte offset at which each record line starts, followed
    by the file's length."""
    offsets = array("q")
    with open(path, "wb") as fh:
        pos = fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for line in lines:
            offsets.append(pos)
            pos += fh.write(line.encode() + b"\n")
        offsets.append(pos)
    return offsets


def unit_weight_lines(prefixes: Iterable[str]) -> Iterator[str]:
    """The lines of a task corpus, every record at weight 1.0."""
    return (p + _UNIT_WEIGHT for p in prefixes)


def mixture_lines(
    prefixes: Mapping[str, Sequence[str]], order: Iterable[tuple[str, int]], alpha: dict[str, float]
) -> Iterator[str]:
    """The lines of a mixture: record ``i`` of task ``t`` for each (t, i)
    of ``order``, at weight ``alpha[t]``."""
    tails = {t: json.dumps(a) + "}" for t, a in alpha.items()}
    return (prefixes[t][i] + tails[t] for t, i in order)


class WrittenCorpus(Sequence):
    """The weightless prefixes of a corpus that :func:`write_corpus` wrote
    at unit weight, read back from the file by the offsets it returned."""

    def __init__(self, path: str | Path, offsets: array) -> None:
        self._offsets = offsets
        with open(path, "rb") as fh:
            self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i: int) -> str:
        # the line without its unit-weight tail and newline
        return self._map[self._offsets[i] : self._offsets[i + 1] - len(_UNIT_WEIGHT) - 1].decode()

    def close(self) -> None:
        self._map.close()


@dataclass(frozen=True)
class RecordBounds:
    """What a corpus header allows its records: its generation config and
    the exclusive tops of the entity and the relation tokens."""

    config: GenerationConfig
    ent_hi: int
    rel_hi: int


def record_bounds(path: str | Path, header: dict) -> RecordBounds:
    """The bounds ``header`` sets. Its ``config`` holds every
    :class:`GenerationConfig` field and no other key, each checked as a
    ``--config`` file's is, its ``config_hash`` is that config's
    :meth:`GenerationConfig.hash`, and its ``vocab_sizes`` is exactly
    ``{"specials": len(SPECIAL_TOKENS), "entities": n, "relations": m}``
    with non-negative integer counts. Anything else raises
    :class:`CorpusInvariantError`: ``<path>: malformed header: ...``."""
    try:
        config = header["config"]
        cfg = GenerationConfig(**config)
        if cfg.as_dict().keys() != config.keys():
            raise ValueError(f"config lacks {sorted(cfg.as_dict().keys() - config.keys())}")
        if header["config_hash"] != cfg.hash():
            raise ValueError(f"config_hash {header['config_hash']!r} is not the hash of its config")
        sizes = header["vocab_sizes"]
        if not (type(sizes) is dict and sizes.keys() == {"specials", "entities", "relations"}
                and all(type(n) is int and n >= 0 for n in sizes.values()) and sizes["specials"] == _FIRST_ENTITY):
            raise ValueError(f"vocab_sizes {sizes!r} are not {_FIRST_ENTITY} specials and two integer counts >= 0")
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise CorpusInvariantError(f"{path}: malformed header: {problem}") from exc
    ent_hi = _FIRST_ENTITY + sizes["entities"]
    return RecordBounds(cfg, ent_hi, ent_hi + sizes["relations"])


_NO_PATH = SPECIAL_TOKENS.index("[NO_PATH]")
_EOS = SPECIAL_TOKENS.index("[EOS]")


def _record_problem(b: RecordBounds, r: TaskRecord) -> str | None:
    cfg = b.config
    if r.task not in TASKS:
        return f"unknown task {r.task!r}"
    if r.target_kind != _TARGET_KINDS[r.task]:
        return f"{r.task} target kind {r.target_kind!r} is not {_TARGET_KINDS[r.task]!r}"
    if type(r.provenance) is not str:
        return f"provenance {r.provenance!r} is not a string"
    if r.task in ("khn", "lcc"):
        _, sep, radius = r.provenance.rpartition(":h")
        if not sep or not 1 <= int(radius) <= cfg.hops:
            return f"provenance {r.provenance!r} has no radius in [1, {cfg.hops}] after ':h'"
    flags = r.flags
    if type(flags) not in (list, tuple) or not _FLAGS.issuperset(flags) or len(set(flags)) < len(flags):
        return f"flags {flags!r} are not distinct names from {sorted(_FLAGS)}"
    tokens = r.input_tokens
    if type(tokens) is not list:
        return f"input {tokens!r} is not a list"
    if not tokens:
        return "empty input"
    first = tokens[0]
    if type(first) is not int or first != SPECIAL_TOKENS.index(TASK_TOKENS[r.task]):
        return "input does not start with its task token"
    if len(tokens) > cfg.max_len:
        return f"input length {len(tokens)} exceeds {cfg.max_len}"
    # builtins that run in C: one type pass, then min and max
    if set(map(type, tokens)) != {int}:
        return f"input token {next(t for t in tokens if type(t) is not int)!r} is not an integer"
    lo, hi, top = min(tokens), max(tokens), b.rel_hi + cfg.value_ceiling  # top: the largest value token
    if lo < 0 or hi > top:
        return f"input token {lo if lo < 0 else hi} outside [0, {top}]"
    if r.target_kind == "tokens":
        t = r.target
        if type(t) is not list:
            return f"token target {t!r} is not a list"
        for tok in t:
            if type(tok) is not int:
                return f"token {tok!r} is not an integer"
        if t != [_NO_PATH]:
            if not t or t[-1] != _EOS:
                return "token target does not end with the end sentinel"
            body = t[:-1]
            if len(body) > cfg.max_hops:
                return f"path length {len(body)} exceeds {cfg.max_hops}"
            if len(set(body)) != len(body):
                return "repeated relation on path"
            for tok in body:
                if not b.ent_hi <= tok < b.rel_hi:
                    return f"token {tok} is not a relation token"
    elif r.target_kind == "dist":
        for tok, p in r.target:
            if not 0 <= p < math.inf:  # false for NaN
                return f"probability {p} is not finite and >= 0"
            if type(tok) is not int or not _FIRST_ENTITY <= tok < b.ent_hi:
                return f"token {tok!r} is not an entity token"
        total = sum(p for _, p in r.target)
        if abs(total - 1.0) > 1e-9:
            return f"distribution sums to {total}"
    elif r.target_kind == "scalar":
        if type(r.target) not in (int, float):
            return f"scalar target {r.target!r} is not a number"
        value = float(r.target)
        scalar_hi, scalar_range = (math.inf, "[0, inf)") if cfg.lcc_weighted else (1.0, "[0, 1]")
        if not (0.0 <= value <= scalar_hi and math.isfinite(value)):
            return f"scalar target {r.target} outside {scalar_range}"
    elif type(r.target) is not int or r.target not in (0, 1):  # the one kind left, "label"
        return f"label target {r.target!r} is not the integer 0 or 1"
    return None


def check_record(path: str | Path, label: object, bounds: RecordBounds, r: TaskRecord) -> None:
    """Raise :class:`CorpusInvariantError`, naming ``path: record
    <label>``, unless ``r`` keeps the per-record part of the contract.

    The target kind is the task's: ``tokens`` for sp and ip, ``dist``
    for khn, ``label`` for iva and ``scalar`` for lcc. The provenance is
    a string, and that of a khn or lcc record ends in ``:h<k>`` with the
    radius k in [1, ``config.hops``]. The flags are a list of distinct
    names from ``clipped`` and ``clamped``. The input starts with its task token,
    fits ``bounds.config.max_len``, and every input token lies in
    [0, ``bounds.rel_hi`` + ``config.value_ceiling``], the largest value
    token. The input and a token target are lists. A token target is
    [NO_PATH] or at most ``config.max_hops`` distinct relation tokens
    and [EOS]. A dist target is entity tokens with finite, non-negative
    probabilities summing to 1. Every token id checked here is an
    integer, so ``5.0`` and ``true`` are not. A label is the integer 0
    or 1. A scalar is an int or float, not a bool, and lies in [0, 1],
    or is finite and >= 0 when ``config.lcc_weighted``. A corpus of
    another format version never gets here: :func:`read_corpus` refuses
    it as a data error.
    """
    try:
        problem = _record_problem(bounds, r)
    except (TypeError, ValueError, OverflowError) as exc:
        # a field of the wrong shape, such as a dist target that is not
        # a list of pairs or a scalar too large for a float
        problem = f"malformed record: {exc}"
    if problem is not None:
        raise CorpusInvariantError(f"{path}: record {label}: {problem}")


def check_totals(path: str | Path, header: dict, counts: dict[str, int]) -> None:
    """The totals part of the contract: the header counts are the actual
    per-task ``counts``, ``uniform_weights`` is whether ``alpha`` is
    None and, with ``alpha``, the task weights are floats,
    never bools or ints, one for each task with records, and each is its
    task's share of the records, ``counts[t] / sum(counts)``: the float
    that :func:`mix_multitask` writes."""
    if header.get("counts") != counts:
        raise CorpusInvariantError(f"{path}: header counts {header.get('counts')} != actual {counts}")
    alpha = header.get("alpha")
    if header.get("uniform_weights") is not (alpha is None):
        raise CorpusInvariantError(
            f"{path}: malformed header: uniform_weights {header.get('uniform_weights')!r} "
            f"with {'no alpha' if alpha is None else 'an alpha'}; expected {alpha is None}"
        )
    if alpha is not None:
        if not isinstance(alpha, dict):
            raise CorpusInvariantError(f"{path}: malformed header: task weights {alpha!r} are not an object")
        for task, a in alpha.items():
            if type(a) is not float:
                raise CorpusInvariantError(f"{path}: malformed header: task weight {task} is {a!r}, not a float")
        total = sum(counts.values())
        shares = {t: n / total for t, n in counts.items()}
        if not alpha or alpha != shares:  # NaN equals no share
            raise CorpusInvariantError(f"{path}: task weights {alpha} are not the tasks' record shares {shares}")


def check_corpus(path: str | Path, header: dict, records: list[TaskRecord]) -> None:
    """Raise :class:`CorpusInvariantError`, naming ``path``, unless the
    header and records keep the record contract: every record passes
    :func:`check_record` under the header's bounds, the totals pass
    :func:`check_totals`, and each record's weight is its task's
    ``alpha``, or 1.0 when the header has none. A bool is never a
    weight."""
    bounds, alpha = record_bounds(path, header), header.get("alpha")
    # each task's weight; check_totals refuses an alpha that is not an object
    weights = dict.fromkeys(TASKS, 1.0) if alpha is None else alpha if isinstance(alpha, dict) else {}
    counts: dict[str, int] = {}
    wrong = None  # the first record of a wrong weight, reported once the totals pass
    for i, r in enumerate(records):
        check_record(path, i, bounds, r)
        counts[r.task] = counts.get(r.task, 0) + 1
        if wrong is None and (r.weight != weights.get(r.task) or type(r.weight) is bool):
            wrong = f"record {i}: weight {r.weight!r} != " + ("1.0" if alpha is None else f"alpha[{r.task}]")
    check_totals(path, header, counts)
    if wrong is not None:
        raise CorpusInvariantError(f"{path}: {wrong}")


def read_corpus(path: str | Path) -> tuple[dict, list[TaskRecord]]:
    """The header and records of a corpus file, read line by line. A line
    that is not a JSON header or record, or a header of another format or
    format version, raises :class:`ParseError` naming the file and line."""
    lines = read_lines(path)
    ln, first = next(lines, (0, ""))
    if ln != 1:
        raise ParseError(f"{path}: empty file" if ln == 0 else f"{path}:1: bad header: empty line")
    header = parse_json(first, f"{path}:1: bad header")
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ParseError(f"{path}:1: not a {FORMAT_NAME} file")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{path}:1: format version {version!r}, expected {FORMAT_VERSION}")
    records = [TaskRecord.from_json(line, f"{path}:{ln}: bad record") for ln, line in lines]
    return header, records
