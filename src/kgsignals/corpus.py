"""Task record generation, multitask mixing and corpus serialization.

Records are line-delimited JSON with a metadata header line. Every input
token sequence starts with its task token and is clipped to a maximum
length (deterministic prefix). Targets are type-tagged: token sequences
for path tasks, occurrence distributions for neighborhood prediction,
binary labels for matrix equivalence and scalars for clustering.

Generation is a pure function of (graph, config, seed).
:func:`generate_task_records` alone decides a task's work items, which
centres it skips and the order of its records: the order of its items,
the same at any worker count, since the optional worker pool chunks the
items and joins the chunks' records in item order. Facts come by index,
then masked position, then partner position, then path; centres come by
id, then radius.

Writing a corpus serializes each record once, in the process that built
it: :func:`check_and_serialize` runs the per-record part of the record
contract (:func:`check_record`, the code ``verify`` runs) and returns the
record's weightless prefix, its line up to ``"weight":``. Sorted keys
put the weight last, so a line is that prefix, the weight and ``}``.
A task corpus is written at unit weight by :func:`write_corpus`, which
returns every line's byte offset; :class:`WrittenCorpus` reads the
prefixes back by offset, so the mixture never serializes a record again.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import multiprocessing as mp
import random
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence, Sized
from contextlib import closing, nullcontext
from dataclasses import dataclass, fields, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .adjacency import make_iva_example, upper_triangle
from .graph import KnowledgeGraph
from .ingest import SPECIAL_TOKENS, TASK_TOKENS, Vocabulary, read_lines
from .neighborhood import NeighborhoodIndex
from .paths import (
    CandidateTrie,
    PathSearchConfig,
    ground_paths,
    information_gain_paths,
    shortest_relational_paths,
)

FORMAT_NAME = "kgsignals-corpus"
FORMAT_VERSION = 1
TASKS = ("sp", "ip", "khn", "iva", "lcc")


class EmptyCorpusError(Exception):
    """Every per-task record list was empty; nothing to mix."""


class CorpusFormatError(Exception):
    """Malformed corpus file; message carries the line number."""


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

    def path_config(self) -> PathSearchConfig:
        return PathSearchConfig(beam_k=self.beam_k, max_hops=self.max_hops, sp_cap=self.sp_cap)

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
    flags: tuple[str, ...] = ()

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
    def from_json(cls, line: str) -> "TaskRecord":
        d = json.loads(line)
        target = d["target"]["value"]
        if d["target"]["kind"] == "dist":
            target = [tuple(pair) for pair in target]
        elif d["target"]["kind"] == "tokens":
            target = list(target)
        return cls(
            task=d["task"],
            input_tokens=list(d["input"]),
            target_kind=d["target"]["kind"],
            target=target,
            provenance=d["prov"],
            weight=d["weight"],
            flags=tuple(d["flags"]),
        )


@dataclass
class GenerationResult:
    records: list  # TaskRecords, or what ``finish`` made of them
    skipped: int  # khn, iva and lcc: the entities with no neighbour


@dataclass
class MixPlan:
    sizes: dict[str, int]
    alpha: dict[str, float]
    seed: int


def _clip(tokens: list[int], cfg: GenerationConfig) -> tuple[list[int], bool]:
    if len(tokens) > cfg.max_len:
        return tokens[: cfg.max_len], True
    return tokens, False


# -- per-task chunk functions (used by the worker pool) ---------------


def _gen_path_chunk(
    g: KnowledgeGraph, vocab: Vocabulary, cfg: GenerationConfig, task: str, search, items: list[tuple[int, int, int]]
) -> list[TaskRecord]:
    """Records of (fact index, masked position, partner position) items.
    The input names the masked entity e_i, the fact's relation and the
    partner e_j; there is one record per path that ``search(fact index,
    e_i, e_j)`` finds between them with the fact itself excluded, or one
    [NO_PATH] record."""
    task_token = vocab.special_token(TASK_TOKENS[task])
    eos = vocab.special_token("[EOS]")
    no_path = vocab.special_token("[NO_PATH]")
    records: list[TaskRecord] = []
    for fact_index, masked, partner in items:
        fact = g.facts[fact_index]
        e_i, e_j = fact.entities[masked], fact.entities[partner]
        paths = search(fact_index, e_i, e_j)
        head, clipped = _clip(
            [task_token, vocab.entity_token(e_i), vocab.relation_token(fact.relation), vocab.entity_token(e_j)],
            cfg,
        )
        prov_base = f"f{fact_index:08d}:m{masked:02d}:p{partner:02d}"
        targets = [[vocab.relation_token(r) for r in p] + [eos] for p in paths] or [[no_path]]
        records.extend(
            TaskRecord(
                task=task,
                input_tokens=head,
                target_kind="tokens",
                target=target,
                provenance=f"{prov_base}:x{i:04d}",
                flags=("clipped",) if clipped else (),
            )
            for i, target in enumerate(targets)
        )
    return records


def _khn_lcc_input(
    vocab: Vocabulary, cfg: GenerationConfig, task: str, center: int, prev_ball: np.ndarray
) -> tuple[list[int], bool]:
    tokens = [vocab.special_token(TASK_TOKENS[task]), vocab.entity_token(center), vocab.special_token("[SEP]")]
    tokens.extend((prev_ball + vocab.num_specials).tolist())  # entity tokens
    return _clip(tokens, cfg)


def _gen_ball_chunk(
    vocab: Vocabulary, cfg: GenerationConfig, task: str, index: NeighborhoodIndex, centers: list[int]
) -> list[TaskRecord]:
    """One record per radius h = 1..hops of every center; its input lists
    the ball of radius h - 1. khn targets the occurrence distribution of
    the h-ball, lcc its clustering coefficient."""
    records: list[TaskRecord] = []
    for e in centers:
        prev_ball = np.empty(0, dtype=np.intp)
        for h in range(1, cfg.hops + 1):
            if task == "khn":
                ents, probs = index.occurrence(e, h, weighted=cfg.occurrence_weighted)
                kind, value = "dist", list(zip((ents + vocab.num_specials).tolist(), probs.tolist()))
            else:
                kind, value = "scalar", float(index.clustering(e, h, weighted=cfg.lcc_weighted))
            tokens, clipped = _khn_lcc_input(vocab, cfg, task, e, prev_ball)
            records.append(
                TaskRecord(
                    task=task,
                    input_tokens=tokens,
                    target_kind=kind,
                    target=value,
                    provenance=f"c{e:08d}:h{h}",
                    flags=("clipped",) if clipped else (),
                )
            )
            prev_ball = index.ball(e, h)
    return records


def _flatten_tokens(vocab: Vocabulary, cfg: GenerationConfig, matrix) -> tuple[list[int], bool]:
    """Tokens of :func:`flatten_adjacency`: entity tokens, then one value
    token per upper-triangle cell, clamped at ``value_ceiling``. Also
    returns whether any cell was clamped."""
    upper = upper_triangle(matrix.values)
    tokens = [vocab.entity_token(int(e)) for e in matrix.entities]
    tokens.extend((np.minimum(upper, cfg.value_ceiling) + vocab.value_base).tolist())
    return tokens, bool((upper > cfg.value_ceiling).any())


def _gen_iva_chunk(
    g: KnowledgeGraph, vocab: Vocabulary, cfg: GenerationConfig, items: list[tuple[int, bool]]
) -> list[TaskRecord]:
    records: list[TaskRecord] = []
    for center, negative in items:
        rng = random.Random(f"{cfg.seed}:iva:{center}")
        # no SkipExample: every center has a neighbour and hops >= 1
        ex = make_iva_example(
            g, center, cfg.hops, rng, negative, size_cap=cfg.iva_cap, corruption_rate=cfg.corruption_rate
        )
        left, cl1 = _flatten_tokens(vocab, cfg, ex.left)
        right, cl2 = _flatten_tokens(vocab, cfg, ex.right)
        tokens = [vocab.special_token("[IVA]")] + left + [vocab.special_token("[SEP]")] + right
        tokens, clipped = _clip(tokens, cfg)
        flags = tuple(
            name
            for name, on in (("clamped", cl1 or cl2), ("clipped", clipped))
            if on
        )
        records.append(
            TaskRecord(
                task="iva",
                input_tokens=tokens,
                target_kind="label",
                target=ex.label,
                provenance=f"c{center:08d}:{ex.mode}",
                flags=flags,
            )
        )
    return records


def _chunk_fn(g: KnowledgeGraph, vocab: Vocabulary, cfg: GenerationConfig, task: str):
    """The chunk function of ``task``: it maps a list of work items to
    their records, with the task's state built once and bound. That is
    the neighbourhood index of khn and lcc, and for sp and ip the path
    search, which for ip holds one candidate trie per relation, shared
    by every fact of it."""
    if task == "iva":
        return partial(_gen_iva_chunk, g, vocab, cfg)
    if task in ("khn", "lcc"):
        return partial(_gen_ball_chunk, vocab, cfg, task, NeighborhoodIndex(g, cfg.hops))
    pcfg = cfg.path_config()
    if task == "sp":

        def search(fact_index: int, e_i: int, e_j: int) -> list[tuple[int, ...]]:
            return shortest_relational_paths(g, e_i, e_j, pcfg, exclude_fact=fact_index)

    else:
        ip_cache: dict = {}
        tries = [CandidateTrie(information_gain_paths(g, r, pcfg, ip_cache)) for r in range(g.num_relations)]

        def search(fact_index: int, e_i: int, e_j: int) -> list[tuple[int, ...]]:
            return ground_paths(g, e_i, e_j, tries[g.facts[fact_index].relation], exclude_fact=fact_index)

    return partial(_gen_path_chunk, g, vocab, cfg, task, search)


def _run_chunk(fn, finish, items: list) -> list:
    records = fn(items)
    return records if finish is None else finish(records)


# set in a forked worker only: the (graph, vocabulary, config) it was
# forked with, the last task it ran chunks of, and that task's chunk
# function
_WORKER: dict = {}


def _init_worker(g: KnowledgeGraph, vocab: Vocabulary, cfg: GenerationConfig) -> None:
    _WORKER.update(run=(g, vocab, cfg), task=None, fn=None)


def _worker_run(args: tuple) -> list:
    task, finish, items = args
    if _WORKER["task"] != task:
        _WORKER["fn"] = None  # free the previous task's state first
        _WORKER["fn"] = _chunk_fn(*_WORKER["run"], task)
        _WORKER["task"] = task
    return _run_chunk(_WORKER["fn"], finish, items)


class WorkerPool:
    """One run's graph, vocabulary and config, and the forked worker
    processes that :func:`generate_task_records` shares among its tasks.

    The workers are forked when a task first needs them, with that
    task's worker count, and inherit the run through the fork, so
    nothing of the graph is pickled. Later tasks reuse them whatever
    count they ask for, since the count never changes the output. A
    worker builds a task's chunk function on its first chunk of that
    task and keeps only the current task's. :meth:`close` ends the
    workers."""

    def __init__(self, g: KnowledgeGraph, vocab: Vocabulary, cfg: GenerationConfig) -> None:
        self.run = (g, vocab, cfg)
        self._pool = None

    def records(self, task: str, finish, items: list, workers: int) -> list:
        """Run ``items`` in chunks, four per worker, and join the chunks'
        records, or what ``finish`` made of them, in item order. With one
        worker, fewer than 64 items or no fork start method, the chunks
        run one after another in this process, so that only one chunk's
        records exist at a time when ``finish`` serializes them."""
        chunk_size = max(1, math.ceil(len(items) / (max(workers, 1) * 4)))
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        if workers > 1 and len(items) >= 64 and "fork" in mp.get_all_start_methods():
            if self._pool is None:
                # built once here instead of once in every worker
                self.run[0].cooccurrence_rows()
                self._pool = mp.get_context("fork").Pool(workers, initializer=_init_worker, initargs=self.run)
            results = self._pool.map(_worker_run, [(task, finish, c) for c in chunks])
        else:
            fn = _chunk_fn(*self.run, task)
            results = [_run_chunk(fn, finish, c) for c in chunks]
        return [r for chunk in results for r in chunk]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()  # also joins the workers
            self._pool = None


def generate_task_records(
    g: KnowledgeGraph,
    vocab: Vocabulary,
    task: str,
    cfg: GenerationConfig,
    workers: int = 1,
    finish=None,
    pool: WorkerPool | None = None,
) -> GenerationResult:
    """Generate all records for one task, in work-item order.
    Deterministic under the config seed and independent of ``workers``.

    sp and ip take every (fact, masked position, partner position). khn,
    iva and lcc take every entity with a neighbour as a center, and
    count the others as ``skipped``. ``finish``, when given, maps each
    chunk's record list to one item per record in the process that
    built the chunk, such as :func:`check_and_serialize`; ``records``
    then holds those items, in the same order.

    With ``workers`` > 1 and the fork start method, a task of at least
    64 items runs on the workers of ``pool``, which the tasks of one run
    share, or without it on a pool that lasts this call. Smaller tasks
    run in this process. ``pool`` must be made for ``g``, ``vocab`` and
    ``cfg``."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if pool is not None and pool.run != (g, vocab, cfg):
        raise ValueError("the worker pool was made for another graph, vocabulary or config")
    if task in ("sp", "ip"):
        # every fact pairs each of its positions, masked, with every other
        items = [
            (i, m, p)
            for i, f in enumerate(g.facts)
            for m in range(f.arity)
            for p in range(f.arity)
            if p != m
        ]
        skipped = 0
    else:
        # a center without a neighbour has an empty ball and no IVA matrix
        centers = [e for e in range(g.num_entities) if g.neighbors(e)]
        items = [(e, i % 2 == 1) for i, e in enumerate(centers)] if task == "iva" else centers
        skipped = g.num_entities - len(centers)
    with closing(WorkerPool(g, vocab, cfg)) if pool is None else nullcontext(pool) as pool:
        return GenerationResult(pool.records(task, finish, items, workers), skipped)


def mix_multitask(
    task_lists: Mapping[str, Sized], seed: int
) -> tuple[list[tuple[str, int]], MixPlan]:
    """Interleave per-task records into one stream, as (task, index into
    ``task_lists[task]``) pairs; only the list lengths are read.

    Drawing the next record by choosing a task with probability
    proportional to its remaining records and then a uniform record
    within that task, without replacement, is exactly a uniform random
    permutation of the union; implemented as a seeded shuffle of the
    records concatenated in sorted task order. Weights are the per-task
    dataset-size fractions.
    """
    sizes = {t: len(rs) for t, rs in task_lists.items() if len(rs)}
    total = sum(sizes.values())
    if total == 0:
        raise EmptyCorpusError("all task record lists are empty")
    alpha = {t: n / total for t, n in sizes.items()}
    order = [(t, i) for t in sorted(sizes) for i in range(sizes[t])]
    random.Random(f"{seed}:mix").shuffle(order)  # its draws depend only on len(order)
    return order, MixPlan(sizes=sizes, alpha=alpha, seed=seed)


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


def _header_int(section: dict, key: str, default: int) -> int:
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{key} must be an int, got {value!r}")
    return value


@dataclass(frozen=True)
class RecordBounds:
    """What a corpus header allows its records: token ranges, the input
    and path lengths and the scalar range."""

    ent_lo: int
    ent_hi: int
    rel_lo: int
    rel_hi: int
    max_len: int
    max_hops: int
    scalar_hi: float
    scalar_range: str


def record_bounds(path: str | Path, header: dict) -> RecordBounds:
    """The bounds ``header`` sets; a malformed header raises
    :class:`CorpusInvariantError` naming ``path``."""
    try:
        sizes = header.get("vocab_sizes") or {}
        n_special = _header_int(sizes, "specials", len(SPECIAL_TOKENS))
        n_ent = _header_int(sizes, "entities", 0)
        n_rel = _header_int(sizes, "relations", 0)
        cfg = header.get("config") or {}
        max_len = _header_int(cfg, "max_len", GenerationConfig.max_len)
        max_hops = _header_int(cfg, "max_hops", GenerationConfig.max_hops)
        lcc_weighted = cfg.get("lcc_weighted", GenerationConfig.lcc_weighted)
        if not isinstance(lcc_weighted, bool):
            raise TypeError(f"lcc_weighted must be a bool, got {lcc_weighted!r}")
    except (AttributeError, TypeError) as exc:
        raise CorpusInvariantError(f"{path}: malformed header: {exc}") from exc
    ent_hi = n_special + n_ent
    scalar_hi, scalar_range = (math.inf, "[0, inf)") if lcc_weighted else (1.0, "[0, 1]")
    return RecordBounds(n_special, ent_hi, ent_hi, ent_hi + n_rel, max_len, max_hops, scalar_hi, scalar_range)


_NO_PATH = SPECIAL_TOKENS.index("[NO_PATH]")
_EOS = SPECIAL_TOKENS.index("[EOS]")


def _record_problem(b: RecordBounds, r: TaskRecord) -> str | None:
    if r.task not in TASKS:
        return f"unknown task {r.task!r}"
    if not r.input_tokens:
        return "empty input"
    first = r.input_tokens[0]
    if type(first) is not int or first != SPECIAL_TOKENS.index(TASK_TOKENS[r.task]):
        return "input does not start with its task token"
    if len(r.input_tokens) > b.max_len:
        return f"input length {len(r.input_tokens)} exceeds {b.max_len}"
    if r.target_kind == "tokens":
        t = r.target
        for tok in t:
            if type(tok) is not int:
                return f"token {tok!r} is not an integer"
        if t != [_NO_PATH]:
            if not t or t[-1] != _EOS:
                return "token target does not end with the end sentinel"
            body = t[:-1]
            if len(body) > b.max_hops:
                return f"path length {len(body)} exceeds {b.max_hops}"
            if len(set(body)) != len(body):
                return "repeated relation on path"
            for tok in body:
                if not b.rel_lo <= tok < b.rel_hi:
                    return f"token {tok} is not a relation token"
    elif r.target_kind == "dist":
        for tok, p in r.target:
            if not 0 <= p < math.inf:  # false for NaN
                return f"probability {p} is not finite and >= 0"
            if type(tok) is not int or not b.ent_lo <= tok < b.ent_hi:
                return f"token {tok!r} is not an entity token"
        total = sum(p for _, p in r.target)
        if abs(total - 1.0) > 1e-9:
            return f"distribution sums to {total}"
    elif r.target_kind == "scalar":
        value = float(r.target)
        if not (0.0 <= value <= b.scalar_hi and math.isfinite(value)):
            return f"scalar target {r.target} outside {b.scalar_range}"
    elif r.target_kind == "label":
        if r.target not in (0, 1):
            return f"label target {r.target} not binary"
    else:
        return f"unknown target kind {r.target_kind!r}"
    return None


def check_record(path: str | Path, label: object, bounds: RecordBounds, r: TaskRecord) -> None:
    """Raise :class:`CorpusInvariantError`, naming ``path: record
    <label>``, unless ``r`` keeps the per-record part of the contract.

    The input starts with its task token and fits ``max_len``. A token
    target is [NO_PATH] or at most ``max_hops`` distinct relation tokens
    and [EOS]. A dist target is entity tokens with finite, non-negative
    probabilities summing to 1. Every token id checked here, the task
    token included, is an integer, so ``5.0`` and ``true`` are not. A
    label is 0 or 1. A scalar lies in [0, 1], or is finite and >= 0 when
    ``config.lcc_weighted``. A corpus of another format version never
    gets here: :func:`read_corpus` refuses it as a format error.
    """
    try:
        problem = _record_problem(bounds, r)
    except (TypeError, ValueError, OverflowError) as exc:
        # a field of the wrong shape, such as a dist target that is not
        # a list of pairs, a scalar that is not a number or one too
        # large for a float
        problem = f"malformed record: {exc}"
    if problem is not None:
        raise CorpusInvariantError(f"{path}: record {label}: {problem}")


def check_totals(path: str | Path, header: dict, counts: dict[str, int]) -> None:
    """The totals part of the contract: the header counts are the actual
    per-task ``counts`` and, with ``alpha``, the task weights sum to 1."""
    if header.get("counts") != counts:
        raise CorpusInvariantError(f"{path}: header counts {header.get('counts')} != actual {counts}")
    alpha = header.get("alpha")
    if alpha is not None:
        try:
            total = sum(alpha.values())
        except (AttributeError, TypeError) as exc:
            raise CorpusInvariantError(f"{path}: malformed task weights: {exc}") from exc
        if abs(total - 1.0) > 1e-12:
            raise CorpusInvariantError(f"{path}: task weights sum to {total}")


def check_corpus(path: str | Path, header: dict, records: list[TaskRecord]) -> None:
    """Raise :class:`CorpusInvariantError`, naming ``path``, unless the
    header and records keep the record contract: every record passes
    :func:`check_record` under the header's bounds, the totals pass
    :func:`check_totals`, and with ``alpha`` each record's weight is its
    task's."""
    bounds = record_bounds(path, header)
    counts: dict[str, int] = {}
    for i, r in enumerate(records):
        check_record(path, i, bounds, r)
        counts[r.task] = counts.get(r.task, 0) + 1
    check_totals(path, header, counts)
    alpha = header.get("alpha")
    if alpha is not None:
        for i, r in enumerate(records):
            if r.weight != alpha.get(r.task):
                raise CorpusInvariantError(f"{path}: record {i}: weight {r.weight} != alpha[{r.task}]")


def read_corpus(path: str | Path) -> tuple[dict, list[TaskRecord]]:
    """The header and records of a corpus file, read line by line. A
    header of another format or format version is a format error."""
    lines = read_lines(path)
    ln, first = next(lines, (0, ""))
    if ln != 1:
        raise CorpusFormatError(f"{path}: empty file" if ln == 0 else f"{path}:1: bad header: empty line")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}:1: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CorpusFormatError(f"{path}:1: not a {FORMAT_NAME} file")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CorpusFormatError(f"{path}:1: format version {version!r}, expected {FORMAT_VERSION}")
    records: list[TaskRecord] = []
    for ln, line in lines:
        try:
            records.append(TaskRecord.from_json(line))
        except (ValueError, KeyError, TypeError) as exc:
            # not JSON, a missing field, or a record or field of the wrong
            # shape (JSONDecodeError is a ValueError)
            raise CorpusFormatError(f"{path}:{ln}: bad record: {exc}") from exc
    return header, records
