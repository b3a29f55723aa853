"""Task record generation, multitask mixing and corpus serialization.

Records are line-delimited JSON with a metadata header line. Every input
token sequence starts with its task token and is clipped to a maximum
length (deterministic prefix). Targets are type-tagged: token sequences
for path tasks, occurrence distributions for neighborhood prediction,
binary labels for matrix equivalence and scalars for clustering.

Generation is a pure function of (graph, config, seed). The optional
worker pool chunks work items and merges results in item order, so the
output bytes are identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .adjacency import SkipExample, make_iva_example, upper_triangle
from .graph import KnowledgeGraph, Query
from .ingest import TASK_TOKENS, Vocabulary
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
        return json.dumps(
            {
                "task": self.task,
                "input": self.input_tokens,
                "target": {"kind": self.target_kind, "value": self.target},
                "prov": self.provenance,
                "weight": self.weight,
                "flags": list(self.flags),
            },
            sort_keys=True,
            separators=(",", ":"),
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
    records: list[TaskRecord]
    skipped: int = 0


@dataclass
class MixPlan:
    sizes: dict[str, int]
    alpha: dict[str, float]
    seed: int


def build_queries(g: KnowledgeGraph, split: str = "train") -> list[Query]:
    """One query per fact per maskable position; the masked entity is
    later paired with each other entity in the fact as path endpoints."""
    queries: list[Query] = []
    for f in g.facts:
        for m in range(f.arity):
            queries.append(Query(relation=f.relation, entities=f.entities, masked_index=m, split=split))
    return queries


def _clip(tokens: list[int], cfg: GenerationConfig) -> tuple[list[int], bool]:
    if len(tokens) > cfg.max_len:
        return tokens[: cfg.max_len], True
    return tokens, False


def _path_records(
    task: str,
    vocab: Vocabulary,
    cfg: GenerationConfig,
    fact_index: int,
    query: Query,
    partner_pos: int,
    paths: list[tuple[int, ...]],
) -> list[TaskRecord]:
    e_i = query.answer
    e_j = query.entities[partner_pos]
    head = [
        vocab.special_token(TASK_TOKENS[task]),
        vocab.entity_token(e_i),
        vocab.relation_token(query.relation),
        vocab.entity_token(e_j),
    ]
    prov_base = f"f{fact_index:08d}:m{query.masked_index:02d}:p{partner_pos:02d}"
    out: list[TaskRecord] = []
    if not paths:
        out.append(
            TaskRecord(
                task=task,
                input_tokens=head,
                target_kind="tokens",
                target=[vocab.special_token("[NO_PATH]")],
                provenance=f"{prov_base}:x0000",
            )
        )
        return out
    eos = vocab.special_token("[EOS]")
    for i, p in enumerate(paths):
        out.append(
            TaskRecord(
                task=task,
                input_tokens=head,
                target_kind="tokens",
                target=[vocab.relation_token(r) for r in p] + [eos],
                provenance=f"{prov_base}:x{i:04d}",
            )
        )
    return out


# -- per-task generators (chunk level, used by the worker pool) --------


def _gen_sp_chunk(state: dict, items: list[tuple[int, Query, int]]) -> GenerationResult:
    g, vocab, cfg = state["g"], state["vocab"], state["cfg"]
    pcfg = cfg.path_config()
    records: list[TaskRecord] = []
    for fact_index, query, partner_pos in items:
        paths = shortest_relational_paths(
            g, query.answer, query.entities[partner_pos], pcfg, exclude_fact=fact_index
        )
        records.extend(_path_records("sp", vocab, cfg, fact_index, query, partner_pos, paths))
    return GenerationResult(records)


def _gen_ip_chunk(state: dict, items: list[tuple[int, Query, int]]) -> GenerationResult:
    g, vocab, cfg = state["g"], state["vocab"], state["cfg"]
    candidates = state["ip_candidates"]
    records: list[TaskRecord] = []
    for fact_index, query, partner_pos in items:
        grounded = ground_paths(
            g,
            query.answer,
            query.entities[partner_pos],
            candidates[query.relation],
            exclude_fact=fact_index,
        )
        records.extend(_path_records("ip", vocab, cfg, fact_index, query, partner_pos, grounded))
    return GenerationResult(records)


def _khn_lcc_input(
    vocab: Vocabulary, cfg: GenerationConfig, task: str, center: int, prev_ball: np.ndarray
) -> tuple[list[int], bool]:
    tokens = [vocab.special_token(TASK_TOKENS[task]), vocab.entity_token(center), vocab.special_token("[SEP]")]
    tokens.extend((prev_ball + vocab.num_specials).tolist())  # entity tokens
    return _clip(tokens, cfg)


def _khn_target(
    vocab: Vocabulary, cfg: GenerationConfig, index: NeighborhoodIndex, e: int, h: int
) -> tuple[str, object]:
    ents, probs = index.occurrence(e, h, weighted=cfg.occurrence_weighted)
    return "dist", list(zip((ents + vocab.num_specials).tolist(), probs.tolist()))


def _lcc_target(
    vocab: Vocabulary, cfg: GenerationConfig, index: NeighborhoodIndex, e: int, h: int
) -> tuple[str, object]:
    return "scalar", float(index.clustering(e, h, weighted=cfg.lcc_weighted))


def _gen_ball_chunk(task: str, target, state: dict, centers: list[int]) -> GenerationResult:
    """One record per radius h = 1..hops of every center with a nonempty
    ball; its input lists the ball of radius h - 1."""
    vocab, cfg, index = state["vocab"], state["cfg"], state["index"]
    records: list[TaskRecord] = []
    skipped = 0
    for e in centers:
        if index.ball(e, 1).size == 0:
            skipped += 1
            continue
        prev_ball = np.empty(0, dtype=np.intp)
        for h in range(1, cfg.hops + 1):
            kind, value = target(vocab, cfg, index, e, h)
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
    return GenerationResult(records, skipped)


def _flatten_tokens(vocab: Vocabulary, cfg: GenerationConfig, matrix) -> tuple[list[int], bool]:
    """Tokens of :func:`flatten_adjacency`: entity tokens, then one value
    token per upper-triangle cell, clamped at ``value_ceiling``. Also
    returns whether any cell was clamped."""
    upper = upper_triangle(matrix.values)
    tokens = [vocab.entity_token(int(e)) for e in matrix.entities]
    tokens.extend((np.minimum(upper, cfg.value_ceiling) + vocab.value_base).tolist())
    return tokens, bool((upper > cfg.value_ceiling).any())


def _gen_iva_chunk(state: dict, items: list[tuple[int, bool]]) -> GenerationResult:
    g, vocab, cfg = state["g"], state["vocab"], state["cfg"]
    records: list[TaskRecord] = []
    skipped = 0
    for center, negative in items:
        rng = random.Random(f"{cfg.seed}:iva:{center}")
        try:
            ex = make_iva_example(
                g,
                center,
                cfg.hops,
                rng,
                negative,
                size_cap=cfg.iva_cap,
                corruption_rate=cfg.corruption_rate,
            )
        except SkipExample:
            skipped += 1
            continue
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
    return GenerationResult(records, skipped)


_CHUNK_FNS = {
    "sp": _gen_sp_chunk,
    "ip": _gen_ip_chunk,
    "khn": partial(_gen_ball_chunk, "khn", _khn_target),
    "lcc": partial(_gen_ball_chunk, "lcc", _lcc_target),
    "iva": _gen_iva_chunk,
}

# worker-pool state, inherited by forked children
_POOL_STATE: dict | None = None


def _pool_run(args: tuple[str, list]) -> GenerationResult:
    task, chunk = args
    assert _POOL_STATE is not None
    return _CHUNK_FNS[task](_POOL_STATE, chunk)


def _run_chunks(task: str, state: dict, items: list, workers: int) -> GenerationResult:
    if workers <= 1 or len(items) < 64:
        return _CHUNK_FNS[task](state, items)
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return _CHUNK_FNS[task](state, items)
    chunk_size = max(1, math.ceil(len(items) / (workers * 4)))
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    global _POOL_STATE
    _POOL_STATE = state
    try:
        with ctx.Pool(workers) as pool:
            results = pool.map(_pool_run, [(task, c) for c in chunks])
    finally:
        _POOL_STATE = None
    merged = GenerationResult([])
    for r in results:
        merged.records.extend(r.records)
        merged.skipped += r.skipped
    return merged


def generate_task_records(
    g: KnowledgeGraph,
    vocab: Vocabulary,
    task: str,
    cfg: GenerationConfig,
    queries: list[Query] | None = None,
    workers: int = 1,
    index: NeighborhoodIndex | None = None,
) -> GenerationResult:
    """Generate all records for one task. Deterministic under the config
    seed and independent of ``workers``. A prebuilt ``index`` (from
    ``NeighborhoodIndex(g, cfg.hops)``) may be shared across the
    neighborhood-based tasks."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    state: dict = {"g": g, "vocab": vocab, "cfg": cfg}
    if task in ("sp", "ip"):
        if queries is None:
            queries = build_queries(g)
        items = _query_items(g, queries)
        if task == "ip":
            pcfg = cfg.path_config()
            ip_cache: dict = {}
            # one trie per relation, shared by every query of it
            state["ip_candidates"] = {
                r: CandidateTrie(information_gain_paths(g, r, pcfg, ip_cache))
                for r in range(g.num_relations)
            }
        return _run_chunks(task, state, items, workers)
    if task == "iva":
        eligible = [e for e in range(g.num_entities) if g.neighbors(e)]
        items = [(e, i % 2 == 1) for i, e in enumerate(eligible)]
        result = _run_chunks(task, state, items, workers)
        result.skipped += g.num_entities - len(eligible)
        return result
    state["index"] = index if index is not None else NeighborhoodIndex(g, cfg.hops)
    centers = list(range(g.num_entities))
    return _run_chunks(task, state, centers, workers)


def _query_items(g: KnowledgeGraph, queries: list[Query]) -> list[tuple[int, Query, int]]:
    """Expand queries into (fact index, query, partner position) items.

    Each masked slot is paired with every other position in the fact.
    """
    fact_lookup: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for i, f in enumerate(g.facts):
        fact_lookup.setdefault((f.relation, f.entities), []).append(i)
    cursor: dict[tuple[int, tuple[int, ...], int], int] = {}
    items: list[tuple[int, Query, int]] = []
    for q in queries:
        key = (q.relation, q.entities)
        indices = fact_lookup.get(key)
        if indices is None:
            fact_index = -1  # query not backed by a train fact; nothing to exclude
        else:
            # rotate through duplicates so each duplicate fact maps to itself
            ck = (q.relation, q.entities, q.masked_index)
            n = cursor.get(ck, 0)
            cursor[ck] = n + 1
            fact_index = indices[n % len(indices)]
        for p in range(len(q.entities)):
            if p != q.masked_index:
                items.append((fact_index, q, p))
    return items


def mix_multitask(
    task_lists: dict[str, list[TaskRecord]], seed: int
) -> tuple[list[TaskRecord], MixPlan]:
    """Interleave per-task records into one stream.

    Drawing the next record by choosing a task with probability
    proportional to its remaining records and then a uniform record
    within that task, without replacement, is exactly a uniform random
    permutation of the union; implemented as a seeded shuffle. Weights
    are the per-task dataset-size fractions.
    """
    sizes = {t: len(rs) for t, rs in task_lists.items() if rs}
    total = sum(sizes.values())
    if total == 0:
        raise EmptyCorpusError("all task record lists are empty")
    alpha = {t: n / total for t, n in sizes.items()}
    stream: list[TaskRecord] = []
    for t in sorted(task_lists):
        for rec in task_lists[t]:
            rec.weight = alpha[rec.task]
            stream.append(rec)
    rng = random.Random(f"{seed}:mix")
    rng.shuffle(stream)
    return stream, MixPlan(sizes=sizes, alpha=alpha, seed=seed)


def write_corpus(records: list[TaskRecord], path: str | Path, meta: dict) -> None:
    """Write the header line followed by one record per line."""
    counts: dict[str, int] = {}
    for r in records:
        counts[r.task] = counts.get(r.task, 0) + 1
    header = dict(meta)
    header.setdefault("format", FORMAT_NAME)
    header.setdefault("version", FORMAT_VERSION)
    header["counts"] = counts
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(r.to_json() for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_corpus(path: str | Path) -> tuple[dict, list[TaskRecord]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CorpusFormatError(f"{path}: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}:1: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CorpusFormatError(f"{path}:1: not a {FORMAT_NAME} file")
    records: list[TaskRecord] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            records.append(TaskRecord.from_json(line))
        except (ValueError, KeyError, TypeError) as exc:
            # not JSON, a missing field, or a record or field of the wrong
            # shape (JSONDecodeError is a ValueError)
            raise CorpusFormatError(f"{path}:{ln}: bad record: {exc}") from exc
    return header, records
