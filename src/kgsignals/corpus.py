"""Task record generation: the work items of each task, their records
and the worker pool that builds them.

Generation is a pure function of (graph, config, seed), and a
:class:`WorkerPool` is one run: the graph, the config and the worker
count. No vocabulary is read. Token ids come from the graph's counts:
the specials in ``SPECIAL_TOKENS`` order, then one token per entity,
then one per relation, then the cell values 0..``value_ceiling`` of IVA
matrices, the numbering ``ingest`` writes to ``vocab.tsv``.
:func:`generate_task_records` alone decides a task's work items, which
centres it skips and the order of its records: the order of its items,
the same at any worker count, since the pool chunks the items and joins
the chunks' records in item order. Facts come by index, then masked
position, then partner position, then path; centres come by id, then
radius. The records, their contract and the corpus files are
:mod:`kgsignals.records`.

Of the CLI commands only ``generate`` imports this module, on first
use, and with it numpy: the neighbourhood, path and IVA code it calls.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .adjacency import make_iva_example
from .graph import KnowledgeGraph
from .ingest import SPECIAL_TOKENS, TASK_TOKENS
from .neighborhood import NeighborhoodIndex
from .paths import CandidateTrie, ground_paths, information_gain_paths, shortest_relational_paths
from .records import _FIRST_ENTITY, TASKS, GenerationConfig, TaskRecord

_SEP = SPECIAL_TOKENS.index("[SEP]")


@dataclass
class GenerationResult:
    records: list  # TaskRecords, or what ``finish`` made of them
    skipped: int  # khn, iva and lcc: the entities with no neighbour


def _clip(tokens: list[int], cfg: GenerationConfig) -> tuple[list[int], bool]:
    if len(tokens) > cfg.max_len:
        return tokens[: cfg.max_len], True
    return tokens, False


# -- per-task chunk functions (used by the worker pool) ---------------


def _gen_path_chunk(
    g: KnowledgeGraph, cfg: GenerationConfig, task: str, search, items: list[tuple[int, int, int]]
) -> list[TaskRecord]:
    """Records of (fact index, masked position, partner position) items.
    The input names the masked entity e_i, the fact's relation and the
    partner e_j; there is one record per path that ``search(fact index,
    e_i, e_j)`` finds between them with the fact itself excluded, or one
    [NO_PATH] record."""
    task_token = SPECIAL_TOKENS.index(TASK_TOKENS[task])
    eos, no_path = SPECIAL_TOKENS.index("[EOS]"), SPECIAL_TOKENS.index("[NO_PATH]")
    first_relation = _FIRST_ENTITY + g.num_entities
    records: list[TaskRecord] = []
    for fact_index, masked, partner in items:
        fact = g.facts[fact_index]
        e_i, e_j = fact.entities[masked], fact.entities[partner]
        paths = search(fact_index, e_i, e_j)
        head, clipped = _clip(
            [task_token, _FIRST_ENTITY + e_i, first_relation + fact.relation, _FIRST_ENTITY + e_j], cfg
        )
        prov_base = f"f{fact_index:08d}:m{masked:02d}:p{partner:02d}"
        targets = [[first_relation + r for r in p] + [eos] for p in paths] or [[no_path]]
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


def _khn_lcc_input(cfg: GenerationConfig, task: str, center: int, prev_ball: np.ndarray) -> tuple[list[int], bool]:
    tokens = [SPECIAL_TOKENS.index(TASK_TOKENS[task]), _FIRST_ENTITY + center, _SEP]
    tokens.extend((prev_ball + _FIRST_ENTITY).tolist())  # entity tokens
    return _clip(tokens, cfg)


def _gen_ball_chunk(cfg: GenerationConfig, task: str, index: NeighborhoodIndex, centers: list[int]) -> list[TaskRecord]:
    """One record per radius h = 1..hops of every center; its input lists
    the ball of radius h - 1. khn targets the occurrence distribution of
    the h-ball, lcc its clustering coefficient."""
    records: list[TaskRecord] = []
    for e in centers:
        prev_ball = np.empty(0, dtype=np.intp)
        for h in range(1, cfg.hops + 1):
            if task == "khn":
                ents, probs = index.occurrence(e, h, weighted=cfg.occurrence_weighted)
                kind, value = "dist", list(zip((ents + _FIRST_ENTITY).tolist(), probs.tolist()))
            else:
                kind, value = "scalar", float(index.clustering(e, h, weighted=cfg.lcc_weighted))
            tokens, clipped = _khn_lcc_input(cfg, task, e, prev_ball)
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


def _flatten_tokens(g: KnowledgeGraph, cfg: GenerationConfig, matrix) -> tuple[list[int], bool]:
    """The tokens of an n-entity matrix of ``g``: its n entity tokens in
    column order, then one value token per cell (i, j) with i <= j,
    row-major with the diagonal, n + n(n+1)/2 tokens in all. Cell value v
    is the token ``min(v, value_ceiling)`` places after the last relation
    token. Also returns whether any cell was clamped."""
    upper = matrix.values[np.triu_indices(len(matrix.entities))]
    tokens = [_FIRST_ENTITY + int(e) for e in matrix.entities]
    value_base = _FIRST_ENTITY + g.num_entities + g.num_relations
    tokens.extend((np.minimum(upper, cfg.value_ceiling) + value_base).tolist())
    return tokens, bool((upper > cfg.value_ceiling).any())


def _gen_iva_chunk(g: KnowledgeGraph, cfg: GenerationConfig, items: list[tuple[int, bool]]) -> list[TaskRecord]:
    records: list[TaskRecord] = []
    for center, negative in items:
        rng = random.Random(f"{cfg.seed}:iva:{center}")
        # no SkipExample: every center has a neighbour and hops >= 1
        ex = make_iva_example(g, center, cfg, rng, negative)
        left, cl1 = _flatten_tokens(g, cfg, ex.left)
        right, cl2 = _flatten_tokens(g, cfg, ex.right)
        tokens = [SPECIAL_TOKENS.index("[IVA]")] + left + [_SEP] + right
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


def _chunk_fn(g: KnowledgeGraph, cfg: GenerationConfig, task: str):
    """The chunk function of ``task``: it maps a list of work items to
    their records, with the task's state built once and bound. That is
    the neighbourhood index of khn and lcc, and for sp and ip the path
    search, which for ip holds one candidate trie per relation, shared
    by every fact of it."""
    if task == "iva":
        return partial(_gen_iva_chunk, g, cfg)
    if task in ("khn", "lcc"):
        return partial(_gen_ball_chunk, cfg, task, NeighborhoodIndex(g, cfg.hops))
    if task == "sp":

        def search(fact_index: int, e_i: int, e_j: int) -> list[tuple[int, ...]]:
            return shortest_relational_paths(g, e_i, e_j, cfg, exclude_fact=fact_index)

    else:
        ip_cache: dict = {}
        tries = [CandidateTrie(information_gain_paths(g, r, cfg, ip_cache)) for r in range(g.num_relations)]

        def search(fact_index: int, e_i: int, e_j: int) -> list[tuple[int, ...]]:
            return ground_paths(g, e_i, e_j, tries[g.facts[fact_index].relation], exclude_fact=fact_index)

    return partial(_gen_path_chunk, g, cfg, task, search)


def _run_chunk(fn, finish, items: list) -> list:
    records = fn(items)
    return records if finish is None else finish(records)


# set in a forked worker only: the (graph, config) it was forked with,
# the last task it ran chunks of, and that task's chunk function
_WORKER: dict = {}


def _init_worker(g: KnowledgeGraph, cfg: GenerationConfig) -> None:
    _WORKER.update(run=(g, cfg), task=None, fn=None)


def _worker_run(args: tuple) -> list:
    task, finish, items = args
    if _WORKER["task"] != task:
        _WORKER["fn"] = None  # free the previous task's state first
        _WORKER["fn"] = _chunk_fn(*_WORKER["run"], task)
        _WORKER["task"] = task
    return _run_chunk(_WORKER["fn"], finish, items)


class WorkerPool:
    """One run: its graph, its config, its worker count and, with more
    than one worker, the forked worker processes that
    :func:`generate_task_records` shares among the run's tasks.

    The workers are forked when a task first needs them and inherit the
    graph and config through the fork, so nothing of the graph is
    pickled. A worker builds a task's chunk function on its first chunk
    of that task and keeps only the current task's. :meth:`close` ends
    the workers."""

    def __init__(self, g: KnowledgeGraph, cfg: GenerationConfig, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.g, self.cfg, self.workers = g, cfg, workers
        self._pool = None

    def records(self, task: str, finish, items: list) -> list:
        """Run ``items`` in chunks, four per worker, and join the chunks'
        records, or what ``finish`` made of them, in item order. With one
        worker, fewer than 64 items or no fork start method, the chunks
        run one after another in this process, so that only one chunk's
        records exist at a time when ``finish`` serializes them."""
        chunk_size = max(1, math.ceil(len(items) / (self.workers * 4)))
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        if self.workers > 1 and len(items) >= 64 and "fork" in mp.get_all_start_methods():
            if self._pool is None:
                # built once here instead of once in every worker
                self.g.cooccurrence_rows()
                self._pool = mp.get_context("fork").Pool(
                    self.workers, initializer=_init_worker, initargs=(self.g, self.cfg)
                )
            results = self._pool.map(_worker_run, [(task, finish, c) for c in chunks])
        else:
            fn = _chunk_fn(self.g, self.cfg, task)
            results = [_run_chunk(fn, finish, c) for c in chunks]
        return [r for chunk in results for r in chunk]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()  # also joins the workers
            self._pool = None


def generate_task_records(run: WorkerPool, task: str, finish=None) -> GenerationResult:
    """Generate all records of one task of ``run``, in work-item order.
    Deterministic under the config seed and independent of the worker
    count.

    sp and ip take every (fact, masked position, partner position). khn,
    iva and lcc take every entity with a neighbour as a center, and
    count the others as ``skipped``. ``finish``, when given, maps each
    chunk's record list to one item per record in the process that
    built the chunk, such as :func:`check_and_serialize`; ``records``
    then holds those items, in the same order.

    With more than one worker and the fork start method, a task of at
    least 64 items runs on the run's workers; smaller tasks run in this
    process."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    g = run.g
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
    return GenerationResult(run.records(task, finish, items), skipped)
