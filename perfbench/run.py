#!/usr/bin/env python3
"""Benchmark of the kgsignals corpus generator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The fixture for (workload, seed) is built
in-process and written as a TSV; then rounds of the real CLI run as
subprocesses until ``--seconds`` are used up:

    kgsignals ingest -> generate -> verify <every corpus> -> mix --seed N+1

``--trace 0`` times each step with ``os.wait4`` (wall, user+sys CPU of
the process tree, peak RSS), scales the times by a reference process
timed between the steps (see ``e2e_round``) and reports end-to-end
medians.
``--trace 1`` instead runs ``tracer.py`` children that drive the CLI
in-process with timing wrappers and reports per-layer metrics.

Every round checks exit codes, that ``verify`` says ok, and that the
corpus digests repeat exactly across rounds and across worker counts.
Before the timed rounds, an untimed round on the seed recorded in
``expected.json`` must reproduce the recorded fixture and corpus
digests. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from fixtures import WORKLOADS, Workload, fixture_text
from tracer import digest_dir, file_digest

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
WORK_DIR = ".perfbench_work"  # relative to the repository root
GEN_SEED = 7  # generate --seed; the workload seed varies the graph
STEP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # never start a round that could end past this
TASKS = ("sp", "ip", "khn", "iva", "lcc")
# Step times are scaled to the speed at which the reference takes
# REFERENCE_NOMINAL_S (see e2e_round).
REFERENCE_CODE = "import json, numpy, scipy.sparse"
REFERENCE_NOMINAL_S = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_s": "s",
    "generate_cpu_s": "s",
    "generate_rss_mib": "MiB",
    "verify_s": "s",
    "verify_rss_mib": "MiB",
    "remix_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source tree)."""


@dataclass
class Step:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: str


class Run:
    """Counts of steps and output checks attempted and failed, with the
    reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: set[str] = set()

    def check(self, ok: bool, what: str) -> bool:
        """Count one step run or output check made."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def cli_command(root: Path) -> list[str]:
    """The ``kgsignals`` console script from pyproject.toml, run with
    the current interpreter against ``src/``."""
    import tomllib

    spec = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["kgsignals"]
    module, func = spec.split(":")
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'kgsignals'; sys.exit({func}())"
    return [sys.executable, "-c", code]


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_step(argv: list, env: dict, log_dir: Path, label: str) -> Step:
    """Run one subprocess and reap it with ``wait4`` so its rusage
    (including waited-for pool workers) is captured."""
    out_path = log_dir / f"{label}.out"
    with open(out_path, "wb") as out, open(log_dir / f"{label}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, env=env)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mib=ru.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
    )


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def reference_s(env: dict) -> float:
    """Wall time to start a Python process that imports numpy and scipy:
    the machine's current speed for the kind of work every CLI step
    does, measured without any kgsignals code."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=env, capture_output=True)
    if proc.returncode != 0:
        raise SetupError(f"the reference process failed: {proc.stderr.decode(errors='replace').strip()}")
    return time.perf_counter() - t0


def e2e_round(run: Run, cli: list, env: dict, w: Workload, tsv: Path, seed: int, rdir: Path):
    """One ingest/generate/verify/mix round; returns (metric samples,
    digests) or None when a step failed.

    The machine's speed drifts by up to 1.7x for seconds to minutes at
    a time, and every step slows with it. So the reference process runs
    before the first step and after every step, never while a step runs,
    and each step's times are scaled by REFERENCE_NOMINAL_S over the mean
    of the two reference times around it.
    """
    data, out, remix = rdir / "data", rdir / "out", rdir / "remix.jsonl"
    refs = [reference_s(env)]

    def step(argv: list, label: str) -> Step:
        got = run_step(argv, env, rdir, label)
        refs.append(reference_s(env))
        return got

    ingest = step([*cli, "ingest", "--train", tsv, "--kind", w.kind, "--out", data], "ingest")
    if not run.check(ingest.code == 0, f"ingest exited {ingest.code}"):
        return None
    gen = step(
        [*cli, "generate", w.task, "--data", data, "--out", out, "--seed", GEN_SEED, "--workers", w.workers],
        "generate",
    )
    if not run.check(gen.code == 0, f"generate exited {gen.code}"):
        return None
    corpora = sorted(out.glob("*.jsonl"))
    ver = step([*cli, "verify", *corpora], "verify")
    if not run.check(ver.code == 0 and _last_line(ver.stdout) == "ok", f"verify exited {ver.code}"):
        return None
    per_task = [c for c in corpora if c.stem != "all"]
    mix = step([*cli, "mix", *per_task, "--seed", seed + 1, "--out", remix], "mix")
    if not run.check(mix.code == 0, f"mix exited {mix.code}"):
        return None
    digests = digest_dir(out)
    digests[remix.name] = file_digest(remix)
    scale = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    samples = {
        "setup_s": ingest.wall_s * scale[0],
        "generate_s": gen.wall_s * scale[1],
        "generate_cpu_s": gen.cpu_s * scale[1],
        "generate_rss_mib": gen.rss_mib,
        "verify_s": ver.wall_s * scale[2],
        "verify_rss_mib": ver.rss_mib,
        "remix_s": mix.wall_s * scale[3],
        # unscaled, for the report only
        "raw.setup_s": ingest.wall_s,
        "raw.generate_s": gen.wall_s,
        "raw.generate_cpu_s": gen.cpu_s,
        "raw.verify_s": ver.wall_s,
        "raw.remix_s": mix.wall_s,
        "raw.reference_s": statistics.median(refs),
    }
    return {k: (v, END_TO_END_UNITS.get(k, "s")) for k, v in samples.items()}, digests


# -- traced run --------------------------------------------------------


def aggregate(trace: dict) -> dict[str, dict[str, list[float]]]:
    """Per root span (cli.<command>), per span name: [busy_s, self_s,
    calls]. Busy time skips spans nested in a span of the same name;
    self time subtracts the time covered by direct children."""
    names, name, start, end, parent = (trace[k] for k in ("names", "name", "start", "end", "parent"))
    n = len(name)
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += end[i] - start[i]
    out: dict[str, dict[str, list[float]]] = {}
    for i in range(n):
        dur = end[i] - start[i]
        root, p, nested = i, parent[i], False
        while p >= 0:
            nested = nested or name[p] == name[i]
            root, p = p, parent[p]
        agg = out.setdefault(names[name[root]], {}).setdefault(names[name[i]], [0.0, 0.0, 0])
        if not nested:
            agg[0] += dur
        agg[1] += dur - child_time[i]
        agg[2] += 1
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced: dict, plain: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round. Metrics whose wrap target
    no longer exists are left out."""
    tr = traced["trace"]
    live = set(tr["live"])
    counts = tr["counts"]
    roots = aggregate(tr)
    m: dict[str, tuple[float, str]] = {}

    def get(root: str, span: str, field: int) -> float:
        return roots.get(root, {}).get(span, [0.0, 0.0, 0])[field]

    def put(metric: str, unit: str, label: str, value: float) -> None:
        if label in live:
            m[metric] = (value, unit)

    def busy(root: str, span: str) -> float:
        return get(root, span, 0)

    g = "cli.generate"
    put("ingest.parse_s", "s", "ingest.parse", busy("cli.ingest", "ingest.parse"))
    put("ingest.stats_s", "s", "ingest.stats", busy("cli.ingest", "ingest.stats"))
    put("cli.read_tuples_s", "s", "cli.read_tuples", busy(g, "cli.read_tuples"))
    put("graph.build_index_s", "s", "graph.build_index", busy(g, "graph.build_index"))
    put("graph.cooccurrence_s", "s", "graph.cooccurrence", busy(g, "graph.cooccurrence"))

    sp_calls = get(g, "paths.sp", 2)
    put("paths.sp_calls", "count", "paths.sp", sp_calls)
    put("paths.sp_s", "s", "paths.sp", busy(g, "paths.sp"))
    put("paths.bfs_calls", "count", "paths.bfs", get(g, "paths.bfs", 2))
    put("paths.bfs_s", "s", "paths.bfs", busy(g, "paths.bfs"))
    put("paths.sp_no_path_ratio", "ratio", "paths.sp", _ratio(counts.get("paths.sp.no_path", 0), sp_calls))
    put("paths.sp_capped_ratio", "ratio", "paths.sp", _ratio(counts.get("paths.sp.capped", 0), sp_calls))
    put("paths.ip_candidates_s", "s", "paths.ip_candidates", busy(g, "paths.ip_candidates"))
    put("paths.ip_candidate_paths", "count", "paths.ip_candidates", counts.get("paths.ip_candidates.paths", 0))
    put("paths.ground_calls", "count", "paths.ground", get(g, "paths.ground", 2))
    put("paths.ground_s", "s", "paths.ground", busy(g, "paths.ground"))
    put(
        "paths.ground_kept_ratio", "ratio", "paths.ground",
        _ratio(counts.get("paths.ground.kept", 0), counts.get("paths.ground.offered", 0)),
    )

    put("neighborhood.index_s", "s", "neighborhood.index", busy(g, "neighborhood.index"))
    put("neighborhood.index_rss_mib", "MiB", "neighborhood.index", counts.get("neighborhood.index.rss_rise_mib", 0.0))
    put("neighborhood.ball_calls", "count", "neighborhood.ball", get(g, "neighborhood.ball", 2))
    put("neighborhood.ball_entities", "count", "neighborhood.ball", counts.get("neighborhood.ball.entities", 0))
    put("neighborhood.ball_s", "s", "neighborhood.ball", busy(g, "neighborhood.ball"))
    put("neighborhood.occurrence_s", "s", "neighborhood.occurrence", busy(g, "neighborhood.occurrence"))
    put("neighborhood.clustering_s", "s", "neighborhood.clustering", busy(g, "neighborhood.clustering"))
    put("neighborhood.khop_calls", "count", "neighborhood.khop", get(g, "neighborhood.khop", 2))
    put("neighborhood.khop_s", "s", "neighborhood.khop", busy(g, "neighborhood.khop"))

    iva_calls = get(g, "adjacency.iva", 2)
    put("adjacency.iva_calls", "count", "adjacency.iva", iva_calls)
    put("adjacency.iva_s", "s", "adjacency.iva", busy(g, "adjacency.iva"))
    # centres skipped by generate_task_records for an empty ball, over
    # all centres considered
    iva_skipped = counts.get("corpus.iva.skipped", 0)
    put(
        "adjacency.iva_skip_ratio", "ratio", "corpus.task",
        _ratio(iva_skipped, iva_skipped + counts.get("corpus.iva.records", 0)),
    )
    put("adjacency.adj_s", "s", "adjacency.adj", busy(g, "adjacency.adj"))
    put("adjacency.flatten_s", "s", "adjacency.flatten", busy(g, "adjacency.flatten"))
    put("adjacency.perm_calls", "count", "adjacency.perm", get(g, "adjacency.perm", 2))
    put("adjacency.perm_s", "s", "adjacency.perm", busy(g, "adjacency.perm"))

    for task in TASKS:
        span = f"corpus.{task}"
        put(f"{span}.s", "s", "corpus.task", busy(g, span))
        put(f"{span}.self_s", "s", "corpus.task", get(g, span, 1))
        put(f"{span}.records", "count", "corpus.task", counts.get(f"{span}.records", 0))
    put("corpus.serialize_s", "s", "corpus.serialize", busy(g, "corpus.serialize"))
    put("corpus.write_s", "s", "corpus.write", busy(g, "corpus.write"))
    written = sum(d["bytes"] for f, d in traced["digests"].items() if f != "remix.jsonl")
    put("corpus.write_mib", "MiB", "corpus.write", written / 2**20)
    put("corpus.mix_s", "s", "corpus.mix", busy(g, "corpus.mix"))
    put(
        "corpus.read_s", "s", "corpus.read",
        busy("cli.verify", "corpus.read") + busy("cli.mix", "corpus.read"),
    )
    put("corpus.read_records", "count", "corpus.read", counts.get("corpus.read.records", 0))
    put("cli.verify_check_s", "s", "cli.verify_check", get("cli.verify", "cli.verify_check", 1))

    w1, w2 = plain["tasks_w1"], plain["tasks_w2"]
    if w1 and w2:
        m["corpus.pool_s"] = (sum(w2.values()), "s")
        m["corpus.pool_speedup"] = (sum(w1.values()) / sum(w2.values()), "ratio")
    m["trace.unattributed_s"] = (get(g, g, 1), "s")
    m["trace.overhead_ratio"] = (traced["walls"]["generate"] / plain["walls"]["generate_w1"], "ratio")
    return m


def trace_round(run: Run, env: dict, w: Workload, tsv: Path, seed: int, rdir: Path):
    """One traced round plus its untraced reference; returns (metric
    samples, digests) or None when a step failed."""
    tracer = [sys.executable, BENCH_DIR / "tracer.py"]
    common = ["--work", rdir, "--task", w.task, "--gen-seed", GEN_SEED]
    res_t, res_p = rdir / "traced.json", rdir / "plain.json"
    step = run_step(
        [*tracer, "traced", *common, "--result", res_t, "--train", tsv, "--kind", w.kind, "--mix-seed", seed + 1],
        env, rdir, "traced",
    )
    if not run.check(step.code == 0 and res_t.exists(), f"traced run exited {step.code}"):
        return None
    traced = json.loads(res_t.read_text())
    step = run_step([*tracer, "plain", *common, "--result", res_p, "--data", rdir / "data"], env, rdir, "plain")
    if not run.check(step.code == 0 and res_p.exists(), f"plain run exited {step.code}"):
        return None
    plain = json.loads(res_p.read_text())
    trace = traced["trace"]
    run.notes.update(f"wrap target absent, its metrics left out: {t}" for t in trace["absent"])
    run.notes.update(f"counter hook failed, its metrics left out: {t}" for t in trace["broken"])
    codes = {**traced["codes"], **plain["codes"]}
    bad = {k: v for k, v in codes.items() if v != 0}
    if not run.check(not bad, f"in-process CLI exit codes {bad}"):
        return None
    digests = traced["digests"]
    corpora = {k: v for k, v in digests.items() if k != "remix.jsonl"}
    for workers in (1, 2):
        if not run.check(
            plain[f"digests_w{workers}"] == corpora,
            f"generate --workers {workers} untraced differs from the traced --workers 1 output",
        ):
            return None
    return layer_metrics(traced, plain), digests


# -- benchmark ---------------------------------------------------------


def load_expected(name: str) -> dict | None:
    if not EXPECTED_FILE.exists():
        return None
    return json.loads(EXPECTED_FILE.read_text()).get(name)


def write_fixture(w: Workload, seed: int, path: Path) -> str:
    path.write_text(fixture_text(w, seed), encoding="utf-8")
    return file_digest(path)["sha256"]


def check_recorded(run: Run, cli: list, env: dict, w: Workload, expected: dict, work: Path) -> None:
    """Untimed round on the recorded seed, compared with expected.json.

    It runs whatever the run's own seed is, so every run checks the
    corpus bytes, and it warms the page cache for the timed rounds.
    """
    tsv = work / "recorded.tsv"
    seed = expected["seed"]
    run.check(write_fixture(w, seed, tsv) == expected["fixture_sha256"], "fixture digest differs from expected.json")
    rdir = Path(tempfile.mkdtemp(prefix="recorded-", dir=work))
    try:
        got = e2e_round(run, cli, env, w, tsv, seed, rdir)
    finally:
        shutil.rmtree(rdir, ignore_errors=True)
    if got is not None:
        run.check(got[1] == expected["corpora"], "corpus digests differ from expected.json")


def benchmark(
    root: Path, w: Workload, seed: int, seconds: float, trace: bool, workers: int | None = None, record: bool = False
) -> dict:
    """Run rounds of one workload for ``seconds``; returns the result
    object plus a ``report`` of human-readable lines, the first round's
    digests and the fixture digest. ``record`` skips the comparison with
    expected.json, for re-recording it."""
    if not (root / "src" / "kgsignals").is_dir() or not (root / "pyproject.toml").is_file():
        raise SetupError(f"{root} holds no kgsignals source tree (src/kgsignals, pyproject.toml)")
    if workers is not None:
        w = Workload(**{**w.__dict__, "workers": workers})
    run = Run()
    report: list[str] = []
    expected = None if record else load_expected(w.name)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=root / WORK_DIR))
    t_begin = time.perf_counter()
    try:
        cli, env = cli_command(root), child_env(root, work)
        if expected is not None:
            check_recorded(run, cli, env, w, expected, work)
        tsv = work / "train.tsv"
        fixture_sha = write_fixture(w, seed, tsv)
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        reference = None
        longest = 0.0
        while True:
            rdir = Path(tempfile.mkdtemp(prefix="round-", dir=work))
            r0 = time.perf_counter()
            try:
                if trace:
                    got = trace_round(run, env, w, tsv, seed, rdir)
                else:
                    got = e2e_round(run, cli, env, w, tsv, seed, rdir)
            finally:
                shutil.rmtree(rdir, ignore_errors=True)
            longest = max(longest, time.perf_counter() - r0)
            if got is None:
                break
            values, digests = got
            for k, (value, unit) in values.items():
                samples.setdefault(k, []).append(value)
                units[k] = unit
            if reference is None:
                reference = digests
            else:
                run.check(digests == reference, "corpus digests changed between rounds")
            now = time.perf_counter()
            # the run, check round included, stays within ``seconds``
            if now + longest > t_begin + min(seconds, RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()  # only when no other run is using it
        except OSError:
            pass

    medians = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    metrics = {k: v for k, v in medians.items() if trace or k in END_TO_END_UNITS}
    n = max((len(v) for v in samples.values()), default=0)
    report.append(f"workload {w.name} seed {seed}: {n} round(s), trace={int(trace)}")
    for k, v in medians.items():
        report.append(f"  {k:34s} {v['value']:14.6f} {v['unit']:6s} median of n={len(samples[k])}")
    report.append(f"  failure_rate {run.failed}/{run.attempted} steps")
    report.append("  checked: exit codes, verify, byte-identical corpora across rounds" + (" and worker counts" if trace else ""))
    if expected is not None:
        report.append(f"  checked: fixture and corpus digests of seed {expected['seed']} against expected.json")
    else:
        report.append("  no recorded digests for this workload: expected.json not checked")
    report.extend(f"  {n}" for n in sorted(run.notes))
    report.extend(f"  FAILED: {e}" for e in run.errors)
    return {
        "correct": run.failed == 0 and reference is not None,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
        "report": report,
        "digests": reference,
        "fixture_sha256": fixture_sha,
    }


def main() -> int:
    p = argparse.ArgumentParser(description="kgsignals benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        res = benchmark(Path.cwd(), WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in res["report"]:
        print(line)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
