"""The three benchmark workloads and the checks on their outputs.

Every workload reports the same three gated metrics, each defined on its own
unit of work:

* ``setup_s``: median wall time of the one-off preparation, repeated three
  times per run;
* ``work_s``: wall time of one unit of timed work: the median over the
  train -> evaluate -> recommend passes or the solver rounds, and the 10th
  percentile over the top-N queries (see ``SERVE_PCT``);
* ``peak_rss_mb``: peak resident memory of the processes that did the work.

The workload-specific figures (per-step times, metric values, latency
percentiles, digests) are reported beside them.  The library is driven only
through names exported from ``demandrec``, through its command line, and
through ``demandrec.data._build_log`` for the solver round.  All of them are
looked up at call time so that a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
from tracing import TARGETS, Tracer

N_SETUPS = 3
TOP_N = 10
DIGEST_QUERIES = 1000  # serve_topn digests this fixed prefix of its stream
# serve_topn gates on this percentile of query latency, not the median.  On a
# shared host a query runs in one of two speeds, about 0.21 ms or 0.30 ms on a
# 2-core VM, depending on the load beside it; the share of time at each speed
# swings from run to run, so the median jumps between the two.  The 10th
# percentile stays at the faster speed and still covers the common queries
# (about 4% of queries are cheap ones, around 0.12 ms).
SERVE_PCT = 10.0

# The synthetic histories use one generator seed: their size swings from
# 0.3M to 1.0M purchases across generator seeds at the CLI shape, which would
# drown code speed in input size.  The benchmark seed drives everything else.
HISTORY_SEED = 0

SHAPES = {
    "cli_chain": {
        "full": dict(m=1000, n=1000, l=200, r=10),
        "tiny": dict(m=120, n=100, l=120, r=3),
    },
    "solver_4m": {
        "full": dict(m=50_000, n=50_000, l=200, r=10, nnz=4_000_000),
        "tiny": dict(m=400, n=400, l=60, r=4, nnz=20_000),
    },
    "serve_topn": {
        "full": dict(m=2000, n=2000, l=300, r=10),
        "tiny": dict(m=120, n=100, l=120, r=3),
    },
}


class BenchError(RuntimeError):
    """A step failed so badly that the run cannot report its metrics."""


@dataclass
class Run:
    """State of one benchmark run: inputs, timings, checks, digests."""

    root: Path
    workdir: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    shape: dict
    deadline: float
    rows: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    digests: dict = field(default_factory=dict)
    gated: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def child_seed(self, stream: int) -> int:
        """A seed for one input stream, derived from the benchmark seed."""
        return int(np.random.SeedSequence([self.seed, stream]).generate_state(1)[0])

    def op(self, problems, what: str) -> int:
        """Count one attempted operation; it failed if it had problems.
        Returns the operation's index."""
        index = self.attempted
        self.attempted += 1
        self.fail(index, problems, what)
        return index

    def fail(self, index: int, problems, what: str) -> None:
        """Charge problems found later (in outputs) to an operation."""
        for problem in problems:
            self.failures.append(f"{what}: {problem}")
            self.failed_ops.add(index)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def row(self, name: str, value, unit: str, note: str = "") -> None:
        self.rows.append((name, value, unit, note))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check_time(self, what: str) -> None:
        if self.remaining() <= 0:
            raise BenchError(f"out of time before {what}")


def _room_for_another(run: Run, start: float, units) -> bool:
    """True before the first unit, and while another unit as long as the
    last one still ends within ``--seconds``: a run measures whole units
    only, so a unit longer than half of ``--seconds`` runs once."""
    if not units:
        return True
    return time.perf_counter() - start + units[-1] <= run.seconds


def _import_demandrec():
    import demandrec
    import demandrec.cli
    import demandrec.data

    return demandrec


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _sha256_floats(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _nonincreasing_finite(trace) -> list:
    """Problems with an objective trace: non-finite values or increases
    beyond the solver's own tolerance."""
    problems = []
    if not trace:
        return ["empty objective trace"]
    if not all(math.isfinite(v) for v in trace):
        problems.append(f"non-finite objective in {trace}")
    for prev, cur in zip(trace, trace[1:]):
        if cur > prev + 1e-8 * max(1.0, abs(prev)):
            problems.append(f"objective increased {prev!r} -> {cur!r}")
    return problems


def _check_topn(ranking, n_items: int) -> list:
    """Problems with one top-N list of (item, score) pairs."""
    items = [item for item, _ in ranking]
    scores = [score for _, score in ranking]
    problems = []
    if len(items) != TOP_N or len(set(items)) != TOP_N:
        problems.append(f"expected {TOP_N} distinct items, got {items}")
    if any(not 0 <= item < n_items for item in items):
        problems.append(f"item id out of range in {items}")
    if not all(math.isfinite(s) for s in scores):
        problems.append("non-finite score")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append(f"scores increase: {scores}")
    return problems


# ---------------------------------------------------------------------------
# cli_chain


# the files each command must leave behind; the split artifacts train hands
# to evaluate are an internal format and are left out on purpose
_CLI_ARTIFACTS = {
    "synth": ["purchases.csv", "categories.csv", "truth.txt"],
    "train": ["model.bin", "fit_report.txt"],
    "evaluate": ["metrics.txt", "records.csv"],
    "recommend": ["recommendations.csv"],
}


@dataclass
class StepResult:
    wall_s: float
    rss_mb: float | None
    problems: list
    op: int


def _cli_subprocess(run: Run, argv, logdir: Path) -> tuple[int, float, float, str]:
    """Run ``demandrec <argv>`` as a child; return exit code, wall seconds,
    the child's peak RSS in MB and its stderr."""
    cmd = [sys.executable, "-m", "demandrec", *argv]
    err_path = logdir / f"{argv[0]}.err"
    with open(logdir / f"{argv[0]}.out", "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=run.root)
        timer = threading.Timer(max(run.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text()


def _cli_inprocess(argv, logdir: Path) -> tuple[int, float, None, str]:
    """Run the command line in this process, so that a tracer sees it."""
    from demandrec import cli

    err_path = logdir / f"{argv[0]}.err"
    with open(logdir / f"{argv[0]}.out", "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
    return code, wall, None, err_path.read_text()


def _cli_step(run: Run, argv, outdir: Path, in_process: bool) -> StepResult:
    run.check_time(f"demandrec {argv[0]}")
    logdir = run.workdir / "logs"
    logdir.mkdir(exist_ok=True)
    for name in _CLI_ARTIFACTS[argv[0]]:  # an artifact left by an earlier pass is not one
        (outdir / name).unlink(missing_ok=True)
    if in_process:
        code, wall, rss, stderr = _cli_inprocess(argv, logdir)
    else:
        code, wall, rss, stderr = _cli_subprocess(run, argv, logdir)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    problems.extend(line for line in stderr.splitlines() if line.startswith("error:"))
    problems.extend(
        f"missing {name}" for name in _CLI_ARTIFACTS[argv[0]] if not (outdir / name).is_file()
    )
    op = run.op(problems, f"demandrec {argv[0]}")
    if problems and argv[0] == "synth":
        raise BenchError(f"demandrec synth failed: {problems}")
    return StepResult(wall, rss, problems, op)


def _read_keys(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def _check_chain_outputs(run: Run, outdir: Path, ops: dict) -> dict:
    """Quality figures of one chain pass; failed checks are charged to the
    operation (``ops``: command -> index) that produced the output."""
    dr = _import_demandrec()
    found = {}
    # train: objective trace and recovered durations
    problems = []
    report = _read_keys(outdir / "fit_report.txt")
    trace = [
        float(report[key].split()[0])
        for key in sorted((k for k in report if k.startswith("iteration_")),
                          key=lambda k: int(k.split("_")[1]))
    ]
    problems.extend(_nonincreasing_finite(trace))
    d_true = np.array(_read_keys(outdir / "truth.txt")["d_true"].split(), dtype=float)
    d = dr.load_model(outdir / "model.bin").d
    err = float(np.linalg.norm(d - d_true) / np.linalg.norm(d_true))
    if not err < 0.05:
        problems.append(f"duration_err {err:.4g} >= 0.05")
    found["duration_err"] = err
    found["final_objective"] = float(report["final_objective"])
    run.fail(ops["train"], problems, "demandrec train")
    # evaluate: every metric in (0, 100]
    problems = []
    metrics = _read_keys(outdir / "metrics.txt")
    for key in ("category_pct", "time_pct", "item_pct"):
        value = float(metrics.get(key, "nan"))
        if not 0.0 < value <= 100.0:
            problems.append(f"{key} = {value} outside (0, 100]")
        found[key] = value
    found["n_records"] = int(metrics["n_records"])
    run.fail(ops["evaluate"], problems, "demandrec evaluate")
    # recommend: one valid top-N list
    lines = (outdir / "recommendations.csv").read_text().split()
    ranking = [(int(item), float(score)) for _, item, score in
               (line.split(",") for line in lines[1:])]
    run.fail(ops["recommend"], _check_topn(ranking, run.shape["n"]), "demandrec recommend")
    return found


def _chain_digests(outdir: Path) -> dict:
    report = (outdir / "fit_report.txt").read_text()
    # the report carries per-iteration wall times; digest it also without them
    untimed = "\n".join(line.split(" (")[0] for line in report.splitlines())
    return {
        "records.csv": _sha256_file(outdir / "records.csv"),
        "recommendations.csv": _sha256_file(outdir / "recommendations.csv"),
        "fit_report.txt": _sha256_file(outdir / "fit_report.txt"),
        "fit_report.txt without timings": hashlib.sha256(untimed.encode()).hexdigest(),
    }


def _history_users(outdir: Path) -> int:
    """Distinct users of the synthetic purchases.csv: the ingested log
    numbers them 0 .. count-1."""
    with open(outdir / "purchases.csv") as handle:
        return len({line.split(",", 1)[0] for line in handle if line.strip()})


def cli_chain(run: Run) -> None:
    _import_demandrec()  # load the package before anything is timed
    shape = run.shape
    outdir = run.workdir / "out"
    seed = str(run.child_seed(1))
    common = ["--output-dir", str(outdir)]
    synth = ["synth", "--seed", str(HISTORY_SEED), *common]
    for key in ("m", "n", "l", "r"):
        synth += ["--set", f"{key}={shape[key]}"]

    def make_chain():
        rng = np.random.default_rng(run.child_seed(2))
        user = int(rng.integers(_history_users(outdir)))
        slot = int(rng.integers(shape["l"]))
        run.row("history", f"m=n={shape['m']}, l={shape['l']}, r={shape['r']}", "",
                f"generator seed {HISTORY_SEED}; recommend user {user} slot {slot}")
        return [
            ["train", "--seed", seed, *common],
            ["evaluate", "--seed", seed, *common, "--set", "dump_records=true"],
            ["recommend", "--seed", seed, *common, "--user", str(user), "--slot", str(slot),
             "--topn", str(TOP_N)],
        ]

    if run.trace:
        _traced_chain(run, synth, make_chain, outdir)
        return

    setups = [_cli_step(run, synth, outdir, False).wall_s for _ in range(N_SETUPS)]
    chain = make_chain()
    units, steps, rss = [], {argv[0]: [] for argv in chain}, []
    start = time.perf_counter()
    while _room_for_another(run, start, units):
        results = [_cli_step(run, argv, outdir, False) for argv in chain]
        if any(r.problems for r in results):
            raise BenchError("a command of the chain failed")
        for argv, result in zip(chain, results):
            steps[argv[0]].append(result.wall_s)
            rss.append(result.rss_mb)
        units.append(sum(r.wall_s for r in results))
        found = _check_chain_outputs(
            run, outdir, {argv[0]: r.op for argv, r in zip(chain, results)})

    run.gated = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(units),
        "peak_rss_mb": max(rss),
    }
    run.row("setup_s", run.gated["setup_s"], "s", f"demandrec synth, median of {_fmt_list(setups)}")
    for name, walls in steps.items():
        run.row(f"{name}_s", statistics.median(walls), "s",
                f"median of {len(walls)}, includes interpreter start")
    run.row("work_s", run.gated["work_s"], "s", f"train+evaluate+recommend, median of {len(units)}")
    _chain_quality_rows(run, found)
    run.row("peak_rss_mb", run.gated["peak_rss_mb"], "MB", "largest child of the chain")
    run.digests.update(_chain_digests(outdir))


def _traced_chain(run: Run, synth, make_chain, outdir: Path) -> None:
    """The chain in this process, once untraced and once traced."""
    chain = []

    def step(argv):
        result = _cli_step(run, argv, outdir, True)
        if result.problems:
            raise BenchError(f"demandrec {argv[0]} failed: {result.problems}")
        return result

    def one_pass():
        start = time.perf_counter()
        results = {"synth": step(synth)}
        if not chain:
            chain.extend(make_chain())
        results.update((argv[0], step(argv)) for argv in chain)
        return time.perf_counter() - start, results

    run.timings["untraced_s"], _ = one_pass()
    run.tracer.install(TARGETS)
    try:
        run.timings["traced_s"], results = one_pass()
    finally:
        run.tracer.restore()
    for name, result in results.items():
        run.row(f"{name}_s", result.wall_s, "s", "traced, in process")
    ops = {name: result.op for name, result in results.items()}
    _chain_quality_rows(run, _check_chain_outputs(run, outdir, ops))
    run.digests.update(_chain_digests(outdir))


def _chain_quality_rows(run: Run, found: dict) -> None:
    run.row("n_records", found["n_records"], "count", "held-out test records")
    for key in ("category_pct", "time_pct", "item_pct"):
        run.row(key, found[key], "%", "from metrics.txt, lower is better")
    run.row("duration_err", found["duration_err"], "", "relative L2 error of d vs d_true")
    run.row("final_objective", found["final_objective"], "", "from fit_report.txt")


# ---------------------------------------------------------------------------
# solver_4m


def _solver_triplets(run: Run):
    """``nnz`` distinct uniform (user, item, slot) cells, smallest codes
    first, as the record-count scaling criterion draws them."""
    s = run.shape
    cells = s["m"] * s["n"] * s["l"]
    rng = np.random.default_rng(run.child_seed(1))
    draw = np.sort(rng.integers(0, cells, size=int(s["nnz"] * 1.05), dtype=np.int64))
    codes = draw[np.append(True, draw[1:] != draw[:-1])][: s["nnz"]]
    if codes.shape[0] != s["nnz"]:
        raise BenchError(f"drew {codes.shape[0]} distinct cells, wanted {s['nnz']}")
    return codes // (s["n"] * s["l"]), (codes // s["l"]) % s["n"], codes % s["l"]


def solver_4m(run: Run) -> None:
    dr = _import_demandrec()
    s = run.shape
    users, items, slots = _solver_triplets(run)
    cats = dr.CategoryMap(assignment=np.arange(s["n"], dtype=np.int64) % s["r"], r=s["r"])
    cfg = dr.SolverConfig(outer_iters=1, inner_iters=10, max_rank=10, tol=1e-12, seed=0)
    run.row("log", f"{s['nnz']} records, m=n={s['m']}, l={s['l']}, r={s['r']}", "",
            "outer_iters=1 inner_iters=10 max_rank=10 tol=1e-12")

    def build():
        run.check_time("building the log")
        start = time.perf_counter()
        log = dr.data._build_log(users, items, slots, m=s["m"], n=s["n"])
        wall = time.perf_counter() - start
        run.op([] if log.nnz == s["nnz"] else [f"log has {log.nnz} records"], "build log")
        return log, wall

    def round_(log):
        run.check_time("the solver round")
        start = time.perf_counter()
        try:
            state, report = dr.fit(log, cats, cfg)
        except dr.DemandRecError as exc:
            run.op([f"{type(exc).__name__}: {exc}"], "fit")
            raise BenchError("fit failed") from exc
        wall = time.perf_counter() - start
        problems = _nonincreasing_finite(report.objective_history)
        if not (np.isfinite(state.d).all() and (state.d >= 0).all()):
            problems.append(f"bad durations {state.d}")
        run.op(problems, "fit")
        return state, report, wall

    if run.trace:
        start = time.perf_counter()
        log, _ = build()
        round_(log)
        run.timings["untraced_s"] = time.perf_counter() - start
        del log
        run.tracer.install(TARGETS)
        try:
            start = time.perf_counter()
            log, setup = build()
            state, report, fit_s = round_(log)
            run.timings["traced_s"] = time.perf_counter() - start
        finally:
            run.tracer.restore()
        run.row("setup_s", setup, "s", "traced")
        run.row("fit_s", fit_s, "s", "traced")
    else:
        setups = []
        for _ in range(N_SETUPS):
            log = None  # release the previous copy before building the next
            log, wall = build()
            setups.append(wall)
        units = []
        start = time.perf_counter()
        while _room_for_another(run, start, units):
            state, report, wall = round_(log)
            units.append(wall)
        run.gated = {
            "setup_s": statistics.median(setups),
            "work_s": statistics.median(units),
            "peak_rss_mb": _self_peak_rss_mb(),
        }
        run.row("setup_s", run.gated["setup_s"], "s", f"_build_log, median of {_fmt_list(setups)}")
        run.row("fit_s", run.gated["work_s"], "s", f"median of {len(units)} rounds")
        run.row("work_s", run.gated["work_s"], "s", "= fit_s")
        run.row("peak_rss_mb", run.gated["peak_rss_mb"], "MB", "this process")
    run.row("final_objective", report.final_objective, "", f"rank {state.X.rank}")
    run.digests["d"] = _sha256_floats(state.d)
    run.digests["d values"] = [float(v) for v in state.d]
    run.digests["objective trace"] = _sha256_floats(report.objective_history)
    run.digests["objective trace values"] = [float(v) for v in report.objective_history]


# ---------------------------------------------------------------------------
# serve_topn


def prepare_serve(workdir: str, shape: dict, split_seed: int, solver_seed: int) -> None:
    """Fit the served model and store it with its train log.  Runs in a
    child process so that its memory is not charged to serving."""
    dr = _import_demandrec()
    work = Path(workdir)
    spec = dr.SynthSpec(m=shape["m"], n=shape["n"], l=shape["l"], r=shape["r"],
                        seed=HISTORY_SEED)
    inst = dr.generate(spec)
    split = dr.split_train_test(inst.log, 0.1, seed=split_seed)
    state, _ = dr.fit(split.train, inst.cats, dr.SolverConfig(seed=solver_seed))
    dr.save_model(state, work / "model.bin")
    train = split.train
    np.savez(work / "train.npz", users=train.users, items=train.items, slots=train.slots,
             dims=np.array([train.m, train.n, train.l]),
             assignment=inst.cats.assignment, r=np.array(inst.cats.r))


def _prepare_serve_child(run: Run) -> None:
    args = [str(run.workdir), run.shape, run.child_seed(1), run.child_seed(2)]
    code = "import json, sys, workloads; workloads.prepare_serve(*json.loads(sys.argv[1]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parent),
                                                      os.environ.get("PYTHONPATH", "")]))
    try:
        done = subprocess.run([sys.executable, "-c", code, json.dumps(args)], env=env,
                              cwd=run.root, capture_output=True, text=True,
                              timeout=max(run.remaining(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("serve preparation ran out of time") from None
    if done.returncode != 0:
        raise BenchError(f"serve preparation failed: {done.stderr[-2000:]}")


def _query_stream(run: Run):
    rng = np.random.default_rng(run.child_seed(3))
    while True:
        users = rng.integers(0, run.shape["m"], size=4096).tolist()
        slots = rng.integers(0, run.shape["l"], size=4096).tolist()
        yield from zip(users, slots)


def serve_topn(run: Run) -> None:
    dr = _import_demandrec()
    _prepare_serve_child(run)
    arrays = np.load(run.workdir / "train.npz")
    m, n, l = (int(v) for v in arrays["dims"])
    train = dr.PurchaseLog(users=arrays["users"], items=arrays["items"],
                           slots=arrays["slots"], m=m, n=n, l=l)
    cats = dr.CategoryMap(assignment=arrays["assignment"], r=int(arrays["r"]))
    run.row("model", f"m=n={m}, l={l}, r={cats.r}, {train.nnz} train records", "",
            f"generator seed {HISTORY_SEED}, 10% holdout")

    def setup():
        run.check_time("loading the model")
        start = time.perf_counter()
        model = dr.load_model(run.workdir / "model.bin")
        rec = dr.build_recency_index(train, cats)
        wall = time.perf_counter() - start
        run.op([], "load model and index")
        return model, rec, wall

    def serve(model, rec, seconds=None, count=None):
        """Closed loop, one caller: each query is issued when the previous
        one has returned.  Stops after ``count`` queries, or after
        ``seconds`` once the digested prefix is complete."""
        latencies = []
        digest = hashlib.sha256()
        stream = _query_stream(run)
        deadline = time.perf_counter_ns() + int(seconds * 1e9) if seconds else None
        while True:
            user, slot = next(stream)
            start = time.perf_counter_ns()
            ranking = dr.recommend_topn(model, rec, user, slot, TOP_N)
            end = time.perf_counter_ns()
            latencies.append(end - start)
            run.op(_check_topn(ranking, n), f"recommend_topn({user}, {slot})")
            if len(latencies) <= DIGEST_QUERIES:
                digest.update(repr((user, slot, ranking)).encode())
            if count is not None and len(latencies) >= count:
                break
            if deadline is not None and end >= deadline and len(latencies) >= DIGEST_QUERIES:
                break
        return latencies, digest.hexdigest()

    if run.trace:
        start = time.perf_counter()
        model, rec, _ = setup()
        latencies, _ = serve(model, rec, seconds=run.seconds)
        run.timings["untraced_s"] = time.perf_counter() - start
        run.tracer.install(TARGETS)
        try:
            start = time.perf_counter()
            model, rec, setup_s = setup()
            latencies, digest = serve(model, rec, count=len(latencies))
            run.timings["traced_s"] = time.perf_counter() - start
        finally:
            run.tracer.restore()
        run.row("setup_s", setup_s, "s", "traced")
    else:
        setups = []
        for _ in range(N_SETUPS):
            model = rec = None
            model, rec, wall = setup()
            setups.append(wall)
        latencies, digest = serve(model, rec, seconds=run.seconds)
        run.gated = {
            "setup_s": statistics.median(setups),
            "work_s": stats.percentile(sorted(latencies), SERVE_PCT) / 1e9,
            "peak_rss_mb": _self_peak_rss_mb(),
        }
        run.row("setup_s", run.gated["setup_s"], "s",
                f"load_model + build_recency_index, median of {_fmt_list(setups)}")
        run.row("work_s", run.gated["work_s"], "s", f"= topn_p{SERVE_PCT:g}_ms / 1000")
        run.row("peak_rss_mb", run.gated["peak_rss_mb"], "MB",
                "this process; the model is fitted in a child")
    summary = stats.latency_summary(latencies)
    run.row(f"topn_p{SERVE_PCT:g}_ms", stats.percentile(sorted(latencies), SERVE_PCT) / 1e6,
            "ms", f"{summary['count']} queries")
    run.row("topn_p50_ms", summary["p50"] / 1e6, "ms", f"{summary['count']} queries")
    run.row("topn_p90_ms", stats.percentile(sorted(latencies), 90.0) / 1e6, "ms",
            f"{summary['count']} queries")
    run.row("topn_p99_ms", stats.percentile(sorted(latencies), 99.0) / 1e6, "ms",
            f"{summary['count']} queries")
    if summary["tail"] is not None:
        run.row(f"topn_p{summary['tail_pct']:g}_ms", summary["tail"] / 1e6, "ms",
                "highest percentile with >= 10 samples beyond it")
    run.row("topn_qps", len(latencies) / (sum(latencies) / 1e9), "1/s",
            "queries per second of caller busy time, one caller")
    run.digests[f"first {DIGEST_QUERIES} top-{TOP_N} lists"] = digest


# ---------------------------------------------------------------------------


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt_list(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


WORKLOADS = {
    "cli_chain": cli_chain,
    "solver_4m": solver_4m,
    "serve_topn": serve_topn,
}


def make_workdir(root: Path, workload: str, seed: int) -> Path:
    workdir = root / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
