"""Benchmark of the demandrec pipeline.

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 10 --trace 0

Runs one workload (``cli_chain``, ``solver_4m`` or ``serve_topn``) on
inputs made from ``--seed``, prints a table of every figure with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).  The program under test is the
``src/demandrec`` tree next to this directory; without it the run exits
with code 2 and prints no result.  The full record of a run, with its
provenance, digests and (traced) spans, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_chain", "solver_4m", "serve_topn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure repeated units of work for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input shapes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "demandrec").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _print_table(run) -> None:
    for name, value, unit, note in run.rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<22} {shown:>14} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "demandrec" / "__init__.py").is_file():
        print(f"perfbench: no demandrec sources at {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    # cap BLAS threads before numpy loads; children inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import stats
    import workloads
    from tracing import Tracer, per_layer_spec

    workdir = workloads.make_workdir(ROOT, args.workload, args.seed)
    run = workloads.Run(
        root=ROOT, workdir=workdir, workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
        shape=workloads.SHAPES[args.workload]["tiny" if args.tiny else "full"],
        deadline=started + RUN_BUDGET_S,
        tracer=Tracer() if args.trace else None,
    )
    info = provenance(args, nproc)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(info))
    try:
        workloads.WORKLOADS[args.workload](run)
    except workloads.BenchError as exc:
        _print_table(run)
        for failure in run.failures:
            print(f"  FAILED {failure}")
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = run.failed
    ratio = stats.fail_ratio(failed, run.attempted)
    run.row("fail_ratio", ratio, "", f"{failed}/{run.attempted} operations failed")
    if run.trace:
        layer = run.tracer.metrics(run.timings["untraced_s"], run.timings["traced_s"])
        spec = per_layer_spec()
        metrics = {name: {"value": layer[name], "unit": spec[name][0]} for name in spec}
        run.row("trace.overhead_s", layer["trace.overhead_s"], "s",
                f"traced {layer['trace.traced_s']:.3f} s - untraced "
                f"{layer['trace.untraced_s']:.3f} s")
        run.row("trace.absent", len(run.tracer.absent), "count",
                ", ".join(run.tracer.absent) or "every traced function was found")
    else:
        metrics = {name: {"value": run.gated[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    _print_table(run)
    for failure in run.failures:
        print(f"  FAILED {failure}")
    for key, value in run.digests.items():
        print(f"  digest {key}: {value}")
    if run.trace:
        for name, value in sorted(layer.items()):
            if value:
                print(f"  layer {name} = {value:.6g}")

    outdir = ROOT / ".perfbench" / "results"
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": info,
        "rows": [list(row) for row in run.rows],
        "failures": run.failures,
        "digests": run.digests,
        "metrics": metrics,
    }
    if run.trace:
        record["absent"] = run.tracer.absent
        with open(outdir / f"{stem}-spans.json", "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": run.tracer.finished_spans()}, handle)
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
