"""Command-line front end.

Subcommands cover the whole pipeline: ``synth`` writes a synthetic purchase
history, ``train`` fits a model and exports the split artifacts, ``evaluate``
scores the held-out records, ``recommend`` prints a top-N list for one user,
and ``rank-demo`` dumps the low-rank-versus-full-rank spectra.

Configuration is a flat ``key = value`` namespace resolved in order:
built-in defaults, then ``--config`` file, then ``--set key=value`` overrides,
then the direct ``--seed/--output-dir`` flags.  Every command checks every
key before it reads or writes a file, by the rule on the key's
``CONFIG_SCHEMA`` row or by ``SolverConfig`` and ``SynthSpec`` for their own
fields, and writes the resolved configuration beside its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import synthetic
from .data import (
    TIMESTAMP_FORMATS,
    build_recency_index,
    export_log,
    ingest_categories,
    ingest_purchases,
    load_log,
    split_train_test,
)
from .driver import fit, load_model, save_model
from .errors import (
    ConfigError,
    DataFormatError,
    DemandRecError,
    ModelFileError,
    SolverError,
)
from .evaluate import (
    MetricReport,
    category_prediction_metric,
    item_prediction_metric,
    recommend_topn,
    time_prediction_metric,
)
from .utility import SolverConfig

# help text of each SolverConfig field; the field itself gives key and default
_SOLVER_HELP = {
    "eta": "weight on observed purchases versus unlabeled cells",
    "lam": "nuclear-norm regularization strength",
    "max_rank": "rank cap for the factored utility matrix",
    "inner_iters": "proximal gradient steps per utility update",
    "outer_iters": "alternating rounds over durations and utilities",
    "tol": "relative objective change that counts as converged",
    "seed": "top-level seed; every stage derives its stream from it",
}

# help text of each SynthSpec field but seed, which SolverConfig supplies
_SYNTH_HELP = {
    "m": "synthetic user count",
    "n": "synthetic item count",
    "l": "synthetic time slot count",
    "r": "synthetic category count",
    "rank": "latent rank of the synthetic utility matrix",
    "obs_prob": "probability an eligible purchase is observed",
    "noise_ratio": "noisy positives to add, as a fraction of nnz",
}

# key, default, help, rule; types are inferred from the defaults.  A rule is
# None or (what, test), and a value that fails test is "<key> must be <what>".
CONFIG_SCHEMA = [
    ("purchases", "", "purchase CSV for train (default: <output_dir>/purchases.csv)", None),
    ("categories", "", "item-category CSV for train (default: <output_dir>/categories.csv)",
     None),
    ("granularity", 1.0, "slot width in days when bucketing timestamps",
     ("finite and positive", lambda value: 0.0 < value < math.inf)),
    ("timestamp_format", "days", "purchase timestamp format: 'days' or 'iso'",
     (f"one of {TIMESTAMP_FORMATS}", lambda value: value in TIMESTAMP_FORMATS)),
    ("split_fraction", 0.1, "per-user fraction of records held out for testing",
     ("in [0, 1)", lambda value: 0.0 <= value < 1.0)),
    ("init_model", "", "optional saved model to warm-start train from", None),
    *((f.name, f.default, _SOLVER_HELP[f.name], None) for f in dataclasses.fields(SolverConfig)),
    *((f.name, f.default, _SYNTH_HELP[f.name], None)
      for f in dataclasses.fields(synthetic.SynthSpec) if f.name != "seed"),
    ("tau", 0.5, "demand decision threshold of the time metric", ("finite", math.isfinite)),
    ("sample_size", 100, "candidate pool for the item ranking metric (capped at n)",
     (">= 1", lambda value: value >= 1)),
    ("dump_records", False, "also write per-record metric values as CSV", None),
    ("output_dir", "out", "directory all artifacts are written to", None),
]
DEFAULTS = {key: default for key, default, _, _ in CONFIG_SCHEMA}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, text: str):
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            word = text.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOL_WORDS[word]
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' lines are comments."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, value.strip())
    return values


def _from_config(klass, cfg: dict):
    """An instance of the config dataclass ``klass`` whose fields, each
    also a config key, take their values from ``cfg``."""
    return klass(**{f.name: cfg[f.name] for f in dataclasses.fields(klass)})


def resolve(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value.strip())
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "output_dir", None) is not None:
        cfg["output_dir"] = args.output_dir
    # every key is checked before any command reads or writes a file: by its
    # schema row's rule, or by the config class that owns it
    for key, _, _, rule in CONFIG_SCHEMA:
        if rule is not None and not rule[1](cfg[key]):
            raise ConfigError(f"{key} must be {rule[0]}, got {cfg[key]!r}")
    _from_config(SolverConfig, cfg)
    _from_config(synthetic.SynthSpec, cfg)
    return cfg


def _config_help() -> str:
    lines = ["config keys (set via --config file or --set key=value):"]
    for key, default, text, _ in CONFIG_SCHEMA:
        lines.append(f"  {key} = {default!r:<12} {text}")
    return "\n".join(lines)


def _outdir(cfg: dict) -> Path:
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_resolved(cfg: dict, outdir: Path, command: str) -> None:
    lines = [f"{key} = {cfg[key]}" for key, _, _, _ in CONFIG_SCHEMA]
    (outdir / f"resolved_{command}.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


# rows per formatting block of _write_int_csv
_WRITE_BLOCK_ROWS = 1 << 16


def _write_int_csv(path, *columns, header: str = "", end: str = "\n") -> None:
    """Write equal-length integer columns as CSV rows, after a ``header``
    line if one is given, each line ending in ``end``; each block of rows is
    formatted by one ``%``, so no Python code runs per row."""
    row = ",".join(["%d"] * len(columns)) + end
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if header:
            handle.write(header + end)
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = np.column_stack([column[start:stop] for column in columns])
            handle.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def cmd_synth(cfg: dict) -> int:
    spec = _from_config(synthetic.SynthSpec, cfg)
    inst = synthetic.generate(spec)
    outdir = _outdir(cfg)
    log = inst.log
    _write_int_csv(outdir / "purchases.csv", log.users, log.items, log.slots)
    assignment = inst.cats.assignment
    _write_int_csv(outdir / "categories.csv", np.arange(assignment.shape[0]), assignment)
    truth = [f"{f.name} = {getattr(spec, f.name)}" for f in dataclasses.fields(spec)]
    truth.append("d_true = " + " ".join(f"{v:g}" for v in inst.d_true))
    truth.append(f"nnz = {log.nnz}")
    (outdir / "truth.txt").write_text("\n".join(truth) + "\n", encoding="utf-8")
    write_resolved(cfg, outdir, "synth")
    print(f"wrote {log.nnz} purchases ({spec.m} users, {spec.n} items, "
          f"{spec.l} slots) to {outdir}")
    return 0


def cmd_train(cfg: dict) -> int:
    solver_cfg = _from_config(SolverConfig, cfg)
    outdir = _outdir(cfg)
    purchases = Path(cfg["purchases"]) if cfg["purchases"] else outdir / "purchases.csv"
    categories = Path(cfg["categories"]) if cfg["categories"] else outdir / "categories.csv"
    log = ingest_purchases(purchases, granularity=cfg["granularity"],
                           timestamp_format=cfg["timestamp_format"])
    cats = ingest_categories(categories, log)
    split = split_train_test(log, cfg["split_fraction"], seed=cfg["seed"])
    # the split's logs are copies: the fit does not hold the unsplit one
    del log
    init = load_model(cfg["init_model"]) if cfg["init_model"] else None
    state, report = fit(split.train, cats, solver_cfg, init=init)
    # written only once the fit succeeded, so a failed run leaves the last
    # run's split.bin and model.bin a matching pair
    export_log(split.train, split.test, cats, outdir / "split.bin")
    save_model(state, outdir / "model.bin")
    (outdir / "fit_report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    write_resolved(cfg, outdir, "train")
    print(report.to_text())
    print(f"model saved to {outdir / 'model.bin'}")
    return 0


def _load_artifacts(outdir: Path, user: int | None = None):
    """``(model, test, rec)`` from the ``model.bin`` and ``split.bin`` that
    ``train`` wrote, with ``rec`` the recency index of the training log.
    Given a ``user``, ``rec`` indexes that user's training rows only, which
    answer every query about the user alike.  A model whose dimensions
    differ from the split's, or a user outside ``[0, m)``, is one
    ConfigError."""
    model = load_model(outdir / "model.bin")
    train, test, cats = load_log(outdir / "split.bin")
    if (model.m, model.n, model.r, model.l) != (train.m, train.n, cats.r, train.l):
        raise ConfigError(
            f"model dims ({model.m}x{model.n}, r={model.r}, l={model.l}) do not match "
            f"the artifacts ({train.m}x{train.n}, r={cats.r}, l={train.l})"
        )
    if user is not None:
        if not 0 <= user < model.m:
            raise ConfigError(f"user must be in [0, {model.m}), got {user}")
        train = train.user_log(user)
    return model, test, build_recency_index(train, cats)


def cmd_evaluate(cfg: dict) -> int:
    outdir = _outdir(cfg)
    model, test, rec = _load_artifacts(outdir)
    if test.nnz == 0:
        raise DataFormatError(f"{outdir / 'split.bin'}: the split holds no test records")
    tu, ti, tk = test.users, test.items, test.slots
    cat_pct, cat_ranks = category_prediction_metric(model, rec, tu, ti, tk)
    time_pct, time_errors = time_prediction_metric(model, rec, tu, ti, tk, tau=cfg["tau"])
    item_pct, item_ranks = item_prediction_metric(
        model, rec, tu, ti, tk,
        sample_size=min(cfg["sample_size"], model.n), seed=cfg["seed"],
    )
    report = MetricReport(
        n_records=tu.shape[0],
        category_pct=cat_pct,
        time_pct=time_pct,
        item_pct=item_pct,
        category_ranks=cat_ranks,
        time_errors=time_errors,
        item_ranks=item_ranks,
    )
    (outdir / "metrics.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    if cfg["dump_records"]:
        # records.csv has CRLF line ends, the csv module's default dialect
        _write_int_csv(
            outdir / "records.csv", tu, ti, tk,
            *(column.astype(np.int64) for column in (cat_ranks, time_errors, item_ranks)),
            header="user,item,slot,category_rank,time_error,item_rank", end="\r\n",
        )
    write_resolved(cfg, outdir, "evaluate")
    print(report.to_text())
    return 0


def cmd_recommend(cfg: dict, user: int, slot: int, topn: int) -> int:
    """Write the top-N list of one user at one slot; the recency index
    holds only that user's training rows."""
    outdir = _outdir(cfg)
    model, _, rec = _load_artifacts(outdir, user)
    ranking = recommend_topn(model, rec, user, slot, topn)
    lines = ["rank,item,score"]
    lines.extend(f"{pos},{item},{value:.6f}" for pos, (item, value) in enumerate(ranking, 1))
    (outdir / "recommendations.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_resolved(cfg, outdir, "recommend")
    print("\n".join(lines))
    return 0


def cmd_rank_demo(cfg: dict) -> int:
    sigma_x, sigma_b = synthetic.rank_demo(cfg["seed"])
    outdir = _outdir(cfg)
    lines = ["index,sigma_utility,sigma_intention"]
    lines.extend(
        f"{idx},{sx:.10g},{sb:.10g}"
        for idx, (sx, sb) in enumerate(zip(sigma_x, sigma_b), 1)
    )
    (outdir / "spectra.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_resolved(cfg, outdir, "rank-demo")
    cut_x = int((sigma_x > 1e-8 * sigma_x[0]).sum())
    cut_b = int((sigma_b > 1e-8 * sigma_b[0]).sum())
    print(f"utility matrix: {cut_x} significant singular values out of {sigma_x.shape[0]}")
    print(f"intention matrix: {cut_b} significant singular values out of {sigma_b.shape[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandrec",
        description="Demand-aware recommendation from timestamped purchase logs.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat 'key = value' config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--seed", type=int, help="override the top-level seed")
    common.add_argument("--output-dir", help="artifact directory")
    sub = parser.add_subparsers(dest="command", metavar="command")
    kwargs = dict(parents=[common], epilog=_config_help(),
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub.add_parser("synth", help="generate a synthetic purchase history", **kwargs)
    sub.add_parser("train", help="fit a model and export split artifacts", **kwargs)
    sub.add_parser("evaluate", help="score the held-out records", **kwargs)
    rec = sub.add_parser("recommend", help="top-N items for one user and slot", **kwargs)
    rec.add_argument("--user", type=int, required=True, help="user id")
    rec.add_argument("--slot", type=int, required=True, help="time slot")
    rec.add_argument("--topn", type=int, default=10, help="list length (default 10)")
    sub.add_parser("rank-demo", help="emit utility versus intention spectra", **kwargs)
    return parser


_ERROR_CODES = [
    (ConfigError, "config"),
    (DataFormatError, "data"),
    (ModelFileError, "model"),
    (SolverError, "solver"),
    (DemandRecError, "internal"),
    (ValueError, "config"),
    (OSError, "io"),
]


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {' '.join(str(message).split())}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            cfg = resolve(args)
            if args.command == "synth":
                return cmd_synth(cfg)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "evaluate":
                return cmd_evaluate(cfg)
            if args.command == "recommend":
                return cmd_recommend(cfg, args.user, args.slot, args.topn)
            return cmd_rank_demo(cfg)
        except tuple(klass for klass, _ in _ERROR_CODES) as exc:
            code = next(code for klass, code in _ERROR_CODES if isinstance(exc, klass))
            print(f"error:{code}: {' '.join(str(exc).split())}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
