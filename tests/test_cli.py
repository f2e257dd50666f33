"""End-to-end command-line tests, all run in process via main(argv)."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from demandrec.cli import _load_artifacts, build_parser, main, parse_config_file, CONFIG_SCHEMA
from demandrec.data import ingest_purchases
from demandrec.driver import load_model, save_model
from demandrec.evaluate import (
    category_prediction_metric,
    item_prediction_metric,
    time_prediction_metric,
)
from demandrec.synthetic import SynthSpec, generate
from demandrec.utility import FactoredUtilityMatrix, SolverConfig
from helpers import triplet_list

SMALL = [
    "--set", "m=25", "--set", "n=20", "--set", "l=40", "--set", "r=2",
    "--set", "rank=3", "--set", "obs_prob=0.8",
    "--set", "max_rank=4", "--set", "inner_iters=5", "--set", "outer_iters=3",
    "--set", "sample_size=10",
]


def run(outdir, command, *extra):
    return main([command, "--output-dir", str(outdir), *SMALL, *extra])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One synth + train round shared by the read-only command tests."""
    outdir = tmp_path_factory.mktemp("pipeline")
    assert run(outdir, "synth") == 0
    assert run(outdir, "train") == 0
    return outdir


class TestSynth:
    def test_writes_all_artifacts(self, tmp_path):
        assert run(tmp_path, "synth") == 0
        for name in ("purchases.csv", "categories.csv", "truth.txt", "resolved_synth.cfg"):
            assert (tmp_path / name).exists()

    def test_purchases_match_generator(self, tmp_path):
        assert run(tmp_path, "synth", "--seed", "3") == 0
        rows = [
            tuple(int(v) for v in line.split(","))
            for line in (tmp_path / "purchases.csv").read_text().splitlines()
        ]
        spec = SynthSpec(m=25, n=20, l=40, r=2, rank=3, obs_prob=0.8, seed=3)
        assert sorted(rows) == triplet_list(generate(spec).log)
        ingest_purchases(tmp_path / "purchases.csv")

    def test_csv_files_match_row_by_row_rendering(self, tmp_path):
        assert run(tmp_path, "synth", "--seed", "4") == 0
        inst = generate(SynthSpec(m=25, n=20, l=40, r=2, rank=3, obs_prob=0.8, seed=4))
        log = inst.log
        rows = zip(log.users.tolist(), log.items.tolist(), log.slots.tolist())
        assert (tmp_path / "purchases.csv").read_text() == "".join(
            f"{u},{i},{k}\n" for u, i, k in rows)
        assert (tmp_path / "categories.csv").read_text() == "".join(
            f"{item},{cat}\n" for item, cat in enumerate(inst.cats.assignment.tolist()))

    def test_writer_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        from demandrec import cli

        monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 3)
        columns = (np.arange(7), np.arange(7) * -3, np.full(7, 10**12))
        cli._write_int_csv(tmp_path / "x.csv", *columns)
        assert (tmp_path / "x.csv").read_text() == "".join(
            f"{a},{b},{c}\n" for a, b, c in zip(*(column.tolist() for column in columns)))

    def test_truth_file_lists_durations(self, tmp_path):
        assert run(tmp_path, "synth") == 0
        truth = (tmp_path / "truth.txt").read_text()
        assert "d_true = 10 20" in truth
        assert "nnz = " in truth

    def test_seed_controls_output(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(a, "synth", "--seed", "5") == 0
        assert run(b, "synth", "--seed", "5") == 0
        assert run(c, "synth", "--seed", "6") == 0
        same = (a / "purchases.csv").read_bytes()
        assert same == (b / "purchases.csv").read_bytes()
        assert same != (c / "purchases.csv").read_bytes()


class TestConfigResolution:
    def test_precedence_defaults_file_set_flag(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\n\nseed = 5\nm = 30\nn = 20\nl = 40\nr = 2\n")
        code = main([
            "synth", "--output-dir", str(tmp_path / "out"),
            "--config", str(cfgfile),
            "--set", "m=25", "--set", "rank=3", "--set", "obs_prob=0.9",
            "--seed", "9",
        ])
        assert code == 0
        resolved = parse_config_file(tmp_path / "out" / "resolved_synth.cfg")
        assert resolved["seed"] == 9
        assert resolved["m"] == 25
        assert resolved["n"] == 20

    def test_unknown_key_in_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("bogus = 3\n")
        assert main(["synth", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "bad.cfg:1" in err and "bogus" in err

    def test_bad_value_via_set(self, tmp_path, capsys):
        assert run(tmp_path, "synth", "--set", "m=abc") == 2
        assert "error:config:" in capsys.readouterr().err

    def test_set_requires_equals(self, tmp_path, capsys):
        assert run(tmp_path, "synth", "--set", "m") == 2
        assert "error:config:" in capsys.readouterr().err

    def test_resolved_file_round_trips(self, tmp_path):
        assert run(tmp_path, "synth") == 0
        resolved = parse_config_file(tmp_path / "resolved_synth.cfg")
        assert resolved["m"] == 25
        assert resolved["dump_records"] is False
        assert resolved["tol"] == pytest.approx(1e-4)
        assert resolved["output_dir"] == str(tmp_path)

    def test_help_lists_every_key(self):
        text = build_parser().format_help()
        for key, _, _ in CONFIG_SCHEMA:
            assert key in text

    def test_solver_keys_match_solver_config(self):
        defaults = {key: default for key, default, _ in CONFIG_SCHEMA}
        for field in dataclasses.fields(SolverConfig):
            assert field.name in defaults
            value = getattr(SolverConfig(), field.name)
            assert defaults[field.name] == value
            assert type(defaults[field.name]) is type(value)

    def test_synth_keys_match_synth_spec(self):
        defaults = {key: default for key, default, _ in CONFIG_SCHEMA}
        for field in dataclasses.fields(SynthSpec):
            value = getattr(SynthSpec(), field.name)
            assert defaults[field.name] == value
            assert type(defaults[field.name]) is type(value)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "synth" in capsys.readouterr().out


class TestTrain:
    def test_writes_all_artifacts(self, pipeline_dir):
        for name in ("model.bin", "split.bin", "fit_report.txt", "resolved_train.cfg"):
            assert (pipeline_dir / name).exists()
        for name in ("train_log.txt", "test_triplets.txt", "categories.txt"):
            assert not (pipeline_dir / name).exists()
        report = (pipeline_dir / "fit_report.txt").read_text()
        assert "iterations = " in report
        assert "final_objective = " in report

    def test_outer_iters_bounds_iterations(self, tmp_path):
        assert run(tmp_path, "synth") == 0
        assert run(tmp_path, "train", "--set", "outer_iters=1") == 0
        assert "iterations = 1" in (tmp_path / "fit_report.txt").read_text()

    def test_zero_split_skips_test_file(self, tmp_path, capsys):
        """With no holdout, train still writes the bundle, with an empty test
        set, and evaluate reports it as one data error."""
        assert run(tmp_path, "synth") == 0
        assert run(tmp_path, "train", "--set", "split_fraction=0.0") == 0
        capsys.readouterr()
        assert run(tmp_path, "evaluate") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:data:") and "no test records" in err[0]
        assert run(tmp_path, "recommend", "--user", "0", "--slot", "5") == 0

    def test_warm_start_does_not_regress(self, pipeline_dir, tmp_path):
        def final_objective(path):
            for line in (path / "fit_report.txt").read_text().splitlines():
                if line.startswith("final_objective = "):
                    return float(line.split("=")[1])
            raise AssertionError("final_objective missing")

        cold = final_objective(pipeline_dir)
        code = run(
            tmp_path, "train",
            "--set", f"purchases={pipeline_dir / 'purchases.csv'}",
            "--set", f"categories={pipeline_dir / 'categories.csv'}",
            "--set", f"init_model={pipeline_dir / 'model.bin'}",
        )
        assert code == 0
        warm = final_objective(tmp_path)
        assert warm <= cold * (1 + 1e-9)

    def test_warning_is_one_line(self, tmp_path, capsys):
        assert run(tmp_path, "synth") == 0
        with open(tmp_path / "categories.csv", "a", encoding="utf-8") as handle:
            handle.write("ghost,0\nshadow,1\n")
        capsys.readouterr()
        assert run(tmp_path, "train") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: ") and "rows for items not in the log" in err[0]

    def test_key_space_beyond_int64_is_one_data_error(self, tmp_path, capsys):
        """2000 users over 5 days at granularity 1e-15 span 5e15 slots, so
        m * n * (l + 1) exceeds the int64 sort keys."""
        rows = [f"u{user},a,0" for user in range(2000)] + ["u0,a,5"]
        (tmp_path / "purchases.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "categories.csv").write_text("a,c\n")
        assert run(tmp_path, "train", "--set", "granularity=1e-15") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:data:") and "int64" in err[0]

    @pytest.mark.parametrize("name, line", [
        ("purchases.csv", "7,8,later\n"),
        ("categories.csv", "7\n"),
    ])
    def test_bad_row_deep_in_large_file_is_one_data_error(self, tmp_path, capsys, name, line):
        rng = np.random.default_rng(31)
        rows = {
            "purchases.csv": [f"{u},{i},{k}\n" for u, i, k in
                              rng.integers(0, 500, size=(80_000, 3)).tolist()],
            "categories.csv": [f"{i % 500},{i % 500 % 4}\n" for i in range(60_000)],
        }
        rows[name][49_999] = line
        for file, lines in rows.items():
            (tmp_path / file).write_text("".join(lines))
        assert run(tmp_path, "train") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:data:") and f"{name}:50000: " in err[0]

    def test_malformed_purchases(self, tmp_path, capsys):
        (tmp_path / "purchases.csv").write_text("alice,soap\n")
        (tmp_path / "categories.csv").write_text("soap,bath\n")
        assert run(tmp_path, "train") == 2
        assert "error:data:" in capsys.readouterr().err


class TestEvaluate:
    def test_metrics_file_and_determinism(self, pipeline_dir):
        assert run(pipeline_dir, "evaluate") == 0
        first = (pipeline_dir / "metrics.txt").read_bytes()
        assert run(pipeline_dir, "evaluate") == 0
        assert (pipeline_dir / "metrics.txt").read_bytes() == first
        text = first.decode()
        for name in ("n_records", "category_pct", "time_pct", "item_pct"):
            assert name in text

    def test_dump_records(self, pipeline_dir):
        assert run(pipeline_dir, "evaluate", "--set", "dump_records=true") == 0
        lines = (pipeline_dir / "records.csv").read_text().splitlines()
        assert lines[0] == "user,item,slot,category_rank,time_error,item_rank"
        n_records = int(
            (pipeline_dir / "metrics.txt").read_text().splitlines()[0].split("=")[1]
        )
        assert len(lines) == 1 + n_records

    @pytest.mark.filterwarnings("ignore:tau = ")
    def test_records_csv_matches_the_csv_module(self, pipeline_dir, tmp_path):
        for name in ("model.bin", "split.bin"):
            (tmp_path / name).write_bytes((pipeline_dir / name).read_bytes())
        assert run(tmp_path, "evaluate", "--set", "dump_records=true") == 0
        model, test, rec = _load_artifacts(tmp_path)
        tu, ti, tk = test.users, test.items, test.slots
        columns = (
            tu, ti, tk,
            category_prediction_metric(model, rec, tu, ti, tk)[1],
            time_prediction_metric(model, rec, tu, ti, tk)[1],
            item_prediction_metric(model, rec, tu, ti, tk, 10, seed=0)[1],
        )
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["user", "item", "slot", "category_rank", "time_error", "item_rank"])
        writer.writerows(zip(*(map(int, column) for column in columns)))
        assert (tmp_path / "records.csv").read_bytes() == want.getvalue().encode()

    def test_tau_above_every_utility_is_one_warning(self, pipeline_dir, tmp_path, capsys):
        for name in ("model.bin", "split.bin"):
            (tmp_path / name).write_bytes((pipeline_dir / name).read_bytes())
        capsys.readouterr()
        assert run(tmp_path, "evaluate", "--set", "tau=1000") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: tau = 1000.0 ") and "time_pct is 100" in err[0]
        assert "time_pct = 100.0" in (tmp_path / "metrics.txt").read_text()

    def test_missing_artifacts(self, tmp_path, capsys):
        assert run(tmp_path, "evaluate") == 2
        assert "error:io:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, kind", [("model.bin", "model"), ("split.bin", "data")])
    def test_flipped_byte_gives_one_error_line(self, pipeline_dir, tmp_path, name, kind,
                                               capsys):
        for other in ("model.bin", "split.bin"):
            (tmp_path / other).write_bytes((pipeline_dir / other).read_bytes())
        clean = (pipeline_dir / name).read_bytes()
        # every byte of the headers, then a stride through the arrays
        positions = sorted(set(range(64)) | set(range(0, len(clean), 37))
                           | set(range(len(clean) - 40, len(clean))))
        capsys.readouterr()
        for pos in positions:
            raw = bytearray(clean)
            raw[pos] ^= 0x01
            (tmp_path / name).write_bytes(bytes(raw))
            assert run(tmp_path, "evaluate") == 2, pos
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error:{kind}:"), (pos, err)

    def test_model_horizon_mismatch_is_one_config_error(self, pipeline_dir, tmp_path, capsys):
        (tmp_path / "split.bin").write_bytes((pipeline_dir / "split.bin").read_bytes())
        model = load_model(pipeline_dir / "model.bin")
        save_model(dataclasses.replace(model, l=model.l - 10), tmp_path / "model.bin")
        capsys.readouterr()
        assert run(tmp_path, "evaluate") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:"), err


class TestRecommend:
    def test_output_format(self, pipeline_dir, capsys):
        code = run(pipeline_dir, "recommend", "--user", "0", "--slot", "5", "--topn", "4")
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rank,item,score"
        assert len(out) == 5
        ranks = [int(line.split(",")[0]) for line in out[1:]]
        assert ranks == [1, 2, 3, 4]
        scores = [float(line.split(",")[2]) for line in out[1:]]
        assert scores == sorted(scores, reverse=True)
        assert (pipeline_dir / "recommendations.csv").read_text().splitlines() == out

    def test_deterministic(self, pipeline_dir, capsys):
        run(pipeline_dir, "recommend", "--user", "2", "--slot", "9")
        first = capsys.readouterr().out
        run(pipeline_dir, "recommend", "--user", "2", "--slot", "9")
        assert capsys.readouterr().out == first

    def test_user_out_of_range(self, pipeline_dir, capsys):
        assert run(pipeline_dir, "recommend", "--user", "999", "--slot", "0") == 2
        assert "error:config:" in capsys.readouterr().err

    def test_bad_topn(self, pipeline_dir, capsys):
        code = run(pipeline_dir, "recommend", "--user", "0", "--slot", "0", "--topn", "0")
        assert code == 2
        assert "error:config:" in capsys.readouterr().err

    def test_model_dims_mismatch_is_one_config_error(self, pipeline_dir, tmp_path, capsys):
        (tmp_path / "split.bin").write_bytes((pipeline_dir / "split.bin").read_bytes())
        model = load_model(pipeline_dir / "model.bin")
        X = FactoredUtilityMatrix(model.X.U, model.X.sigma, model.X.V[:-5])
        save_model(dataclasses.replace(model, X=X), tmp_path / "model.bin")
        capsys.readouterr()
        assert run(tmp_path, "recommend", "--user", "0", "--slot", "5", "--topn", "4") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:"), err
        assert f"model dims ({model.m}x{model.n - 5}, r={model.r}, l={model.l})" in err[0]


class TestRankDemo:
    def test_spectra_and_summary(self, tmp_path, capsys):
        assert run(tmp_path, "rank-demo") == 0
        out = capsys.readouterr().out
        assert "utility matrix: 10 significant singular values out of 50" in out
        assert "intention matrix: 50 significant singular values out of 50" in out
        lines = (tmp_path / "spectra.csv").read_text().splitlines()
        assert lines[0] == "index,sigma_utility,sigma_intention"
        assert len(lines) == 51
        sigma_x = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(np.diff(sigma_x) <= 1e-9)
