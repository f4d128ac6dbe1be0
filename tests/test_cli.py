"""CLI harness tests: config resolution, determinism of emitted artifacts,
exit-code mapping, and recomputability of every reported epsilon from the
accountant inputs logged alongside it."""
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from convexdp import accountant as acc
from convexdp import baseline_relu as br
from convexdp import cli
from convexdp import convex_dual as cd
from convexdp import data
from convexdp import losses
from convexdp import optimizers as opt
from convexdp.errors import ConfigError, DomainError

import oracles


BASE_CONFIG = {
    "method": "dual-noisycgd",
    "dataset": {"kind": "synthetic", "n": 120, "d": 5, "n_test": 40,
                "rule": "norm_threshold", "seed": 7},
    "epochs": 2,
    "C": 1.0,
    "sigma": 2.0,
    "b": 30,
    "eta": 0.02,
    "P": 8,
    "loss": "ce",
    "name": "t",
}


def method_config(method=BASE_CONFIG["method"], **extra):
    """BASE_CONFIG with only the fields ``method`` reads: the ReLU baseline
    gets hidden_m=8 in place of P."""
    cfg = dict(BASE_CONFIG, method=method, dataset=dict(BASE_CONFIG["dataset"]))
    if cli.METHODS.get(method, ("dual",))[0] == "relu":
        del cfg["P"]
        cfg["hidden_m"] = 8
    cfg.update(extra)
    return cfg


def write_config(tmp_path, **extra):
    cfg = method_config(**extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    """The output directory of every config the test builds from BASE_CONFIG:
    a fresh temporary one."""
    monkeypatch.setitem(BASE_CONFIG, "out_dir", str(tmp_path))
    return tmp_path


def run_cli(args, monkeypatch, tmp_path, capsys):
    """``cli.main(args)``; a run or sweep writes to ``tmp_path / "out"``."""
    if args[0] in ("run", "sweep"):
        args = [*args, "--set", f"out_dir={tmp_path / 'out'}"]
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_outputs_deterministic(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    contents = []
    for sub in ("a", "b"):
        # The report holds the config: both runs set out_dir ".", each in its
        # own directory.
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        assert cli.main(["run", "--config", cfg, "--set", "out_dir=."]) == 0
        capsys.readouterr()
        contents.append(
            (
                (tmp_path / sub / "t.csv").read_text(),
                (tmp_path / sub / "t.json").read_text(),
                (tmp_path / sub / "t.model.json").read_text(),
            )
        )
    assert contents[0] == contents[1]  # bit-identical artifacts


def outputs_at_blas_threads(tmp_path, cfg):
    """CSV and model bytes of the run ``cfg`` at 1 and at 2 BLAS threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    contents = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from convexdp.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "--config", cfg, "--set", f"out_dir={out}"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        contents.append([(out / name).read_bytes() for name in ("t.csv", "t.model.json")])
    return contents


BLAS_DATASET = {"kind": "synthetic", "n": 600, "d": 40, "n_test": 200,
                "rule": "linear_teacher", "num_classes": 10, "seed": 3}


def test_run_outputs_independent_of_blas_threads(tmp_path):
    # The dual kernel runs on BLAS; a run must stay bit-reproducible from its
    # config whatever the size of the BLAS thread pool. The shapes make the
    # kernel's GEMMs large enough for OpenBLAS to split them across threads.
    cfg = write_config(tmp_path, method="dual-dpsgd", P=64, b=100,
                       dataset=BLAS_DATASET)
    one, two = outputs_at_blas_threads(tmp_path, cfg)
    assert one == two


def test_relu_run_outputs_independent_of_blas_threads(tmp_path):
    # The same for the MLP kernel: at width 512 its b x d x m and
    # ROW_BLOCK x d x m GEMMs are past OpenBLAS's single-thread size.
    cfg = write_config(tmp_path, method="relu-dpsgd", hidden_m=512, b=100,
                       dataset=BLAS_DATASET)
    one, two = outputs_at_blas_threads(tmp_path, cfg)
    assert one == two


def replayed_epsilon(monkeypatch, tmp_path, capsys, **config):
    """The epsilons a run of ``config`` prints and `account` prints on the
    run's logged accountant_inputs (floats by repr, so each parses back to
    the same double)."""
    cfg = write_config(tmp_path, **config)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    inputs = dict(report["accountant_inputs"])
    query = ["account", inputs.pop("method")] + [
        f"--{key}={value!r}" for key, value in inputs.items()]
    code, out, err = run_cli(query, monkeypatch, tmp_path, capsys)
    assert code == 0, err
    return report["epsilon"], json.loads(out)["epsilon"]


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_run_epsilon_recomputable_from_logged_inputs(method, tmp_path, monkeypatch,
                                                     capsys):
    # The report's accountant_inputs, passed to `account`, print the report's
    # epsilon string.
    printed, replayed = replayed_epsilon(monkeypatch, tmp_path, capsys, method=method)
    assert replayed == printed


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_noise_free_run_epsilon_replays_through_account(method, tmp_path, monkeypatch,
                                                       capsys):
    # A run without noise prints "inf" with no curve built; `account` on its
    # logged inputs takes the same short-cut and exits 0.
    printed, replayed = replayed_epsilon(monkeypatch, tmp_path, capsys,
                                         method=method, sigma=0.0)
    assert replayed == printed == "inf"


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_final_train_loss_is_the_checkpoints(method, outdir):
    # The report's one training-loss figure is computed once, from the
    # released params; the CSV holds no statistic of the training rows, and
    # a NoisyCGD run evaluates test accuracy on its last iterate alone.
    report = cli.execute_run(cli.RunConfig(**method_config(method)))
    module = cd if cli.METHODS[method][0] == "dual" else br
    objective, params = module.load_checkpoint(report["outputs"]["model"],
                                               report["config"]["loss"])
    train, _ = cli.load_dataset_pair(report["config"]["dataset"])
    loss = (objective.data_loss(params, train.X, train.labels)
            + 0.5 * objective.lam * float(params @ params))
    assert loss == report["final_train_loss"]
    header, first, last = (outdir / "t.csv").read_text().splitlines()
    assert header == "epoch,test_acc,epsilon"
    assert (first.split(",")[1] == "") == (method == "dual-noisycgd")
    assert float(last.split(",")[1]) == report["final_test_accuracy"]


@pytest.mark.parametrize("method", ["relu-dpsgd", "dual-dpsgd", "dual-noisycgd"])
def test_per_epoch_epsilons_match_one_shot(method, outdir):
    cfg = cli.RunConfig(**method_config(method, epochs=4, account_every_epoch=True))
    report = cli.execute_run(cfg)
    inputs = report["accountant_inputs"]
    steps = report["n_train"] // cfg.b
    rows = [row.split(",") for row in (outdir / "t.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]
    for row in rows:
        epoch = int(row[0])
        cut = (dict(inputs, T=epoch * steps) if inputs["method"] == "dpsgd"
               else dict(inputs, E=epoch))
        assert [float(row[-1])] == cli.epsilon_from_inputs(cut)
    assert [float(report["epsilon"])] == cli.epsilon_from_inputs(inputs)


@pytest.mark.parametrize("inputs", [
    {"method": "dpsgd", "sigma": 2.0, "q": 0.1, "T": 7, "delta": 1e-5},
    {"method": "noisycgd", "L": 1.0, "b": 10, "sigma": 2.0, "eta": 0.5,
     "lambda": 1.0, "beta": 1.0, "k": 2, "E": 7, "delta": 1e-5},
], ids=["dpsgd", "noisycgd"])
def test_per_epoch_epsilons_need_equal_epochs(inputs):
    # Both queries cut their horizon, T steps or E epochs, the same way.
    with pytest.raises(ConfigError, match="equal epochs"):
        cli.epsilon_from_inputs(inputs, epochs=2)


def test_per_epoch_epsilons_free_each_pld_before_the_next(monkeypatch):
    # Each horizon's PLD is dropped once its epsilon is found and freed once
    # the next horizon is taken. The first epoch's PLD stays: every later
    # horizon is the previous one convolved with it.
    searched = []
    search = acc.find_epsilon

    def search_after_free(pld, delta):
        assert all(ref() is None for ref in searched[1:])
        searched.append(weakref.ref(pld))
        return search(pld, delta)

    monkeypatch.setattr(acc, "find_epsilon", search_after_free)
    inputs = {"method": "dpsgd", "sigma": 2.0, "q": 0.1, "T": 12, "delta": 1e-5}
    assert len(cli.epsilon_from_inputs(inputs, epochs=4)) == len(searched) == 4


def test_run_sigma_zero_reports_inf(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, sigma=0.0)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["epsilon"] == "inf"
    csv = (tmp_path / "out" / "t.csv").read_text()
    assert csv.splitlines()[-1].endswith(",inf")


def test_run_small_sigma_reports_past_eps_max(tmp_path, monkeypatch, capsys):
    # Noise too small for any epsilon up to EPS_MAX: "> EPS_MAX", not the
    # "inf" of a noise-free run.
    cfg = write_config(tmp_path, sigma=0.01)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["epsilon"] == f"> {acc.EPS_MAX:g}"


def test_run_small_sigma_csv_matches_report(tmp_path, monkeypatch, capsys):
    # The CSV's epsilon column uses the report's text: "> EPS_MAX" for a noisy
    # run the search cannot bound, "inf" only for a noise-free one.
    for sigma, text in ((0.01, f"> {acc.EPS_MAX:g}"), (0.0, "inf")):
        cfg = write_config(tmp_path, sigma=sigma, account_every_epoch=True)
        code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
        assert code == 0 and json.loads(out)["epsilon"] == text
        rows = (tmp_path / "out" / "t.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == [text, text]


def test_run_noisycgd_lambda_default_rule(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, eta=0.04)
    code, out, _ = run_cli(
        ["run", "--config", cfg, "--emit-config"], monkeypatch, tmp_path, capsys
    )
    assert code == 0
    resolved = json.loads(out)
    assert resolved["lam"] == pytest.approx(2e-4 / 0.04)


def test_noisycgd_warns_when_eta_beta_reaches_two(monkeypatch, outdir):
    # The check uses the beta the accountant receives: max ||x||^2 + lam puts
    # eta * beta far above 2 at eta = 0.5, and the run is refused before any
    # training step.
    cfg = dict(BASE_CONFIG, eta=0.5, dataset=dict(BASE_CONFIG["dataset"]))

    def no_training(*args, **kwargs):
        raise AssertionError("trained a run the accountant cannot back")

    monkeypatch.setattr(cli.optimizers, "noisycgd_run", no_training)
    with pytest.raises(DomainError, match="2/beta"):
        cli.execute_run(cli.RunConfig(**cfg))
    assert not any(outdir.iterdir())


def test_dpsgd_run_builds_no_pld_before_training(monkeypatch, outdir):
    # The early refusal goes through the same query path as the epsilon, but
    # a DP-SGD step PLD is only discretized after training, for the epsilon.
    discretized = []

    class Trained(Exception):
        pass

    def training(*args, **kwargs):
        raise Trained

    monkeypatch.setattr(acc, "connect_the_dots", lambda *args: discretized.append(args))
    monkeypatch.setattr(cli.optimizers, "dpsgd_run", training)
    with pytest.raises(Trained):
        cli.execute_run(cli.RunConfig(**method_config("dual-dpsgd")))
    assert discretized == []


def test_set_overrides_nested_and_typed(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(
        ["run", "--config", cfg, "--set", "dataset.seed=9",
         "--set", "sigma=3.5", "--set", "name=other", "--emit-config"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    resolved = json.loads(out)
    assert resolved["dataset"]["seed"] == 9
    assert resolved["sigma"] == 3.5
    assert resolved["name"] == "other"


def test_exit_code_config_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, method="bogus")
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "config error" in err


def test_exit_code_unknown_field(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, banana=1)
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "banana" in err


def test_exit_code_numeric_error_joins_noise_worker(tmp_path, monkeypatch, capsys,
                                                   two_allowed_cpus):
    # An absurd learning rate overflows the ridge term at the second step,
    # while the noise worker is drawing the next block (12 steps of 6144
    # parameters come in blocks of 5 rows). The run exits 3 and leaves no
    # thread behind.
    seen = []
    grad = cd.DualObjective.clipped_grad_mean

    def counting_grad(*args):
        seen.append(threading.active_count())
        return grad(*args)

    monkeypatch.setattr(cd.DualObjective, "clipped_grad_mean", counting_grad)
    cfg = write_config(tmp_path, method="dual-dpsgd", P=512, b=10, eta=1e200, lam=0.5)
    threads = threading.active_count()
    with np.errstate(all="ignore"):
        code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 3 and "numeric error" in err
    assert max(seen) == threads + 1
    assert threading.active_count() == threads


def test_exit_code_io_error(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--config", str(tmp_path / "missing.json")],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 4 and "I/O error" in err


def test_idx_header_past_the_file_size_exits_4(tmp_path, monkeypatch, capsys):
    # 0xFFFFFFFF x 255 x 255 pixels would be a 2.8e14-byte read.
    images, labels = tmp_path / "images", tmp_path / "labels"
    images.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 255, 255) + bytes(4))
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    spec = {"kind": "idx", "train_images": str(images), "train_labels": str(labels),
            "test_images": str(images), "test_labels": str(labels)}
    cfg = write_config(tmp_path, dataset=spec)
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 4 and "bytes claimed, 4 left" in err
    assert not (tmp_path / "out").exists()


def test_account_dpsgd_matches_library(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["account", "dpsgd", "--sigma", "2", "--q", "0.05", "--T", "50",
         "--delta", "1e-5"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    report = json.loads(out)
    want = acc.find_epsilon(acc.account_dpsgd(2.0, 0.05, 50), 1e-5)
    assert float(report["epsilon"]) == pytest.approx(want, abs=1e-12)


def test_account_noisycgd_matches_library(tmp_path, monkeypatch, capsys):
    args = ["account", "noisycgd", "--L", "1", "--b", "10", "--sigma", "2",
            "--eta", "0.5", "--lambda", "1", "--beta", "1", "--k", "2", "--E", "2"]
    code, out, _ = run_cli(args, monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mu_gdp"] == pytest.approx(0.05 * math.sqrt(1.2), abs=1e-12)
    assert set(report) == {"method", "L", "b", "sigma", "eta", "lambda", "beta",
                           "k", "E", "mu_gdp", "delta", "epsilon"}


def test_account_dpsgd_all_mass_infinite(tmp_path, monkeypatch, capsys):
    # Composition pushes every finite loss past the support cap; the result
    # is the all-infinity PLD, not a division by a zero finite mass.
    code, out, _ = run_cli(
        ["account", "dpsgd", "--sigma", "0.5", "--q", "1.0", "--T", "50"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["pld"]["truncation_mass"] == 1.0
    assert report["epsilon"] == f"> {acc.EPS_MAX:g}"


def test_account_noisycgd_past_eps_max(tmp_path, monkeypatch, capsys):
    # A noisy mechanism whose epsilon exceeds the search range prints
    # "> EPS_MAX"; "inf" stays reserved for sigma = 0.
    args = ["account", "noisycgd", "--L", "2", "--b", "1", "--sigma", "0.05",
            "--eta", "0.05", "--lambda", "1e-3", "--beta", "30", "--k", "60", "--E", "20"]
    code, out, _ = run_cli(args, monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert acc.find_epsilon(acc.gaussian_profile(report["mu_gdp"]), 1e-5) == math.inf
    assert report["epsilon"] == f"> {acc.EPS_MAX:g}"


def test_account_dpsgd_pld_block(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["account", "dpsgd", "--sigma", "5", "--q", "0.02", "--T", "10"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"method", "sigma", "q", "T", "delta", "epsilon", "pld"}
    pld = report["pld"]
    assert pld["grid_step"] == pytest.approx(acc.DEFAULT_GRID_STEP, rel=1e-9)
    assert pld["finite_mass"] + pld["truncation_mass"] == pytest.approx(1.0)
    assert pld["support_min"] < 0 < pld["support_max"]
    # composed privacy loss has positive KL (mean of the loss under P)
    assert pld["mean_loss"] > 0


def test_removed_inspect_pld_command_exits_2(capsys):
    # `account dpsgd` prints the PLD's metadata; the separate command is gone.
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect-pld", "--sigma", "2", "--q", "0.02", "--T", "10"])
    assert exc.value.code == 2 and "invalid choice: 'inspect-pld'" in capsys.readouterr().err


def test_removed_eps_option_exits_2(capsys):
    # `account dpsgd` prints the epsilon at --delta; its delta-at-eps list is gone.
    with pytest.raises(SystemExit) as exc:
        cli.main(["account", "dpsgd", *DPSGD_ARGS, "--eps", "1"])
    assert exc.value.code == 2 and "unrecognized arguments: --eps 1" in capsys.readouterr().err


def test_trace_csv_format():
    records = [dict(epoch=1, test_accuracy=0.75, epsilon_at_delta=1.25),
               dict(epoch=2, test_accuracy=None, epsilon_at_delta=math.inf),
               dict(epoch=3, test_accuracy=0.5)]
    lines = cli._trace_csv(records, repr).splitlines()
    assert lines == ["epoch,test_acc,epsilon", "1,0.75,1.25", "2,,inf", "3,0.5,"]


DPSGD_ARGS = ["--sigma", "2", "--q", "0.016666666666666666", "--T", "1200"]


def test_removed_grid_step_option_exits_2(capsys):
    # A run always discretizes at DEFAULT_GRID_STEP; another step's epsilon
    # would belong to no run. The PLD block prints the step.
    with pytest.raises(SystemExit) as exc:
        cli.main(["account", "dpsgd", *DPSGD_ARGS, "--grid-step", "1e-4"])
    assert (exc.value.code == 2
            and "unrecognized arguments: --grid-step 1e-4" in capsys.readouterr().err)


@pytest.mark.parametrize("args", [
    ["account", "dpsgd", *DPSGD_ARGS, "--delta", "nan"],
    ["account", "noisycgd", "--L", "2", "--b", "100", "--sigma", "0.02", "--eta", "0.05",
     "--lambda", "1e-3", "--beta", "nan", "--k", "60", "--E", "20"],
    ["account", "noisycgd", "--L", "2", "--b", "100", "--sigma", "0.02", "--eta", "inf",
     "--lambda", "1e-3", "--beta", "30", "--k", "60", "--E", "20"],
])
def test_accounting_options_must_be_finite(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2 and "must be a finite number" in capsys.readouterr().err


def test_sweep_grid(tmp_path, monkeypatch, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["grids"] = {"sigma": [2.0, 4.0]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["sweep", "--config", str(path)],
                           monkeypatch, tmp_path, capsys)
    assert code == 0
    summary = json.loads(out)
    assert [row["sigma"] for row in summary["rows"]] == [2.0, 4.0]
    # more noise, less privacy loss
    assert float(summary["rows"][1]["epsilon"]) < float(summary["rows"][0]["epsilon"])
    # No row is singled out: choosing one by its test accuracy looks at every
    # candidate model, and no printed epsilon covers that choice.
    assert "best" not in summary


def test_sweep_nested_grid_key(tmp_path, monkeypatch, capsys):
    # Points are built before any run, so each needs its own nested dicts.
    cfg = dict(BASE_CONFIG, epochs=1, grids={"dataset.seed": [1, 2]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["sweep", "--config", str(path)],
                           monkeypatch, tmp_path, capsys)
    assert code == 0
    for row in json.loads(out)["rows"]:
        report = json.loads((tmp_path / "out" / f"{row['name']}.json").read_text())
        assert report["config"]["dataset"]["seed"] == row["dataset.seed"]


DEFAULT_SEEDS = {"gates": 0, "init": 1, "batches": 2, "noise": 3}


def test_set_one_key_of_an_object_field_the_config_leaves_out(tmp_path, monkeypatch,
                                                              capsys):
    # The object starts from the field's default, so its other keys keep theirs.
    cfg = write_config(tmp_path)
    code, out, err = run_cli(["run", "--config", cfg, "--set", "seeds.noise=7",
                              "--emit-config"], monkeypatch, tmp_path, capsys)
    assert code == 0, err
    assert json.loads(out)["seeds"] == dict(DEFAULT_SEEDS, noise=7)


def test_sweep_refuses_a_bad_constraint_before_any_run(tmp_path, monkeypatch, capsys):
    # The grid's first point is valid; its second breaks the field's
    # constraint and is refused before either runs.
    cfg = method_config(grids={"seeds.noise": [7, -1]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", "--config", str(path)],
                           monkeypatch, tmp_path, capsys)
    assert code == 2 and "seeds.noise: must be a non-negative integer" in err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_an_unknown_rule_before_any_run(tmp_path, monkeypatch, capsys):
    cfg = method_config(grids={"dataset.rule": ["norm_threshold", "moons"]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", "--config", str(path)],
                           monkeypatch, tmp_path, capsys)
    assert code == 2 and "dataset.rule: unknown rule 'moons'" in err
    assert not (tmp_path / "out").exists()


def test_sweep_grid_key_into_an_object_field_the_config_leaves_out(tmp_path, monkeypatch,
                                                                   capsys):
    cfg = dict(BASE_CONFIG, epochs=1, grids={"seeds.noise": [7, 8]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["sweep", "--config", str(path)],
                             monkeypatch, tmp_path, capsys)
    assert code == 0, err
    for row in json.loads(out)["rows"]:
        report = json.loads((tmp_path / "out" / f"{row['name']}.json").read_text())
        assert report["config"]["seeds"] == dict(DEFAULT_SEEDS, noise=row["seeds.noise"])


def test_sweep_rejects_unknown_grid_key(tmp_path, monkeypatch, capsys):
    cfg = dict(BASE_CONFIG, grids={"sigmaa": [2.0]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", "--config", str(path)],
                           monkeypatch, tmp_path, capsys)
    assert code == 2 and "sigmaa" in err
    assert not (tmp_path / "out").exists()  # refused before any run


BALL = {"kind": "ball", "radius": 1.0}
UNREAD_FIELDS = [
    # beta is no config field at all: derived from the rows, it is refused as
    # an unknown field.
    ("relu-dpsgd", "beta", 5.0), ("dual-dpsgd", "beta", 5.0),
    ("relu-dpsgd", "P", 64),
    ("dual-dpsgd", "hidden_m", 50), ("dual-noisycgd", "hidden_m", 50),
    # No method reads the retired DP-GD constraint; a config carrying it is
    # refused as an unknown field.
    ("dual-dpsgd", "dpgd_constraint", BALL), ("dual-noisycgd", "dpgd_constraint", BALL),
    ("relu-dpsgd", "dpgd_constraint", BALL),
]


@pytest.mark.parametrize("method, field, value", UNREAD_FIELDS,
                         ids=[f"{m}-{f}" for m, f, _ in UNREAD_FIELDS])
def test_field_the_method_does_not_read_exits_2(method, field, value, tmp_path,
                                                monkeypatch, capsys):
    # The report's config would otherwise echo the field as if it applied.
    cfg = write_config(tmp_path, method=method, **{field: value})
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "config error" in err and field in err


# Configs of the retired full-batch DP-GD method: one of the method itself, and
# one that carries its constraint field, as every emitted config once did.
RETIRED_DPGD_CONFIGS = {
    "method-dpgd": (method_config("dpgd"), "unknown method 'dpgd'"),
    "dpgd_constraint-on-dual-dpsgd": (
        method_config("dual-dpsgd", dpgd_constraint={"kind": "none"}),
        "unknown config fields: ['dpgd_constraint']"),
}


@pytest.mark.parametrize("cfg, message", RETIRED_DPGD_CONFIGS.values(),
                         ids=RETIRED_DPGD_CONFIGS)
def test_retired_dpgd_config_exits_2(cfg, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["run", "--config", str(path)], monkeypatch, tmp_path, capsys)
    assert code == 2 and message in err
    assert not (tmp_path / "out").exists()


BAD_SETTINGS = [
    ("dual-noisycgd", "epochs=2.5"), ("dual-noisycgd", "b=2.5"),
    ("dual-noisycgd", "P=2.5"), ("relu-dpsgd", "hidden_m=2.5"),
    ("dual-noisycgd", "name=5"),
    *[("dual-dpsgd", f"{field}={value}")
      for field in ("C", "eta", "sigma") for value in ("NaN", "Infinity")],
    ("relu-dpsgd", "account_every_epoch=no"),
    *[("dual-noisycgd", 'seeds={"gates": %s, "init": 1, "batches": 2, "noise": 3}' % gates)
      for gates in ("-1", "0.5")],
    ("dual-noisycgd", 'seeds={"gates":0,"init":1,"batches":2,"noise":3,"nosie":9}'),
    ("relu-dpsgd", "lam=-5"), ("dual-dpsgd", "lam=-1"),
    ("dual-noisycgd", "grids.sigma=2"),
    # A run trains one point: a sweep's grids are refused, not dropped.
    ("dual-noisycgd", 'grids={"sigma": [2.0, 4.0]}'),
    # Removed fields: the bias column is always on, and beta always derived.
    ("dual-dpsgd", "bias=false"), ("relu-dpsgd", "bias=true"),
    ("dual-noisycgd", "beta=1.0"),
]


@pytest.mark.parametrize("method, setting", BAD_SETTINGS,
                         ids=[f"{m}-{s}".replace(" ", "") for m, s in BAD_SETTINGS])
def test_bad_value_exits_2_before_loading_data(method, setting, tmp_path,
                                               monkeypatch, capsys):
    # A wrongly typed, non-finite or negative value, a removed field, or a
    # run config holding grids, is refused from the config alone: no data is
    # loaded and no output file written.
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded data for a config with a bad value")

    monkeypatch.setattr(cli, "load_dataset_pair", no_loading)
    command = "sweep" if setting.startswith("grids.") else "run"
    cfg = write_config(tmp_path, method=method)
    code, _, err = run_cli([command, "--config", cfg, "--set", setting],
                           monkeypatch, tmp_path, capsys)
    assert code == 2 and "config error" in err
    assert not (tmp_path / "out").exists()


def test_integer_values_are_valid_floats():
    # JSON writes 1.0 as 1 in some tools; a bool is not a number, though.
    cfg = cli.RunConfig(**method_config(C=1, sigma=2, eta=1, lam=1))
    assert (cfg.C, cfg.sigma, cfg.eta, cfg.lam) == (1, 2, 1, 1)
    with pytest.raises(ConfigError, match="C: expected float"):
        cli.RunConfig(**method_config(C=True))


BAD_SPECS = {
    "not-an-object": [1, 2],
    "missing-key": {"kind": "synthetic", "n": 120},
    "non-integer-count": dict(BASE_CONFIG["dataset"], n="abc"),
    "unknown-key": dict(BASE_CONFIG["dataset"], n_tset=10),
    "unknown-kind": {"kind": "parquet", "path": "x"},
    "unknown-rule": dict(BASE_CONFIG["dataset"], rule="moons"),
    "list-rule": dict(BASE_CONFIG["dataset"], rule=[0, 1] * 80),
    "no-classes-random-labels": dict(BASE_CONFIG["dataset"], rule="random_labels",
                                     num_classes=0),
    "no-classes-linear-teacher": dict(BASE_CONFIG["dataset"], rule="linear_teacher",
                                      num_classes=0),
}


@pytest.mark.parametrize("spec", BAD_SPECS.values(), ids=BAD_SPECS)
def test_bad_dataset_spec_exits_2(spec, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match="dataset"):
        cli.load_dataset_pair(spec)
    cfg = write_config(tmp_path, dataset=spec)
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "config error" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_emitted_config_loads(method, tmp_path, monkeypatch, capsys):
    # --emit-config prints every field, those a method does not read at their
    # defaults; that output is itself a config.
    cfg = write_config(tmp_path, method=method)
    code, first, _ = run_cli(["run", "--config", cfg, "--emit-config"],
                             monkeypatch, tmp_path, capsys)
    assert code == 0
    emitted = tmp_path / "emitted.json"
    emitted.write_text(first)
    code, again, _ = run_cli(["run", "--config", str(emitted), "--emit-config"],
                             monkeypatch, tmp_path, capsys)
    assert code == 0 and again == first
    assert not {"bias", "beta"} & set(json.loads(first))


def write_idx(stem, n, rng):
    """An IDX pair of n random 2x3 images with labels in 0..2 at ``stem``;
    the two paths."""
    pixels = rng.integers(0, 256, (n, 2, 3), dtype=np.uint8)
    labels = rng.integers(0, 3, n, dtype=np.uint8)
    images, label_file = Path(f"{stem}-images"), Path(f"{stem}-labels")
    images.write_bytes(struct.pack(">IIII", 0x803, n, 2, 3) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(images), str(label_file)


def test_biased_dataset_pair_is_the_pair_plus_a_bias_column(tmp_path):
    # Every dataset kind: the splits are built without an unbiased copy, and
    # must equal the raw rows they hold with a constant-1 column. The
    # synthetic split spans several gather slices and a ragged last one.
    rng = np.random.default_rng(0)
    images, label_file = write_idx(tmp_path / "idx", 30, rng)
    table = np.column_stack([rng.standard_normal((40, 3)), rng.integers(0, 2, 40)])
    (tmp_path / "table.csv").write_text(
        "a,b,c,y\n" + "\n".join(",".join(map(repr, row)) for row in table.tolist()))
    n = 3 * data.ROWS_SLICE - 17
    cases = [
        (dict(BASE_CONFIG["dataset"], n=n),
         data.synthetic_gaussian(n + 40, 5, rule="norm_threshold", seed=7)),
        ({"kind": "idx", "train_images": images, "train_labels": label_file,
          "test_images": images, "test_labels": label_file, "subset_n": 20},
         data.load_idx(images, label_file)),
        ({"kind": "csv", "path": str(tmp_path / "table.csv"), "n_test": 10},
         data.load_csv(str(tmp_path / "table.csv"))),
    ]
    for spec, raw in cases:
        assert len(np.unique(raw.X, axis=0)) == raw.n  # each row is found once
        for split in cli.load_dataset_pair(spec):
            idx = np.array([np.flatnonzero((raw.X == x).all(axis=1))[0]
                            for x in split.X[:, :-1]])
            assert np.all(np.diff(idx) > 0)
            assert np.array_equal(split.X, np.hstack([raw.X[idx], np.ones((len(idx), 1))]))
            assert np.array_equal(split.labels, raw.labels[idx])


@pytest.mark.parametrize("method", ["dual-dpsgd", "dual-noisycgd"])
def test_empty_training_subset_exits_2(method, tmp_path, monkeypatch, capsys):
    # Accounting divides by the training rows (q = b / n, the max row norm),
    # so an empty training split is refused before it.
    images, label_file = write_idx(tmp_path / "idx", 30, np.random.default_rng(0))
    spec = {"kind": "idx", "train_images": images, "train_labels": label_file,
            "test_images": images, "test_labels": label_file, "subset_n": 0}
    cfg = write_config(tmp_path, method=method, dataset=spec)
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "the train split has no rows" in err
    assert not (tmp_path / "out").exists()


def test_empty_test_file_exits_2(tmp_path, monkeypatch, capsys):
    # A test accuracy over no rows would be printed as NaN.
    rng = np.random.default_rng(0)
    images, label_file = write_idx(tmp_path / "train", 30, rng)
    test_images, test_labels = write_idx(tmp_path / "test", 0, rng)
    spec = {"kind": "idx", "train_images": images, "train_labels": label_file,
            "test_images": test_images, "test_labels": test_labels}
    cfg = write_config(tmp_path, method="dual-dpsgd", dataset=spec)
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "the test split has no rows" in err
    assert not (tmp_path / "out").exists()


def test_negative_class_labels_exit_2(tmp_path, monkeypatch, capsys):
    # Labels {-1, 1} would one-hot -1 onto the last class, which 1 also is.
    rng = np.random.default_rng(0)
    table = np.column_stack([rng.standard_normal((40, 3)), rng.choice([-1, 1], 40)])
    (tmp_path / "table.csv").write_text(
        "a,b,c,y\n" + "\n".join(",".join(map(repr, row)) for row in table.tolist()))
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "table.csv"),
                                          "n_test": 10})
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "class labels must be non-negative" in err
    assert not (tmp_path / "out").exists()


def test_csv_label_past_the_row_count_exits_2(tmp_path, monkeypatch, capsys):
    # 40 rows cannot hold 250001 classes; the run stops before it builds a model.
    rng = np.random.default_rng(0)
    table = np.column_stack([rng.standard_normal((40, 3)), rng.integers(0, 2, 40)])
    table[5, -1] = 250000
    (tmp_path / "table.csv").write_text(
        "a,b,c,y\n" + "\n".join(",".join(map(repr, row)) for row in table.tolist()))
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "table.csv"),
                                          "n_test": 10})
    code, _, err = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 2 and "CSV row 6: label '250000.0'" in err
    assert not (tmp_path / "out").exists()


MODEL_MODULES = {"dual": cd, "relu": br}


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_every_method_checkpoint_reproduces_report(method, tmp_path, monkeypatch,
                                                   capsys):
    cfg = write_config(tmp_path, method=method)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    model_kind = cli.METHODS[method][0]
    objective, params = MODEL_MODULES[model_kind].load_checkpoint(
        report["outputs"]["model"], report["config"]["loss"])

    # Test accuracy of the reloaded model, one row at a time.
    _, test = cli.load_dataset_pair(BASE_CONFIG["dataset"])
    if model_kind == "dual":
        model = oracles.dual_model(objective, params)
        logits = [oracles.forward(model, x, model.arrangement.U @ x >= 0)
                  for x in test.X]
    else:
        model = oracles.mlp(objective, params)
        logits = [oracles.mlp_forward(model, x) for x in test.X]
    accuracy = float(np.mean(np.argmax(logits, axis=1) == test.labels))
    assert accuracy == report["final_test_accuracy"]


def test_training_loops_looked_up_at_call_time(monkeypatch, outdir):
    # Probes (perfbench) replace the loops on the optimizers module; a run
    # must call whatever the module holds when it starts.
    calls = []
    for name in ("dpsgd_run", "noisycgd_run"):
        def spy(*args, _name=name, _real=getattr(opt, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli.optimizers, name, spy)
    for method, loop in (("dual-dpsgd", "dpsgd_run"), ("relu-dpsgd", "dpsgd_run"),
                         ("dual-noisycgd", "noisycgd_run")):
        calls.clear()
        cli.execute_run(cli.RunConfig(**method_config(method)))
        assert calls == [loop]


@pytest.mark.parametrize("cls", [cd.DualObjective, br.MLPObjective])
def test_probed_methods_are_each_objectives_own(cls):
    # Probes (perfbench) read and patch each class's own attributes, so the
    # shared evaluation head is bound in each objective's class body.
    for name in ("clipped_grad_mean", "data_loss", "accuracy"):
        assert name in vars(cls)
    assert vars(cls)["data_loss"] is losses.data_loss
    assert vars(cls)["accuracy"] is losses.accuracy


def keys_of(node):
    if isinstance(node, dict):
        return set(node).union(*map(keys_of, node.values()))
    if isinstance(node, list):
        return set().union(*map(keys_of, node))
    return set()


@pytest.mark.parametrize("method", ["dual-dpsgd", "relu-dpsgd"])
def test_dpsgd_reports_hold_no_beta(method, outdir):
    # beta (a statistic of the private rows) feeds only the NoisyCGD bound.
    printed = cli.execute_run(cli.RunConfig(**method_config(method)))
    written = json.loads((outdir / "t.json").read_text())
    assert not any("beta" in key for key in keys_of([printed, written]))


def test_relu_dpsgd_runs(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, method="relu-dpsgd", sigma=1.0)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["accountant_inputs"]["method"] == "dpsgd"
    assert (tmp_path / "out" / "t.model.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks():
    """The README's library example and its checkpoint-reading snippet."""
    library, checkpoint = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return library, checkpoint


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(readme_python_blocks()[0], scope)
    assert math.isfinite(scope["eps"]) and scope["mu"] > 0
    assert len(scope["records"]) == 20
    # the checkpoint round trip gives back the trained model
    assert scope["restored_params"].tobytes() == scope["params"].tobytes()
    restored, objective = scope["restored"], scope["objective"]
    assert (restored.k, restored.lam, restored.loss_kind) == (2, 1e-3, "ce")
    assert restored.arrangement.U.tobytes() == objective.arrangement.U.tobytes()


def test_readme_checkpoint_snippet_reads_v(tmp_path, monkeypatch):
    # The documented encoding, read with numpy alone, is the saved V.
    objective = cd.DualObjective(cd.sample_arrangement(4, 3, 0), k=2, lam=0.0)
    params = np.random.default_rng(1).standard_normal(objective.dim)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").mkdir()
    objective.save_checkpoint(params, "runs/demo.model.json")
    scope = {}
    exec(readme_python_blocks()[1], scope)
    assert scope["V"].tobytes() == params.tobytes()
    assert scope["V"].shape == (3, 4, 2)


def test_readme_config_loads():
    # The documented run config, dataset spec included, passes validation.
    [text] = re.findall(r"cat > cfg.json <<'EOF'\n(.*?)EOF", README.read_text(), re.S)
    cfg = cli.RunConfig(**json.loads(text))
    assert cfg.dataset["kind"] == "synthetic" and cfg.name == "demo"


def test_readme_cli_examples_parse():
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    lines = shell.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("convexdp ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(command)}")


class ZeroGradObjective:
    """Clipped gradients all zero: a step from params 0 adds only the noise."""

    def __init__(self, dim, lam):
        self.dim, self.lam = dim, lam

    def clipped_grad_mean(self, params, X, y, C):
        return np.zeros(self.dim)


@pytest.mark.parametrize("method", ["dual-dpsgd", "dual-noisycgd"])
def test_injected_noise_is_the_noise_the_epsilon_assumes(method):
    # With n = b one epoch is one step, which leaves params = -(eta * z) for
    # the run's noise draw z.
    # Its std must be the one the accountant query reads: NoisyCGD's sigma
    # (with L = 2C), or C/b times DP-SGD's noise multiplier at q = b/n.
    C, sigma, b, eta, lam, dim = 1.5, 2.0, 30, 0.02, 0.1, 500
    seeds = {"gates": 0, "init": 1, "batches": 2, "noise": 3}
    fields = dict(BASE_CONFIG, method=method, C=C, sigma=sigma, b=b, eta=eta, lam=lam,
                  epochs=1, seeds=seeds)
    cfg = cli.RunConfig(**fields)
    X, labels = np.ones((b, 6)), np.zeros(b, dtype=int)
    inputs = cli.accountant_inputs_for_run(cfg, X)
    if inputs["method"] == "noisycgd":
        assert inputs["L"] == 2 * C
        std = inputs["sigma"]
    else:
        assert inputs["q"] == b / len(X)
        std = C * inputs["sigma"] / b
    assert std == C * sigma / b

    loop = getattr(opt, cli.METHODS[method][1])
    opt_cfg = cli._opt_config(cfg)  # the config execute_run trains with
    params, _ = loop(ZeroGradObjective(dim, lam), np.zeros(dim), X, labels, opt_cfg)
    z = np.random.default_rng(np.random.SeedSequence(seeds["noise"])).standard_normal(dim)
    assert np.array_equal(params, -(eta * (z * std)))
