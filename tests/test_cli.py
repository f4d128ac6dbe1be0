"""CLI harness tests: config resolution, determinism of emitted artifacts,
exit-code mapping, and recomputability of every reported epsilon from the
accountant inputs logged alongside it."""
import json
import math

import numpy as np
import pytest

from convexdp import accountant as acc
from convexdp import cli
from convexdp.errors import ConfigError


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


def write_config(tmp_path, **extra):
    cfg = dict(BASE_CONFIG)
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "out"))
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_outputs_deterministic(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    contents = []
    for sub in ("a", "b"):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / sub))
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        contents.append(
            (
                (tmp_path / sub / "t.csv").read_text(),
                (tmp_path / sub / "t.json").read_text(),
                (tmp_path / sub / "t.model.json").read_text(),
            )
        )
    assert contents[0] == contents[1]  # bit-identical artifacts


def test_run_epsilon_recomputable_from_logged_inputs(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    eps_again = cli.epsilon_from_inputs(report["accountant_inputs"])
    assert float(report["epsilon"]) == eps_again


@pytest.mark.parametrize("method", ["relu-dpsgd", "dual-dpsgd", "dual-noisycgd"])
def test_per_epoch_epsilons_match_one_shot(method):
    cfg = cli.RunConfig(**dict(
        BASE_CONFIG, method=method, hidden_m=8, epochs=4,
        account_every_epoch=True, dataset=dict(BASE_CONFIG["dataset"]),
    ))
    report = cli.execute_run(cfg, write_outputs=False)
    inputs = report["accountant_inputs"]
    steps = report["n_train"] // cfg.b
    assert [r["epoch"] for r in report["trace"]] == [1, 2, 3, 4]
    for record in report["trace"]:
        epoch = record["epoch"]
        cut = (dict(inputs, T=epoch * steps) if inputs["method"] == "dpsgd"
               else dict(inputs, E=epoch))
        assert record["epsilon_at_delta"] == cli.epsilon_from_inputs(cut)
    assert float(report["epsilon"]) == cli.epsilon_from_inputs(inputs)


def test_per_epoch_epsilons_need_equal_epochs():
    inputs = {"method": "dpsgd", "sigma": 2.0, "q": 0.1, "T": 7, "delta": 1e-5}
    with pytest.raises(ConfigError):
        cli.epsilon_from_inputs(inputs, epochs=2)


def test_run_sigma_zero_reports_inf(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, sigma=0.0)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["epsilon"] == "inf"
    csv = (tmp_path / "out" / "t.csv").read_text()
    assert csv.splitlines()[-1].endswith(",inf")


def test_run_noisycgd_lambda_default_rule(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, eta=0.04)
    code, out, _ = run_cli(
        ["run", "--config", cfg, "--emit-config"], monkeypatch, tmp_path, capsys
    )
    assert code == 0
    resolved = json.loads(out)
    assert resolved["lam"] == pytest.approx(2e-4 / 0.04)


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


def test_exit_code_io_error(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--config", str(tmp_path / "missing.json")],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 4 and "I/O error" in err


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
            "--eta", "0.5", "--lam", "1", "--beta", "1", "--k", "2", "--E", "2"]
    code, out, _ = run_cli(args, monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mu_gdp"] == pytest.approx(0.05 * math.sqrt(1.2), abs=1e-12)


def test_account_convert_rdp(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["account", "convert-rdp", "--alpha", "2", "--eps-rdp", "1",
         "--eps", "1"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    assert json.loads(out)["delta_at_eps"]["1.0"] == pytest.approx(0.25)


def test_inspect_pld(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["inspect-pld", "--sigma", "5", "--q", "0.02", "--T", "10"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["finite_mass"] + report["infinity_mass"] == pytest.approx(1.0)
    assert report["support"][0] < 0 < report["support"][1]
    # composed privacy loss has positive KL (mean of the loss under P)
    assert report["mean_loss"] > 0


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
    assert summary["best"] in summary["rows"]


def test_accountant_inputs_for_dpgd():
    cfg = cli.RunConfig(**dict(
        BASE_CONFIG, method="dpgd", lam=0.0, dataset=dict(BASE_CONFIG["dataset"])
    ))
    inputs = cli.accountant_inputs_for_run(cfg, n=120, beta=1.0)
    assert inputs["method"] == "dpsgd"
    assert inputs["q"] == 1.0 and inputs["T"] == cfg.epochs


def test_relu_dpsgd_runs(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, method="relu-dpsgd", hidden_m=8, sigma=1.0)
    code, out, _ = run_cli(["run", "--config", cfg], monkeypatch, tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["accountant_inputs"]["method"] == "dpsgd"
    assert (tmp_path / "out" / "t.model.json").exists()
