"""Experiment harness: reproducible runs, sweeps and accounting queries.

Every run is fully determined by its resolved config; re-running the same
config reproduces traces byte for byte. The final report logs the exact
accountant inputs so every reported epsilon can be recomputed with the
standalone ``account`` command.

Exit codes: 0 success, 2 config error, 3 numeric error, 4 I/O error.
The CONVEXDP_OUTDIR environment variable overrides the output directory.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import accountant as acc
from . import baseline_relu, convex_dual, data, optimizers
from .errors import ConfigError, FormatError, NumericError

METHODS = ("dual-dpsgd", "dual-noisycgd", "relu-dpsgd", "dpgd")
OUTDIR_ENV = "CONVEXDP_OUTDIR"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunConfig:
    method: str
    dataset: dict
    epochs: int
    C: float = 1.0
    sigma: float = 0.0
    b: int = 100
    eta: float = 0.1
    lam: Optional[float] = None  # dual-noisycgd default: 2e-4 / eta
    P: int = 128
    hidden_m: int = 200
    loss: str = "ce"
    bias: bool = True
    delta: float = 1e-5
    beta: Optional[float] = None  # smoothness override for GDP accounting
    seeds: dict = dataclasses.field(
        default_factory=lambda: {"gates": 0, "init": 1, "batches": 2, "noise": 3}
    )
    out_dir: str = "runs"
    name: str = "run"
    account_every_epoch: bool = False
    dpgd_constraint: dict = dataclasses.field(default_factory=lambda: {"kind": "none"})

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}; "
                              f"expected one of {METHODS}")
        for field, positive in (("epochs", self.epochs), ("C", self.C),
                                ("b", self.b), ("eta", self.eta), ("P", self.P),
                                ("hidden_m", self.hidden_m)):
            if positive <= 0:
                raise ConfigError(f"{field}: must be positive, got {positive!r}")
        if self.sigma < 0:
            raise ConfigError(f"sigma: must be non-negative, got {self.sigma!r}")
        if not (0 < self.delta < 1):
            raise ConfigError(f"delta: must be in (0, 1), got {self.delta!r}")
        if self.loss not in ("mse", "ce"):
            raise ConfigError(f"loss: unknown loss {self.loss!r}")
        missing = {"gates", "init", "batches", "noise"} - set(self.seeds)
        if missing:
            raise ConfigError(f"seeds: missing {sorted(missing)}")
        if self.lam is None and self.method == "dual-noisycgd":
            # experimental default: eta * lambda = 2e-4
            self.lam = 2e-4 / self.eta
        if self.lam is None:
            self.lam = 0.0
        if self.method == "dual-noisycgd" and self.lam <= 0:
            raise ConfigError("lam: dual-noisycgd requires lambda > 0")

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


def _set_path(cfg: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {dotted!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def _read_config(path: str, overrides) -> dict:
    """The JSON config at ``path`` with the ``--set key=value`` overrides applied."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        _set_path(cfg, *item.split("=", 1))
    return cfg


def _run_config(cfg: dict) -> RunConfig:
    unknown = set(cfg) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return RunConfig(**cfg)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_run_config(path: str, overrides) -> RunConfig:
    cfg = _read_config(path, overrides)
    cfg.pop("grids", None)
    return _run_config(cfg)


# ---------------------------------------------------------------------------
# Dataset resolution
# ---------------------------------------------------------------------------


def load_dataset_pair(spec: dict):
    """Resolve a dataset spec into (train, test) datasets."""
    kind = spec.get("kind")
    if kind == "synthetic":
        n, d = int(spec["n"]), int(spec["d"])
        n_test = int(spec.get("n_test", max(1, n // 4)))
        rule = spec.get("rule", "norm_threshold")
        seed = int(spec.get("seed", 0))
        num_classes = int(spec.get("num_classes", 2))
        full = data.synthetic_gaussian(
            n + n_test, d, rule=rule, seed=seed, num_classes=num_classes
        )
        return data.train_test_split(full, n_test, seed=seed + 1)
    if kind == "idx":
        train = data.load_idx(spec["train_images"], spec["train_labels"], "train")
        test = data.load_idx(spec["test_images"], spec["test_labels"], "test")
        if "subset_n" in spec:
            train = data.subset(train, int(spec["subset_n"]),
                                int(spec.get("subset_seed", 0)))
        return train, test
    if kind == "csv":
        full = data.load_csv(spec["path"])
        return data.train_test_split(
            full, int(spec.get("n_test", max(1, full.n // 4))),
            seed=int(spec.get("seed", 0)),
        )
    raise ConfigError(f"dataset.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Accounting glue shared by `run` and `account`
# ---------------------------------------------------------------------------


def accountant_inputs_for_run(cfg: RunConfig, n: int, beta: float) -> dict:
    """The exact accountant query implied by a run config."""
    if cfg.method in ("dual-dpsgd", "relu-dpsgd"):
        return {
            "method": "dpsgd",
            "sigma": cfg.sigma,
            "q": cfg.b / n,
            "T": cfg.epochs * (n // cfg.b),
            "delta": cfg.delta,
        }
    if cfg.method == "dual-noisycgd":
        return {
            "method": "noisycgd",
            "L": 2.0 * cfg.C,
            "b": cfg.b,
            # noise std in update-equation units: C * sigma / b on the mean
            "sigma": cfg.C * cfg.sigma / cfg.b,
            "eta": cfg.eta,
            "lambda": cfg.lam,
            "beta": beta,
            "k": n // cfg.b,
            "E": cfg.epochs,
            "delta": cfg.delta,
        }
    if cfg.method == "dpgd":
        # full-batch steps: clip to C, noise std sigma*C/n on the mean
        return {
            "method": "dpsgd",
            "sigma": cfg.sigma,
            "q": 1.0,
            "T": cfg.epochs,
            "delta": cfg.delta,
        }
    raise ConfigError(f"no accountant for method {cfg.method!r}")


def epsilon_from_inputs(
    inputs: dict, epochs: Optional[int] = None
) -> float | list[float]:
    """Epsilon of the accountant query ``inputs`` at its ``delta``.

    With ``epochs``, ``inputs`` is read as a run of that many equal epochs,
    and the list of epsilons after epochs 1..epochs is returned. Entry ``e``
    equals ``epsilon_from_inputs`` of the inputs cut at epoch ``e``; the
    DP-SGD horizons share one composition chain.
    """
    method = inputs["method"]
    if method == "dpsgd":
        if epochs is None:
            Ts = [inputs["T"]]
        else:
            steps, rest = divmod(inputs["T"], epochs)
            if rest:
                raise ConfigError(f"T={inputs['T']} is not {epochs} equal epochs")
            Ts = [e * steps for e in range(1, epochs + 1)]
        if inputs["sigma"] == 0:
            eps = [math.inf] * len(Ts)
        else:
            eps = [acc.find_epsilon(profile, inputs["delta"]) for profile in
                   acc.account_dpsgd_many(inputs["sigma"], inputs["q"], Ts)]
    elif method == "noisycgd":
        Es = [inputs["E"]] if epochs is None else range(1, epochs + 1)
        eps = [_noisycgd_epsilon(inputs, E) for E in Es]
    else:
        raise ConfigError(f"unknown accountant method {method!r}")
    return eps[0] if epochs is None else eps


def _noisycgd_spec(inputs: dict, E: int) -> acc.NoisyCGDSpec:
    """The GDP bound's inputs after E epochs; raises DomainError if it does not apply."""
    return acc.NoisyCGDSpec(
        L=inputs["L"],
        b=inputs["b"],
        sigma=inputs["sigma"],
        eta=inputs["eta"],
        lambda_sc=inputs["lambda"],
        beta_sm=inputs["beta"],
        k=inputs["k"],
        E=E,
    )


def _noisycgd_epsilon(inputs: dict, E: int) -> float:
    if inputs["sigma"] == 0:
        return math.inf
    return acc.find_epsilon(
        acc.gaussian_profile(acc.noisycgd_mu(_noisycgd_spec(inputs, E))),
        inputs["delta"],
    )


def _eps_repr(eps: float) -> str:
    if math.isinf(eps):
        return "inf"
    if eps > acc.EPS_MAX:
        return f"> {acc.EPS_MAX:g}"
    return repr(float(eps))


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


def execute_run(cfg: RunConfig, write_outputs: bool = True) -> dict:
    train, test = load_dataset_pair(cfg.dataset)
    X_train, X_test = train.X, test.X
    if cfg.bias:
        X_train = convex_dual.add_bias_column(X_train)
        X_test = convex_dual.add_bias_column(X_test)
    d = X_train.shape[1]
    k = max(train.num_classes, test.num_classes)
    if cfg.loss == "ce" and k < 2:
        raise ConfigError("cross-entropy needs >= 2 classes")

    if cfg.method in ("dual-dpsgd", "dual-noisycgd", "dpgd"):
        arrangement = convex_dual.sample_arrangement(d, cfg.P, cfg.seeds["gates"])
        objective = convex_dual.DualObjective(
            arrangement, k=k, lam=float(cfg.lam), loss=cfg.loss, bias=cfg.bias
        )
        params0 = objective.init_params(cfg.seeds["init"])
    else:
        objective = baseline_relu.MLPObjective(
            d, k, m=cfg.hidden_m, loss=cfg.loss, lam=float(cfg.lam)
        )
        params0 = objective.init_params(cfg.seeds["init"])

    beta = (cfg.beta if cfg.beta is not None
            else float(np.max(np.sum(X_train**2, axis=1))) + float(cfg.lam))
    inputs = accountant_inputs_for_run(cfg, len(X_train), beta)
    if inputs["method"] == "noisycgd" and inputs["sigma"] > 0:
        # Refuse a run whose GDP bound does not apply (eta * beta >= 2)
        # before training it.
        _noisycgd_spec(inputs, cfg.epochs)

    eval_fn = lambda params: objective.accuracy(params, X_test, test.labels)
    labels = train.labels

    if cfg.method != "dpgd":
        opt_cfg = optimizers.DPSGDConfig(
            C=cfg.C, sigma=cfg.sigma, b=cfg.b, eta=cfg.eta, epochs=cfg.epochs,
            seed=cfg.seeds["batches"], noise_seed=cfg.seeds["noise"],
        )
        run = (optimizers.noisycgd_run if cfg.method == "dual-noisycgd"
               else optimizers.dpsgd_run)
        params, trace = run(
            objective, params0, X_train, labels, opt_cfg, eval_fn=eval_fn
        )
    else:
        project = optimizers.make_projection(**cfg.dpgd_constraint)
        sigma_gd = cfg.sigma * cfg.C / len(X_train)
        params = optimizers.dpgd_run(
            objective, X_train, labels, L=cfg.C, project=project, T=cfg.epochs,
            sigma_gd=sigma_gd, eta=cfg.eta, seed=cfg.seeds["noise"],
        )
        trace = optimizers.TrainTrace()
        trace.append(
            epoch=cfg.epochs,
            train_loss=objective.data_loss(params, X_train, labels),
            test_accuracy=eval_fn(params),
            rng_state_digest="",
        )

    if cfg.account_every_epoch and cfg.method != "dpgd":
        per_epoch = epsilon_from_inputs(inputs, epochs=cfg.epochs)
        for record in trace.records:
            record["epsilon_at_delta"] = per_epoch[record["epoch"] - 1]
        epsilon = trace.records[-1]["epsilon_at_delta"]
    else:
        epsilon = epsilon_from_inputs(inputs)
        trace.records[-1]["epsilon_at_delta"] = epsilon

    report = {
        "config": cfg.resolved(),
        "accountant_inputs": inputs,
        "epsilon": _eps_repr(epsilon),
        "delta": cfg.delta,
        "final_train_loss": trace.records[-1]["train_loss"],
        "final_test_accuracy": trace.records[-1]["test_accuracy"],
        "n_train": len(X_train),
        "beta_smoothness": beta,
    }
    if write_outputs:
        out_dir = os.environ.get(OUTDIR_ENV, cfg.out_dir)
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, cfg.name)
        with open(base + ".csv", "w") as fh:
            fh.write(trace.to_csv())
        with open(base + ".json", "w") as fh:
            json.dump(report, fh, indent=2)
        if cfg.method in ("dual-dpsgd", "dual-noisycgd", "dpgd"):
            convex_dual.save_checkpoint(objective.to_model(params),
                                        base + ".model.json")
        else:
            U, A = objective._unflatten(params)
            baseline_relu.save_checkpoint(baseline_relu.MLP(U=U, A=A),
                                          base + ".model.json")
        report["outputs"] = {
            "csv": base + ".csv",
            "json": base + ".json",
            "model": base + ".model.json",
        }
    report["trace"] = trace.records
    return report


def execute_sweep(path: str, overrides) -> dict:
    """Every point of the config's ``grids``, all validated before any runs."""
    raw = _read_config(path, overrides)
    grids = raw.pop("grids", None)
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ConfigError("sweep needs a non-empty 'grids' mapping")
    keys = sorted(grids)
    points = []
    for values in itertools.product(*(grids[key] for key in keys)):
        point = copy.deepcopy(raw)  # grid keys may set nested fields
        for key, value in zip(keys, values):
            _set_path(point, key, json.dumps(value))
        point["name"] = raw.get("name", "run") + "-" + "-".join(
            f"{key.replace('.', '_')}{value}" for key, value in zip(keys, values)
        )
        points.append((values, _run_config(point)))
    rows = []
    best = None
    for values, cfg in points:
        report = execute_run(cfg)
        row = dict(zip(keys, values))
        row.update(
            name=cfg.name,
            test_accuracy=report["final_test_accuracy"],
            train_loss=report["final_train_loss"],
            epsilon=report["epsilon"],
        )
        rows.append(row)
        if best is None or (row["test_accuracy"] or 0) > (best["test_accuracy"] or 0):
            best = row
    out_dir = os.environ.get(OUTDIR_ENV, raw.get("out_dir", "runs"))
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, raw.get("name", "run") + "-sweep.json")
    summary = {"grid_keys": keys, "rows": rows, "best": best}
    with open(table_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    summary["table_path"] = table_path
    return summary


# ---------------------------------------------------------------------------
# account / inspect-pld
# ---------------------------------------------------------------------------


def _account_dpsgd_cmd(args) -> dict:
    profile = acc.account_dpsgd(args.sigma, args.q, args.T,
                                grid_step=args.grid_step)
    eps = acc.find_epsilon(profile, args.delta)
    pld = profile.pld
    out = {
        "method": "dpsgd",
        "sigma": args.sigma,
        "q": args.q,
        "T": args.T,
        "delta": args.delta,
        "epsilon": _eps_repr(eps),
        "grid_step": pld.loss_grid_step,
        "eps_max": acc.EPS_MAX,
        "pld": {
            "support_min": pld.loss_grid_origin,
            "support_max": pld.losses[-1],
            "points": len(pld.masses),
            "truncation_mass": pld.infinity_mass,
        },
    }
    if args.eps:
        out["delta_at_eps"] = {repr(e): profile.delta(e) for e in args.eps}
    return out


def _account_noisycgd_cmd(args) -> dict:
    spec = acc.NoisyCGDSpec(L=args.L, b=args.b, sigma=args.sigma, eta=args.eta,
                            lambda_sc=args.lam, beta_sm=args.beta, k=args.k,
                            E=args.E)
    mu = acc.noisycgd_mu(spec)
    eps = acc.find_epsilon(acc.gaussian_profile(mu), args.delta)
    return {
        "method": "noisycgd",
        "L": args.L, "b": args.b, "sigma": args.sigma, "eta": args.eta,
        "lambda": args.lam, "beta": args.beta, "k": args.k, "E": args.E,
        "mu_gdp": mu,
        "delta": args.delta,
        "epsilon": _eps_repr(eps),
    }


def _account_convert_rdp_cmd(args) -> dict:
    eps_values = args.eps or [0.5, 1.0, 2.0, 4.0]
    return {
        "method": "convert-rdp",
        "alpha": args.alpha,
        "eps_rdp": args.eps_rdp,
        "delta_at_eps": {
            repr(e): acc.rdp_to_dp(args.alpha, args.eps_rdp, e) for e in eps_values
        },
    }


def _inspect_pld_cmd(args) -> dict:
    profile = acc.account_dpsgd(args.sigma, args.q, args.T,
                                grid_step=args.grid_step)
    pld = profile.pld
    losses = pld.losses
    mean = float(losses @ pld.masses)
    return {
        "sigma": args.sigma, "q": args.q, "T": args.T,
        "grid_step": pld.loss_grid_step,
        "support": [float(losses[0]), float(losses[-1])],
        "points": len(pld.masses),
        "infinity_mass": pld.infinity_mass,
        "finite_mass": float(pld.masses.sum()),
        "mean_loss": mean,
        "eps_max": acc.EPS_MAX,
    }


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexdp",
        description="DP training of convexified two-layer ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one training run")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--set", dest="overrides", action="append", metavar="K=V")
    run_p.add_argument("--emit-config", action="store_true",
                       help="print the resolved config and exit")

    sweep_p = sub.add_parser("sweep", help="cartesian grid of runs")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--set", dest="overrides", action="append", metavar="K=V")

    account_p = sub.add_parser("account", help="standalone accounting queries")
    acc_sub = account_p.add_subparsers(dest="accountant", required=True)

    dpsgd_p = acc_sub.add_parser("dpsgd")
    dpsgd_p.add_argument("--sigma", type=float, required=True)
    dpsgd_p.add_argument("--q", type=float, required=True)
    dpsgd_p.add_argument("--T", type=int, required=True)
    dpsgd_p.add_argument("--delta", type=float, default=1e-5)
    dpsgd_p.add_argument("--grid-step", type=float, default=acc.DEFAULT_GRID_STEP)
    dpsgd_p.add_argument("--eps", type=float, nargs="*")

    cgd_p = acc_sub.add_parser("noisycgd")
    cgd_p.add_argument("--L", type=float, required=True)
    cgd_p.add_argument("--b", type=int, required=True)
    cgd_p.add_argument("--sigma", type=float, required=True)
    cgd_p.add_argument("--eta", type=float, required=True)
    cgd_p.add_argument("--lam", type=float, required=True)
    cgd_p.add_argument("--beta", type=float, required=True)
    cgd_p.add_argument("--k", type=int, required=True)
    cgd_p.add_argument("--E", type=int, required=True)
    cgd_p.add_argument("--delta", type=float, default=1e-5)

    rdp_p = acc_sub.add_parser("convert-rdp")
    rdp_p.add_argument("--alpha", type=float, required=True)
    rdp_p.add_argument("--eps-rdp", type=float, required=True)
    rdp_p.add_argument("--eps", type=float, nargs="*")

    pld_p = sub.add_parser("inspect-pld", help="metadata of a composed PLD")
    pld_p.add_argument("--sigma", type=float, required=True)
    pld_p.add_argument("--q", type=float, required=True)
    pld_p.add_argument("--T", type=int, required=True)
    pld_p.add_argument("--grid-step", type=float, default=acc.DEFAULT_GRID_STEP)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_run_config(args.config, args.overrides)
            if args.emit_config:
                print(json.dumps(cfg.resolved(), indent=2))
                return 0
            report = execute_run(cfg)
            report.pop("trace", None)
            print(json.dumps(report, indent=2))
        elif args.command == "sweep":
            summary = execute_sweep(args.config, args.overrides)
            print(json.dumps(summary, indent=2))
        elif args.command == "account":
            handler = {
                "dpsgd": _account_dpsgd_cmd,
                "noisycgd": _account_noisycgd_cmd,
                "convert-rdp": _account_convert_rdp_cmd,
            }[args.accountant]
            print(json.dumps(handler(args), indent=2))
        elif args.command == "inspect-pld":
            print(json.dumps(_inspect_pld_cmd(args), indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (OSError, FormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
