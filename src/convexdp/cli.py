"""Experiment harness: reproducible runs, sweeps and accounting queries.

Every run is fully determined by its resolved config; re-running the same
config reproduces traces byte for byte. The final report logs the exact
accountant inputs so every reported epsilon can be recomputed with the
standalone ``account`` command.

Exit codes: 0 success, 2 config error, 3 numeric error, 4 I/O error.
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
from typing import Iterable, Optional

import numpy as np

from . import accountant as acc
from . import baseline_relu, convex_dual, data, optimizers
from .errors import ConfigError, FormatError, NumericError

# Each method's model ("dual" gated-linear or "relu" MLP), training loop (a
# function name in `optimizers`, looked up at each run) and accountant query.
METHODS = {
    "dual-dpsgd": ("dual", "dpsgd_run", "dpsgd"),
    "dual-noisycgd": ("dual", "noisycgd_run", "noisycgd"),
    "relu-dpsgd": ("relu", "dpsgd_run", "dpsgd"),
}
# The one config field each model alone reads; every other field applies to
# every method.
FIELDS_READ_BY = {"dual": "P", "relu": "hidden_m"}
# The values each RunConfig annotation takes: a JSON integer is a float too,
# and a bool is only a bool.
JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "dict": dict}
# Each dataset kind's required and optional spec keys, besides "kind". The
# counts are integers; every other key, a rule name or a file path, is a string.
DATASET_KEYS = {
    "synthetic": ({"n", "d"}, {"n_test", "rule", "seed", "num_classes"}),
    "idx": ({"train_images", "train_labels", "test_images", "test_labels"},
            {"subset_n", "subset_seed"}),
    "csv": ({"path"}, {"n_test", "seed"}),
}
COUNT_KEYS = {"n", "d", "n_test", "seed", "num_classes", "subset_n", "subset_seed"}
SEED_KEYS = {"gates", "init", "batches", "noise"}


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
    delta: float = 1e-5
    seeds: dict = dataclasses.field(
        default_factory=lambda: {"gates": 0, "init": 1, "batches": 2, "noise": 3}
    )
    out_dir: str = "runs"
    name: str = "run"
    account_every_epoch: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind = f.type.removeprefix("Optional[").rstrip("]")
            if value is None and kind != f.type:  # an unset Optional field
                continue
            if not isinstance(value, JSON_TYPES[kind]) or (
                    isinstance(value, bool) and kind != "bool"):
                raise ConfigError(f"{f.name}: expected {kind}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}; "
                              f"expected one of {tuple(METHODS)}")
        model, _, accountant = METHODS[self.method]
        for field in ("epochs", "C", "b", "eta", "P", "hidden_m"):
            if (value := getattr(self, field)) <= 0:
                raise ConfigError(f"{field}: must be positive, got {value!r}")
        for field in ("sigma", "lam"):
            if (value := getattr(self, field)) is not None and value < 0:
                raise ConfigError(f"{field}: must be non-negative, got {value!r}")
        if not (0 < self.delta < 1):
            raise ConfigError(f"delta: must be in (0, 1), got {self.delta!r}")
        if self.loss not in ("mse", "ce"):
            raise ConfigError(f"loss: unknown loss {self.loss!r}")
        for problem, keys in (("missing", SEED_KEYS - set(self.seeds)),
                              ("unknown keys", set(self.seeds) - SEED_KEYS)):
            if keys:
                raise ConfigError(f"seeds: {problem} {sorted(keys)}")
        for key, seed in self.seeds.items():
            if not data.is_count(seed):
                raise ConfigError(f"seeds.{key}: must be a non-negative integer, "
                                  f"got {seed!r}")
        _check_dataset_spec(self.dataset)
        if self.lam is None:
            # NoisyCGD's experimental default: eta * lambda = 2e-4
            self.lam = 2e-4 / self.eta if accountant == "noisycgd" else 0.0
        if accountant == "noisycgd" and self.lam <= 0:
            raise ConfigError("lam: NoisyCGD accounting requires lambda > 0")
        # A field left at its default is silent, so --emit-config output loads.
        for other, field in FIELDS_READ_BY.items():
            if other != model and getattr(self, field) != _field_defaults()[field]:
                raise ConfigError(f"{field}: not read by method {self.method!r}; "
                                  "remove from the config")

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


def _field_defaults() -> dict:
    """Each RunConfig field's default, a fresh copy of a mutable one."""
    return {f.name: f.default if f.default_factory is dataclasses.MISSING
            else f.default_factory() for f in dataclasses.fields(RunConfig)}


def _set_path(cfg: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        # a missing object field starts from its default, whose other keys stay
        default = _field_defaults().get(key) if node is cfg else None
        node = node.setdefault(key, default if isinstance(default, dict) else {})
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
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: expected an object")
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


# ---------------------------------------------------------------------------
# Dataset resolution
# ---------------------------------------------------------------------------


def _n_test(spec: dict, n: int) -> int:
    """Held-out rows: ``n_test``, else a quarter of n training rows or CSV rows."""
    return spec.get("n_test", max(1, n // 4))


def _check_dataset_spec(spec) -> None:
    """Refuse a dataset spec that is not an object of its kind's keys, with
    non-negative integer counts, at least one class, string paths, and a
    known rule name."""
    if not isinstance(spec, dict):
        raise ConfigError(f"dataset: expected an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DATASET_KEYS:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}; "
                          f"expected one of {tuple(DATASET_KEYS)}")
    required, optional = DATASET_KEYS[kind]
    for problem, keys in (("missing", required - set(spec)),
                          ("unknown keys", set(spec) - required - optional - {"kind"})):
        if keys:
            raise ConfigError(f"dataset: {problem} {sorted(keys)} for kind {kind!r}")
    for key, value in spec.items():
        if key in COUNT_KEYS and not data.is_count(value):
            raise ConfigError(f"dataset.{key}: must be a non-negative integer, "
                              f"got {value!r}")
        if key not in COUNT_KEYS and not isinstance(value, str):
            raise ConfigError(f"dataset.{key}: expected a string, got {value!r}")
    if spec.get("num_classes", 1) < 1:
        raise ConfigError(f"dataset.num_classes: must be at least 1, got "
                          f"{spec['num_classes']!r}")
    if (rule := spec.get("rule", "norm_threshold")) not in data.RULES:
        raise ConfigError(f"dataset.rule: unknown rule {rule!r}; expected one of "
                          f"{data.RULES}")


def load_dataset_pair(spec: dict):
    """Resolve a dataset spec into (train, test) datasets, whose features end
    in a constant-1 column; an empty split is refused."""
    _check_dataset_spec(spec)
    if spec["kind"] == "synthetic":
        n, seed = spec["n"], spec.get("seed", 0)
        full = data.synthetic_gaussian(
            n + _n_test(spec, n), spec["d"], rule=spec.get("rule", "norm_threshold"),
            seed=seed, num_classes=spec.get("num_classes", 2),
        )
        pair = data.train_test_split(full, _n_test(spec, n), seed=seed + 1)
    elif spec["kind"] == "idx":
        train = data.load_idx(spec["train_images"], spec["train_labels"])
        test = data.load_idx(spec["test_images"], spec["test_labels"])
        pair = (data.subset(train, spec.get("subset_n", train.n),
                            spec.get("subset_seed", 0)),
                data.subset(test, test.n, 0))
    else:
        full = data.load_csv(spec["path"])
        pair = data.train_test_split(full, _n_test(spec, full.n), seed=spec.get("seed", 0))
    for name, split in zip(("train", "test"), pair):
        if split.n == 0:
            raise ConfigError(f"dataset: the {name} split has no rows")
    return pair


# ---------------------------------------------------------------------------
# Accounting glue shared by `run` and `account`
# ---------------------------------------------------------------------------


def _opt_config(cfg: RunConfig) -> optimizers.DPSGDConfig:
    """The training-loop config of a run."""
    return optimizers.DPSGDConfig(
        C=cfg.C, sigma=cfg.sigma, b=cfg.b, eta=cfg.eta, epochs=cfg.epochs,
        seed=cfg.seeds["batches"], noise_seed=cfg.seeds["noise"],
    )


def accountant_inputs_for_run(cfg: RunConfig, X: np.ndarray) -> dict:
    """The exact accountant query of a run config on the training rows X."""
    accountant = METHODS[cfg.method][2]
    n, b = len(X), cfg.b
    if accountant == "dpsgd":
        return {"method": "dpsgd", "sigma": cfg.sigma, "q": b / n,
                "T": cfg.epochs * (n // b), "delta": cfg.delta}
    # beta, a statistic of the private rows, is computed for the one bound
    # that reads it: max_j ||x_j||^2 + lam.
    beta = float(np.max(np.sum(X**2, axis=1))) + float(cfg.lam)
    return {
        "method": "noisycgd",
        "L": 2.0 * cfg.C,
        "b": b,
        # noise std in update-equation units, on the mean
        "sigma": _opt_config(cfg).noise_std,
        "eta": cfg.eta,
        "lambda": cfg.lam,
        "beta": beta,
        "k": n // b,
        "E": cfg.epochs,
        "delta": cfg.delta,
    }


def _privacy_curves(inputs: dict, epochs: int = 1) -> Iterable:
    """The delta(eps) curves of the noisy accountant query ``inputs``, one
    after each of ``epochs`` equal parts of its horizon, ``T`` or ``E``. A
    bound that does not apply raises at the call; DP-SGD's first epoch is
    composed at the first ``next``, and each later one as it is taken."""
    method = inputs["method"]
    horizon = {"dpsgd": "T", "noisycgd": "E"}.get(method)
    if horizon is None:
        raise ConfigError(f"unknown accountant method {method!r}")
    part, rest = divmod(inputs[horizon], epochs)
    if rest:
        raise ConfigError(f"{horizon}={inputs[horizon]} is not {epochs} equal epochs")
    if method == "dpsgd":
        # map defers the call to the first next; chain keeps no PLD it passed on.
        return itertools.chain.from_iterable(map(
            acc.account_dpsgd_many, [inputs["sigma"]], [inputs["q"]], [part], [epochs]))
    return [acc.gaussian_profile(acc.noisycgd_mu(acc.NoisyCGDSpec(
        L=inputs["L"], b=inputs["b"], sigma=inputs["sigma"], eta=inputs["eta"],
        lambda_sc=inputs["lambda"], beta_sm=inputs["beta"], k=inputs["k"], E=e * part,
    ))) for e in range(1, epochs + 1)]


def epsilon_from_inputs(inputs: dict, epochs: int = 1) -> list[float]:
    """Epsilons of the accountant query ``inputs`` at its ``delta`` after
    epochs 1..epochs, entry ``e`` that of the inputs cut at epoch ``e``: inf
    without noise, else the search over ``_privacy_curves``."""
    if inputs["sigma"] == 0:
        return [math.inf] * epochs
    # map, unlike a comprehension, frees each curve before the next is built.
    return list(map(acc.find_epsilon, _privacy_curves(inputs, epochs),
                    itertools.repeat(inputs["delta"])))


def _trace_csv(records: list, eps_text) -> str:
    """The per-epoch records as CSV; ``eps_text`` renders the epsilon column."""
    cell = lambda value, text=repr: "" if value is None else text(value)
    return "epoch,test_acc,epsilon\n" + "".join(
        f"{r['epoch']},{cell(r['test_accuracy'])},"
        f"{cell(r.get('epsilon_at_delta'), eps_text)}\n" for r in records)


def _eps_repr(eps: float) -> str:
    """Printed epsilon of a noisy mechanism; "> EPS_MAX" when the search
    cannot bound it (``find_epsilon`` returns inf beyond ``EPS_MAX``)."""
    if eps > acc.EPS_MAX:
        return f"> {acc.EPS_MAX:g}"
    return repr(float(eps))


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


def execute_run(cfg: RunConfig) -> dict:
    """Train and account one run, write its CSV, report and checkpoint, and
    return the report with the paths it wrote under ``outputs``."""
    train, test = load_dataset_pair(cfg.dataset)
    d, k = train.X.shape[1], max(train.num_classes, test.num_classes)

    model, loop, _ = METHODS[cfg.method]
    if model == "dual":
        arrangement = convex_dual.sample_arrangement(d, cfg.P, cfg.seeds["gates"])
        objective = convex_dual.DualObjective(
            arrangement, k=k, lam=float(cfg.lam), loss=cfg.loss
        )
    else:
        objective = baseline_relu.MLPObjective(
            d, k, m=cfg.hidden_m, loss=cfg.loss, lam=float(cfg.lam)
        )
    params0 = objective.init_params(cfg.seeds["init"])

    inputs = accountant_inputs_for_run(cfg, train.X)
    # Only a noise-free run has epsilon "inf"; a noisy one past EPS_MAX prints
    # "> EPS_MAX", in the report and in the CSV alike. A noisy run whose bound
    # does not apply (say NoisyCGD's eta * beta >= 2) is refused before training.
    if inputs["sigma"] == 0:
        eps_text = lambda eps: "inf"
    else:
        eps_text = _eps_repr
        _privacy_curves(inputs)

    eval_fn = lambda params: objective.accuracy(params, test.X, test.labels)
    run = getattr(optimizers, loop)  # at call time: probes patch the module
    params, records = run(objective, params0, train.X, train.labels,
                          _opt_config(cfg), eval_fn=eval_fn)
    # An un-noised, non-DP statistic of the training rows, taken once from the
    # released params, before the epsilon: perfbench books what follows it as writing.
    train_loss = (objective.data_loss(params, train.X, train.labels)
                  + 0.5 * objective.lam * float(params @ params))

    # Per-epoch accounting gives each epoch's record the epsilon of a run
    # stopped there (a NoisyCGD run releases no iterate but the last);
    # otherwise the last record gets the run's.
    epochs = cfg.epochs if cfg.account_every_epoch else 1
    for record, eps in zip(records[-epochs:], epsilon_from_inputs(inputs, epochs)):
        record["epsilon_at_delta"] = eps
    epsilon = records[-1]["epsilon_at_delta"]

    report = {
        "config": cfg.resolved(),
        "accountant_inputs": inputs,
        "epsilon": eps_text(epsilon),
        "delta": cfg.delta,
        "final_train_loss": train_loss,
        "final_test_accuracy": records[-1]["test_accuracy"],
        "n_train": len(train.X),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = os.path.join(cfg.out_dir, cfg.name)
    paths = {"csv": base + ".csv", "json": base + ".json", "model": base + ".model.json"}
    with open(paths["csv"], "w") as fh:
        fh.write(_trace_csv(records, eps_text))
    with open(paths["json"], "w") as fh:
        json.dump(report, fh, indent=2)
    objective.save_checkpoint(params, paths["model"])
    report["outputs"] = paths
    return report


def execute_sweep(path: str, overrides) -> dict:
    """Every point of the config's ``grids``, all validated before any runs."""
    raw = _read_config(path, overrides)
    grids = raw.pop("grids", None)
    if not (isinstance(grids, dict) and grids
            and all(isinstance(v, list) and v for v in grids.values())):
        raise ConfigError("sweep needs a non-empty 'grids' mapping of fields "
                          "to non-empty lists")
    keys = sorted(grids)
    points = []
    for values in itertools.product(*(grids[key] for key in keys)):
        point = copy.deepcopy(raw)  # grid keys may set nested fields
        for key, value in zip(keys, values):
            _set_path(point, key, json.dumps(value))
        cfg = _run_config(dict(point, name=raw.get("name", "run")))
        cfg.name += "-" + "-".join(
            f"{key.replace('.', '_')}{value}" for key, value in zip(keys, values)
        )
        points.append((values, cfg))
    rows = []
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
    out_dir = raw.get("out_dir", RunConfig.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, raw.get("name", "run") + "-sweep.json")
    summary = {"grid_keys": keys, "rows": rows}
    with open(table_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    summary["table_path"] = table_path
    return summary


# ---------------------------------------------------------------------------
# account
# ---------------------------------------------------------------------------


def _account_cmd(args) -> dict:
    """``account <method>``: the options, keyed as a run logs its accountant
    inputs, the epsilon a run with those inputs prints, and, for a noisy
    query, its one curve's own block: the GDP constant for NoisyCGD, the
    PLD's shape for DP-SGD."""
    inputs = {key: value for key, value in vars(args).items() if key != "command"}
    if inputs["sigma"] == 0:  # as epsilon_from_inputs: no noise, no curve
        return dict(inputs, epsilon="inf")
    [curve] = _privacy_curves(inputs)
    report = dict(inputs, epsilon=_eps_repr(acc.find_epsilon(curve, inputs["delta"])))
    if inputs["method"] == "noisycgd":
        return dict(report, mu_gdp=curve.delta.args[0])
    losses = curve.losses
    return dict(report, pld={
        "grid_step": curve.loss_grid_step,
        "support_min": curve.loss_grid_origin,
        "support_max": losses[-1],
        "points": len(curve.masses),
        "truncation_mass": curve.infinity_mass,
        "finite_mass": float(curve.masses.sum()),
        "mean_loss": float(losses @ curve.masses),
    })


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    """argparse type of the accounting options: a float that is not nan or ±inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


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
    # The parsed options, bar "command", are the accountant inputs a run logs.
    acc_sub = account_p.add_subparsers(dest="method", required=True)

    dpsgd_p = acc_sub.add_parser("dpsgd")
    dpsgd_p.add_argument("--sigma", type=finite_float, required=True)
    dpsgd_p.add_argument("--q", type=finite_float, required=True)
    dpsgd_p.add_argument("--T", type=int, required=True)
    dpsgd_p.add_argument("--delta", type=finite_float, default=1e-5)

    cgd_p = acc_sub.add_parser("noisycgd")
    cgd_p.add_argument("--L", type=finite_float, required=True)
    cgd_p.add_argument("--b", type=int, required=True)
    cgd_p.add_argument("--sigma", type=finite_float, required=True)
    cgd_p.add_argument("--eta", type=finite_float, required=True)
    cgd_p.add_argument("--lambda", type=finite_float, required=True)
    cgd_p.add_argument("--beta", type=finite_float, required=True)
    cgd_p.add_argument("--k", type=int, required=True)
    cgd_p.add_argument("--E", type=int, required=True)
    cgd_p.add_argument("--delta", type=finite_float, default=1e-5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _run_config(_read_config(args.config, args.overrides))
            if args.emit_config:
                print(json.dumps(cfg.resolved(), indent=2))
                return 0
            print(json.dumps(execute_run(cfg), indent=2))
        elif args.command == "sweep":
            summary = execute_sweep(args.config, args.overrides)
            print(json.dumps(summary, indent=2))
        elif args.command == "account":
            print(json.dumps(_account_cmd(args), indent=2))
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
