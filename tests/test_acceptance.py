"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (bypassing capture) with the measured quantity and tolerance.

Criteria 1-4 cover the accountant, 5-9 the convexified model, 11-12 the
end-to-end harness. Criterion 10, the DP-GD band projection against a
brute-force QP, was retired with DP-GD; the later criteria keep their
numbers.
"""
import math
import time

import numpy as np
import pytest

from convexdp import accountant as acc
from convexdp import cli
from convexdp import convex_dual as cd
from convexdp import data
from convexdp import optimizers as opt

import oracles
from test_accountant import phi
from test_baseline_relu import init_mlp
from test_convex_dual import compute_masks, loss_of, with_V, make_model


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gaussian_closed_form(capsys):
    start = time.perf_counter()
    err1 = abs(acc.gaussian_delta(1.0, 1.0) - 0.126936)
    err2 = max(
        abs(acc.gaussian_delta(mu, 0.0) - (2.0 * phi(mu / 2.0) - 1.0))
        for mu in (0.1, 1.0, 3.0)
    )
    elapsed = time.perf_counter() - start
    ok = err1 <= 1e-5 and err2 <= 1e-10 and elapsed < 1.0
    report(capsys, 1, ok,
           f"gaussian_delta(1,1) err {err1:.2e} (tol 1e-5); "
           f"delta(mu,0) err {err2:.2e} (tol 1e-10); {elapsed:.3f}s (< 1s)")


def test_criterion_02_composition_oracle(capsys):
    start = time.perf_counter()
    grid = np.arange(-2.0, 2.0 + 5e-4, 1e-3)
    pld = acc.connect_the_dots(acc.gaussian_profile(0.1), grid)
    comp = acc.compose_pld(pld, 100)
    worst = max(
        abs(acc.pld_delta(comp, eps) - acc.gaussian_delta(1.0, eps))
        for eps in (0.5, 1.0, 2.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    report(capsys, 2, ok,
           f"T=100 composition of mu=0.1 vs closed-form mu=1.0: max |ddelta| "
           f"{worst:.2e} (tol 1e-3); {elapsed:.2f}s (< 10s)")


def test_criterion_03_domination_and_degenerate_subsampling(capsys):
    mu = 0.8
    profile = acc.gaussian_profile(mu)
    pld = acc.connect_the_dots(profile, np.arange(-4.0, 4.0 + 5e-4, 1e-3))
    eps = np.random.default_rng(0).uniform(-3.9, 3.9, size=1000)
    gap = min(
        acc.pld_delta(pld, float(e)) - profile.delta(float(e)) for e in eps
    )
    alphas = np.linspace(0.0, 6.0, 100)
    with np.errstate(divide="ignore"):
        sub_err = float(np.max(np.abs(
            acc.subsampled_profile(1.0, 1.0, alphas) - acc.gaussian_delta(1.0, np.log(alphas))
        )))
    ok = gap >= -1e-10 and sub_err <= 1e-10
    report(capsys, 3, ok,
           f"discretized profile domination: min gap {gap:.2e} (>= -1e-10); "
           f"q=1 vs base hockey-stick: max err {sub_err:.2e} (tol 1e-10)")


def test_criterion_04_noisycgd_bound(capsys):
    mk = lambda E: acc.NoisyCGDSpec(L=1.0, b=10, sigma=2.0, eta=0.5,
                                    lambda_sc=1.0, beta_sm=1.0, k=2, E=E)
    exact_e1 = acc.noisycgd_mu(mk(1)) == 1.0 / 20.0
    worked_err = abs(acc.noisycgd_mu(mk(2)) - 0.054772)
    mus = [acc.noisycgd_mu(mk(E)) for E in range(1, 51)]
    monotone = all(a <= b + 1e-15 for a, b in zip(mus, mus[1:]))
    ok = exact_e1 and worked_err <= 1e-6 and monotone
    report(capsys, 4, ok,
           f"E=1 mu exact: {exact_e1}; worked point err {worked_err:.2e} "
           f"(tol 1e-6); monotone over E=1..50: {monotone}")


def test_criterion_05_gradient_correctness(capsys):
    rng = np.random.default_rng(0)
    h = 1e-6
    worst_dual = 0.0
    for trial in range(100):
        kind = ("mse", "ce")[trial % 2]
        model = make_model(seed=trial)
        x = rng.standard_normal(4)
        bits = (model.arrangement.U @ x >= 0).astype(float)
        y = rng.standard_normal(2) if kind == "mse" else rng.integers(0, 2)
        res = (oracles.sample_loss_mse if kind == "mse" else oracles.sample_loss_ce)(
            model, x, y, bits
        )
        direction = rng.standard_normal(model.V.shape)
        direction /= np.linalg.norm(direction)
        numeric = (
            loss_of(with_V(model, model.V + h * direction), x, y, bits, kind)
            - loss_of(with_V(model, model.V - h * direction), x, y, bits, kind)
        ) / (2.0 * h)
        analytic = float(np.sum(res.gradient * direction))
        worst_dual = max(
            worst_dual,
            abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8),
        )

    worst_mlp = 0.0
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        net = init_mlp(4, 2, m=5, seed=trial)
        x = rng.standard_normal(4)
        if np.min(np.abs(net.U @ x)) < 1e-3:  # stay away from relu kinks
            continue
        checked += 1
        y = int(rng.integers(0, 2))
        grad = oracles.mlp_per_sample_grad(net, x, y, "ce")
        direction = rng.standard_normal(grad.shape)
        direction /= np.linalg.norm(direction)
        dU, dA = direction[:20].reshape(5, 4), direction[20:].reshape(5, 2)

        def ce(t):
            out = oracles.mlp_forward(oracles.MLP(U=net.U + t * dU, A=net.A + t * dA), x)
            s = out - out.max()
            return float(np.log(np.exp(s).sum()) - s[y])

        numeric = (ce(h) - ce(-h)) / (2.0 * h)
        analytic = float(grad @ direction)
        worst_mlp = max(
            worst_mlp,
            abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8),
        )
    ok = worst_dual <= 1e-5 and worst_mlp <= 1e-4
    report(capsys, 5, ok,
           f"dual grad vs finite diff: worst rel err {worst_dual:.2e} "
           f"(tol 1e-5, 100 instances); MLP off-kink: {worst_mlp:.2e} (tol 1e-4)")


def test_criterion_06_convexity_smoothness(capsys):
    rng = np.random.default_rng(7)
    lam = 0.3
    worst_sc = -math.inf
    for trial in range(1000):
        kind = ("mse", "ce")[trial % 2]
        arr = cd.sample_arrangement(3, 2, trial)
        x = rng.standard_normal(3)
        bits = (arr.U @ x >= 0).astype(float)
        y = rng.standard_normal(2) if kind == "mse" else rng.integers(0, 2)
        V1, V2 = rng.standard_normal((2, 2, 3, 2))
        t = rng.uniform(0.0, 1.0)
        f = lambda V: loss_of(
            oracles.DualModel(arrangement=arr, V=V, lam=lam), x, y, bits, kind
        )
        gap = 0.5 * lam * t * (1 - t) * float(np.sum((V1 - V2) ** 2))
        worst_sc = max(worst_sc,
                       f(t * V1 + (1 - t) * V2) - (t * f(V1) + (1 - t) * f(V2) - gap))

    worst_lip = -math.inf
    for trial in range(1000):
        arr = cd.sample_arrangement(3, 2, 5000 + trial)
        x = rng.standard_normal(3)
        bits = (arr.U @ x >= 0).astype(float)
        y = rng.standard_normal(2)
        V1 = rng.standard_normal((2, 3, 2))
        V2 = V1.copy()
        i = rng.integers(0, 2)
        V2[i] = rng.standard_normal((3, 2))  # perturb a single gate block
        mk = lambda V: oracles.sample_loss_mse(
            oracles.DualModel(arrangement=arr, V=V, lam=lam), x, y, bits
        ).gradient
        lhs = float(np.linalg.norm((mk(V1) - mk(V2))[i].ravel()))
        rhs = oracles.lipschitz_beta(x, lam) * float(np.linalg.norm((V1 - V2).ravel()))
        worst_lip = max(worst_lip, lhs - rhs)
    ok = worst_sc <= 1e-9 and worst_lip <= 1e-9
    report(capsys, 6, ok,
           f"strong-convexity segment violation {worst_sc:.2e} (tol 1e-9, "
           f"10^3 triples); (||x||^2+lam) gate-block Lipschitz violation "
           f"{worst_lip:.2e} (tol 1e-9, 10^3 pairs)")


def test_criterion_07_interpolation(capsys):
    n, d, P = 64, 16, 32
    full_rank = 0
    worst_resid = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        arr = cd.sample_arrangement(d, P, 1000 + seed)
        bits = compute_masks(X, arr).astype(float)
        stacked = np.hstack([bits[:, [i]] * X for i in range(P)])  # (n, P*d)
        if np.linalg.matrix_rank(stacked) < n:
            continue
        full_rank += 1
        y = rng.standard_normal(n)
        coef, *_ = np.linalg.lstsq(stacked, y, rcond=None)
        worst_resid = max(worst_resid, float(np.linalg.norm(stacked @ coef - y)))
    ok = full_rank >= 1 and worst_resid <= 1e-6
    report(capsys, 7, ok,
           f"stacked masked features full rank in {full_rank}/20 seeds; worst "
           f"interpolation residual {worst_resid:.2e} (tol 1e-6)")


def test_criterion_08_duality_direction(capsys):
    rng = np.random.default_rng(9)
    worst_slack = math.inf
    worst_gap = -math.inf
    worst_eq = 0.0
    for _ in range(20):
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        while True:
            W = rng.standard_normal((3, 2))
            pats = [tuple(bool(v) for v in (X @ u >= 0)) for u in W]
            if len(set(pats)) == 3:
                break
        a = rng.standard_normal(3)
        a[a == 0] = 1.0
        net = oracles.ReLUNetSpec(weights=W, alphas=a, lam=0.05)
        res = oracles.embed_relu_into_dual(net, X, y)
        worst_slack = min(worst_slack, res.min_constraint_slack)
        worst_gap = max(worst_gap, res.dual_objective - res.relu_objective)
        worst_eq = max(worst_eq, abs(res.dual_objective - res.relu_objective))
    ok = worst_slack >= -1e-10 and worst_gap <= 1e-8 and worst_eq <= 1e-8
    report(capsys, 8, ok,
           f"feasibility slack >= {worst_slack:.2e} (>= -1e-10); dual - relu "
           f"<= {worst_gap:.2e} (tol 1e-8); equality gap {worst_eq:.2e} for "
           f"distinct patterns (20 instances)")


def test_criterion_09_young_scaling(capsys):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(int(rng.integers(1, 6)))
        while np.linalg.norm(u) == 0:
            u = rng.standard_normal(3)
        alpha = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
        lam = float(rng.uniform(0.01, 2.0))
        numeric, closed = oracles.young_scaling_gap(u, alpha, lam)
        worst = max(worst, abs(numeric - closed))
    ok = worst <= 1e-8
    report(capsys, 9, ok,
           f"numeric rescaling minimum vs lam*||u||^2*alpha^2: worst gap "
           f"{worst:.2e} (tol 1e-8, 100 instances)")


def _desk_scale_data():
    # No IDX corpus ships with the repository, so the documented synthetic
    # fallback applies: a stratifiable nonlinear task at the same n and batch
    # geometry (6000 training rows, b = 100).
    full = data.synthetic_gaussian(7000, 10, rule="norm_threshold", seed=0)
    train, test = data.train_test_split(full, 1000, seed=1)
    return train, test


def test_criterion_11_end_to_end_self_consistency(capsys, tmp_path, monkeypatch):
    train, test = _desk_scale_data()
    Xtr, Xte = train.X, test.X
    lam, d = 1e-3, Xtr.shape[1]

    # (a) non-private SGD: convexified model vs lambda-matched linear model
    # (a single always-open gate), trained with the identical configuration.
    dual = cd.DualObjective(cd.sample_arrangement(d, 32, 0), k=2, lam=lam,
                            loss="ce")
    linear = cd.DualObjective(
        cd.Arrangement(U=np.zeros((1, d)), seed=0), k=2, lam=lam,
        loss="ce",
    )
    cfg = opt.DPSGDConfig(C=1e9, sigma=0.0, b=100, eta=0.05, epochs=20,
                          seed=2, noise_seed=3)
    acc_of = {}
    for name, obj in (("dual", dual), ("linear", linear)):
        params, _ = opt.dpsgd_run(obj, obj.init_params(1), Xtr, train.labels, cfg)
        acc_of[name] = obj.accuracy(params, Xte, test.labels)

    # (b) DP-SGD: the harness-reported epsilon vs a standalone accountant call
    run_cfg = dict(
        method="dual-dpsgd",
        dataset={"kind": "synthetic", "n": 6000, "d": 10, "n_test": 1000,
                 "rule": "norm_threshold", "seed": 0},
        epochs=20, C=1.0, sigma=2.0, b=100, eta=0.05, lam=lam, P=32,
        loss="ce", name="acceptance",
    )
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    report_sgd = cli.execute_run(cli.RunConfig(**run_cfg))
    n = report_sgd["n_train"]
    eps_direct = acc.find_epsilon(
        acc.account_dpsgd(2.0, 100 / n, 20 * (n // 100)), 1e-5
    )
    sgd_gap = abs(float(report_sgd["epsilon"]) - eps_direct)

    # (c) NoisyCGD: harness epsilon vs mu-GDP bound + closed-form conversion
    report_cgd = cli.execute_run(cli.RunConfig(**dict(run_cfg, method="dual-noisycgd")))
    inputs = report_cgd["accountant_inputs"]
    mu = acc.noisycgd_mu(acc.NoisyCGDSpec(
        L=inputs["L"], b=inputs["b"], sigma=inputs["sigma"], eta=inputs["eta"],
        lambda_sc=inputs["lambda"], beta_sm=inputs["beta"], k=inputs["k"],
        E=inputs["E"],
    ))
    cgd_gap = abs(
        float(report_cgd["epsilon"])
        - acc.find_epsilon(acc.gaussian_profile(mu), 1e-5)
    )

    ok = acc_of["dual"] > acc_of["linear"] and sgd_gap <= 1e-9 and cgd_gap <= 1e-9
    report(capsys, 11, ok,
           f"non-private test acc: dual {acc_of['dual']:.3f} > linear "
           f"{acc_of['linear']:.3f}; DP-SGD eps gap {sgd_gap:.1e} (tol 1e-9); "
           f"NoisyCGD eps gap {cgd_gap:.1e} (tol 1e-9)")


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "method": "dual-dpsgd",
        "dataset": {"kind": "synthetic", "n": 300, "d": 6, "n_test": 100,
                    "rule": "norm_threshold", "seed": 3},
        "epochs": 3, "C": 1.0, "sigma": 1.5, "b": 50, "eta": 0.05,
        "lam": 1e-3, "P": 16, "loss": "ce", "name": "det",
    }))
    traces = []
    for sub in ("a", "b"):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / sub))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        traces.append((tmp_path / sub / "det.csv").read_bytes())
    ok = traces[0] == traces[1]
    report(capsys, 12, ok,
           f"repeated run CSV traces bit-identical: {ok} "
           f"({len(traces[0])} bytes)")
