"""Accountant tests against independent oracles.

Oracles used here deliberately avoid the code paths under test:

* Gaussian CDF values come from math.erfc (the implementation uses
  scipy.special.ndtr / log_ndtr).
* Hockey-stick divergences, including the subsampled mixtures, are checked
  against direct numeric quadrature of the defining integral
  H_alpha(P || Q) = integral of [p - alpha*q]_+.
* Composition is checked against the closed-form Gaussian profile, which
  composes exactly (T copies of mu-GDP are sqrt(T)*mu-GDP).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from convexdp import accountant as acc
from convexdp.errors import DomainError, NumericError


def phi(x: float) -> float:
    # Standard normal CDF via erfc; independent of scipy.special.ndtr.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_delta_oracle(mu: float, eps: float) -> float:
    return phi(-eps / mu + mu / 2.0) - math.exp(eps) * phi(-eps / mu - mu / 2.0)


def normal_pdf(x, mean):
    return np.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)


def hockey_stick_quadrature(alpha, mu, q_up=None, q_down=None):
    """H_alpha between (mixtures of) N(mu,1) and N(0,1) by quadrature.

    q_up mixes the first argument: q*P + (1-q)*Q vs Q.
    q_down mixes the second: P vs q*Q + (1-q)*P.
    """
    if q_up is not None:
        p = lambda x: q_up * normal_pdf(x, mu) + (1 - q_up) * normal_pdf(x, 0.0)
        q = lambda x: normal_pdf(x, 0.0)
    elif q_down is not None:
        p = lambda x: normal_pdf(x, mu)
        q = lambda x: q_down * normal_pdf(x, 0.0) + (1 - q_down) * normal_pdf(x, mu)
    else:
        p = lambda x: normal_pdf(x, mu)
        q = lambda x: normal_pdf(x, 0.0)
    lo, hi = -12.0 + min(0.0, mu), 12.0 + max(0.0, mu)
    f = lambda x: p(x) - alpha * q(x)
    # locate the kinks of [f]_+ (sign changes of f) so quad can split there
    xs = np.linspace(lo, hi, 4001)
    fs = np.array([f(x) for x in xs])
    kinks = [
        brentq(f, xs[i], xs[i + 1])
        for i in range(len(xs) - 1)
        if fs[i] * fs[i + 1] < 0
    ]
    val, err = quad(
        lambda x: max(f(x), 0.0), lo, hi, points=kinks or None, limit=400,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert err < 1e-9
    return val


# ---------------------------------------------------------------------------
# Closed-form Gaussian profile
# ---------------------------------------------------------------------------


def test_gaussian_delta_known_value():
    # [DERIVED] frozen from the erfc oracle above; cross-checked against
    # quadrature of the hockey-stick integral at alpha = e (agrees to 5e-9,
    # the quadrature error bound).
    assert acc.gaussian_delta(1.0, 1.0) == pytest.approx(0.1269367375066439, abs=1e-12)


def test_gaussian_delta_at_eps_zero():
    # [TRIVIAL] delta(0) = Phi(mu/2) - Phi(-mu/2) = 2*Phi(mu/2) - 1.
    for mu in (0.1, 1.0, 3.0):
        assert acc.gaussian_delta(mu, 0.0) == pytest.approx(
            2.0 * phi(mu / 2.0) - 1.0, abs=1e-12
        )


def test_gaussian_delta_matches_oracle_grid():
    for mu in (0.1, 0.5, 1.0, 3.0):
        for eps in (0.0, 0.3, 1.0, 4.0):
            assert acc.gaussian_delta(mu, eps) == pytest.approx(
                gaussian_delta_oracle(mu, eps), abs=1e-12
            )


def test_gaussian_delta_large_eps_stable():
    # log-space tail: naive evaluation returns garbage or NaN here.
    val = acc.gaussian_delta(1.0, 40.0)
    assert 0.0 <= val < 1e-100


@given(
    mu=st.floats(0.01, 10.0),
    eps1=st.floats(0.0, 20.0),
    eps2=st.floats(0.0, 20.0),
)
def test_gaussian_profile_monotone_and_bounded(mu, eps1, eps2):
    lo, hi = sorted((eps1, eps2))
    d_lo, d_hi = acc.gaussian_delta(mu, lo), acc.gaussian_delta(mu, hi)
    assert 0.0 <= d_hi <= d_lo <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# Hockey-stick divergences and subsampling
# ---------------------------------------------------------------------------


def test_hockey_stick_gaussian_known_value():
    # [TRIVIAL] alpha = 1 gives total variation = 2*Phi(mu/2) - 1.
    assert acc.hockey_stick_gaussian(1.0, 1.0) == pytest.approx(
        2.0 * phi(0.5) - 1.0, abs=1e-12
    )


def test_hockey_stick_gaussian_vs_quadrature():
    for mu in (0.2, 1.0, 2.5):
        for alpha in (0.0, 0.3, 1.0, 2.0, 7.0):
            assert acc.hockey_stick_gaussian(alpha, mu) == pytest.approx(
                hockey_stick_quadrature(alpha, mu), abs=1e-8
            )


def test_subsampled_profile_vs_quadrature():
    # [DERIVED] the closed-form mixture factorization against the defining
    # integrals of both mixture directions.
    for mu, q in ((1.0, 0.1), (0.5, 0.02), (2.0, 0.5)):
        spec = acc.SubsampledSpec(base=acc.GaussianPairSpec(mu=mu), q=q)
        for alpha in (0.5, 0.9, 1.0, 1.3, 2.0, 5.0):
            up = hockey_stick_quadrature(alpha, mu, q_up=q)
            down = hockey_stick_quadrature(alpha, mu, q_down=q)
            assert acc.subsampled_profile(spec, alpha) == pytest.approx(
                max(up, down), abs=1e-8
            )


def test_subsampled_q1_degenerates_to_base():
    spec = acc.SubsampledSpec(base=acc.GaussianPairSpec(mu=1.0), q=1.0)
    alphas = np.linspace(0.0, 6.0, 100)
    got = acc.subsampled_profile(spec, alphas)
    want = acc.hockey_stick_gaussian(alphas, 1.0)
    np.testing.assert_allclose(got, want, atol=1e-10)


@given(
    mu=st.floats(0.05, 5.0),
    q=st.floats(0.001, 1.0),
    a1=st.floats(0.0, 10.0),
    a2=st.floats(0.0, 10.0),
)
def test_subsampled_profile_valid_divergence(mu, q, a1, a2):
    spec = acc.SubsampledSpec(base=acc.GaussianPairSpec(mu=mu), q=q)
    lo, hi = sorted((a1, a2))
    h_lo, h_hi = (float(acc.subsampled_profile(spec, a)) for a in (lo, hi))
    # non-increasing in alpha, bounded by [0, 1], and at most the base
    # divergence (subsampling only shrinks distinguishability)
    assert 0.0 <= h_hi <= h_lo + 1e-12
    assert h_lo <= 1.0 + 1e-12
    assert h_lo <= float(acc.hockey_stick_gaussian(lo, mu)) + 1e-12


# ---------------------------------------------------------------------------
# Discretization: connect-the-dots
# ---------------------------------------------------------------------------


def make_gaussian_pld(mu=0.5, step=1e-3, width=4.0):
    grid = np.arange(-width, width + step / 2, step)
    return acc.connect_the_dots(acc.gaussian_profile(mu), grid)


def test_ctd_normalization_and_signs():
    pld = make_gaussian_pld()
    assert np.all(pld.masses >= 0.0)
    assert pld.masses.sum() + pld.infinity_mass == pytest.approx(1.0, abs=1e-12)


def test_ctd_reproduces_profile_on_grid():
    # On grid points the discrete profile equals the input profile exactly
    # (up to roundoff): that is the defining property of the construction.
    mu, step = 0.5, 1e-3
    grid = np.arange(-4.0, 4.0 + step / 2, step)
    pld = acc.connect_the_dots(acc.gaussian_profile(mu), grid)
    for eps in (0.0, 0.25, 1.0, 2.5):
        assert acc.pld_delta(pld, eps) == pytest.approx(
            acc.gaussian_delta(mu, eps), abs=1e-9
        )


def test_ctd_dominates_off_grid():
    mu = 0.8
    profile = acc.gaussian_profile(mu)
    pld = make_gaussian_pld(mu=mu)
    rng = np.random.default_rng(0)
    eps = rng.uniform(-3.9, 3.9, size=1000)
    hat = np.array([acc.pld_delta(pld, e) for e in eps])
    true = profile.delta_array(eps)
    assert np.min(hat - true) >= -1e-10


def test_ctd_rejects_decreasing_grid():
    with pytest.raises(DomainError):
        acc.connect_the_dots(acc.gaussian_profile(1.0), np.array([1.0, 0.0]))


@given(mu=st.floats(0.05, 3.0), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_ctd_domination_property(mu, seed):
    profile = acc.gaussian_profile(mu)
    pld = acc.connect_the_dots(
        profile, np.arange(-4.0, 4.0 + 5e-4, 1e-3) * max(1.0, mu)
    )
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-3.5 * max(1.0, mu), 3.5 * max(1.0, mu), size=50)
    for e in eps:
        assert acc.pld_delta(pld, float(e)) >= profile.delta(float(e)) - 1e-10


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_identity():
    pld = make_gaussian_pld()
    out = acc.compose_pld(pld, 1)
    np.testing.assert_array_equal(out.masses, pld.masses)
    assert out.loss_grid_origin == pld.loss_grid_origin
    assert out.infinity_mass == pld.infinity_mass


def test_compose_gaussian_100_matches_closed_form():
    # 100 copies of a mu=0.1 pair compose to exactly mu=1.0.
    pld = make_gaussian_pld(mu=0.1, step=1e-3, width=2.0)
    comp = acc.compose_pld(pld, 100)
    for eps in (0.5, 1.0, 2.0):
        assert acc.pld_delta(comp, eps) == pytest.approx(
            acc.gaussian_delta(1.0, eps), abs=1e-3
        )


def test_compose_dominates_closed_form():
    # Discretization and truncation are pessimistic, so the composed
    # delta must sit above the exact closed form at every eps.
    pld = make_gaussian_pld(mu=0.1, step=1e-3, width=2.0)
    comp = acc.compose_pld(pld, 100)
    for eps in np.linspace(0.0, 3.0, 31):
        assert acc.pld_delta(comp, float(eps)) >= acc.gaussian_delta(1.0, float(eps)) - 1e-10


def test_compose_infinity_mass_rule():
    pld = make_gaussian_pld(mu=0.5, width=1.0)  # narrow grid -> real m_inf
    assert pld.infinity_mass > 0.0
    comp = acc.compose_pld(pld, 7)
    assert comp.infinity_mass == pytest.approx(
        1.0 - (1.0 - pld.infinity_mass) ** 7, rel=1e-9
    )


def test_compose_keeps_tiny_infinity_mass():
    # An atom far below the float spacing near 1 must still add up over T
    # copies; 1 - (1 - a)(1 - b) rounded it to exactly zero.
    pld = acc.DiscretePLD(-0.1, 0.1, np.array([0.25, 0.5, 0.25]), 1e-17)
    for T in (2, 7):
        assert acc.compose_pld(pld, T).infinity_mass >= T * 1e-17 * (1 - 1e-9)


def test_compose_resource_limit(monkeypatch):
    pld = make_gaussian_pld()
    monkeypatch.setattr(acc, "MAX_LEN", 4096)
    with pytest.raises(NumericError):
        acc.compose_pld(pld, 64)


@given(Ts=st.lists(st.integers(1, 40), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_compose_shared_powers_matches_fresh(Ts):
    # A shared chain of squares must not change any horizon's result.
    pld = make_gaussian_pld(mu=0.5, step=1e-2, width=1.0)  # real m_inf
    powers = []
    for T in Ts:
        shared = acc.compose_pld(pld, T, powers=powers)
        fresh = acc.compose_pld(pld, T)
        np.testing.assert_array_equal(shared.masses, fresh.masses)
        assert shared.loss_grid_origin == fresh.loss_grid_origin
        assert shared.infinity_mass == fresh.infinity_mass


def test_compose_infinity_mass_excess_bounded():
    # Each convolution sheds at most TRIM_TOL of right tail into the atom,
    # and composing two PLDs adds their excesses, so T copies exceed the
    # exact 1 - (1 - m_inf)^T by at most (T - 1) * TRIM_TOL, plus the
    # rounding of a + b - ab at each multiply. The support cap, which also
    # feeds the atom, does not bind for these horizons.
    step = acc.account_dpsgd(2.0, 1 / 60, 1).pld
    gauss = make_gaussian_pld(mu=0.5, width=1.0)
    for pld, T in [(step, T) for T in (2, 7, 60, 1200)] + [(gauss, 7), (gauss, 60)]:
        powers = []
        comp = acc.compose_pld(pld, T, powers=powers)
        multiplies = len(powers) - 1 + bin(T).count("1") - 1
        exact = -math.expm1(T * math.log1p(-pld.infinity_mass))
        slack = multiplies * 4 * np.finfo(float).eps
        assert comp.infinity_mass <= exact + (T - 1) * acc.TRIM_TOL + slack


def test_composed_support_tracks_mass():
    # Without the tail trim, FFT round-off grew every composed PLD to the
    # whole +-64 support cap: 128 000 points on this grid.
    assert len(acc.account_dpsgd(2.0, 1 / 60, 1200).pld.masses) < 32768


def test_pld_delta_matches_masked_sum():
    # Reference: the boolean-mask form of m_inf + sum_{l > eps} (1 - e^{eps-l}) p.
    pld = acc.account_dpsgd(2.0, 0.05, 50).pld
    losses = pld.loss_grid_origin + pld.loss_grid_step * np.arange(len(pld.masses))
    probes = np.concatenate([
        np.linspace(losses[0] - 1.0, losses[-1] + 1.0, 97), losses[::501], losses[-1:]
    ])
    for eps in probes:
        above = losses > eps
        want = pld.infinity_mass + (
            (1.0 - np.exp(eps - losses[above])) * pld.masses[above]
        ).sum()
        assert acc.pld_delta(pld, float(eps)) == min(max(float(want), 0.0), 1.0)


# ---------------------------------------------------------------------------
# DP-SGD end-to-end accounting
# ---------------------------------------------------------------------------


def test_account_dpsgd_q1_single_step_is_gaussian():
    profile = acc.account_dpsgd(2.0, 1.0, 1)
    for eps in (0.1, 0.5, 1.0, 2.0):
        exact = acc.gaussian_delta(1.0, eps)  # mu = 2/sigma = 1
        got = profile.delta(eps)
        assert got == pytest.approx(exact, abs=1e-6)
        assert got >= exact - 1e-10  # domination up to grid roundoff


def test_account_dpsgd_grid_self_consistency():
    # Halving the grid step moves epsilon by well under 1%.
    delta = 1e-5
    eps_coarse = acc.find_epsilon(acc.account_dpsgd(2.0, 0.01, 1000), delta)
    eps_fine = acc.find_epsilon(
        acc.account_dpsgd(2.0, 0.01, 1000, grid_step=5e-4), delta
    )
    assert abs(eps_coarse - eps_fine) / eps_fine < 0.01


def test_account_dpsgd_monotone_in_T():
    eps = [
        acc.find_epsilon(acc.account_dpsgd(2.0, 0.05, T), 1e-5)
        for T in (10, 100, 1000)
    ]
    assert eps[0] < eps[1] < eps[2]


def test_find_epsilon_roundtrip():
    profile = acc.gaussian_profile(1.0)
    target = acc.gaussian_delta(1.0, 1.0)
    assert acc.find_epsilon(profile, target) == pytest.approx(1.0, abs=1e-6)


@given(mu=st.floats(0.05, 6.0), log10_delta=st.floats(-10.0, -1.0))
@settings(max_examples=60, deadline=None)
def test_find_epsilon_meets_target_gaussian(mu, log10_delta):
    profile = acc.gaussian_profile(mu)
    delta = 10.0**log10_delta
    eps = acc.find_epsilon(profile, delta)
    assert math.isinf(eps) or profile.delta(eps) <= delta


@given(
    sigma=st.floats(0.8, 4.0),
    q=st.floats(0.005, 0.3),
    T=st.integers(1, 64),
    log10_delta=st.floats(-8.0, -2.0),
)
@settings(max_examples=15, deadline=None)
def test_find_epsilon_meets_target_dpsgd(sigma, q, T, log10_delta):
    profile = acc.account_dpsgd(sigma, q, T)
    delta = 10.0**log10_delta
    eps = acc.find_epsilon(profile, delta)
    assert math.isinf(eps) or profile.delta(eps) <= delta


def test_find_epsilon_edge_cases():
    profile = acc.gaussian_profile(1.0)
    assert acc.find_epsilon(profile, 0.9) == 0.0  # delta(0) ~ 0.38 < 0.9
    assert math.isinf(acc.find_epsilon(profile, 1e-300))
    with pytest.raises(DomainError):
        acc.find_epsilon(profile, 0.0)


# ---------------------------------------------------------------------------
# NoisyCGD GDP bound and RDP conversion
# ---------------------------------------------------------------------------


def _cgd_spec(**kw):
    base = dict(L=1.0, b=10, sigma=2.0, eta=0.5, lambda_sc=1.0, beta_sm=1.0,
                k=2, E=2)
    base.update(kw)
    return acc.NoisyCGDSpec(**base)


def test_noisycgd_single_epoch_exact():
    # E = 1: one pass over disjoint batches is a single Gaussian release
    # per record, mu = L / (b * sigma), with no iteration amplification term.
    for L, b, sigma in ((1.0, 10, 2.0), (2.0, 4, 0.5)):
        spec = _cgd_spec(L=L, b=b, sigma=sigma, E=1)
        assert acc.noisycgd_mu(spec) == L / (b * sigma)


def test_noisycgd_worked_point():
    # [DERIVED] contraction c = max(|1-eta*lam|, |1-eta*beta|) = 0.5 at
    # eta=0.5, lam=beta=1; k=2, E=2 gives mu = 0.05 * sqrt(1.2) by hand:
    # 1 + c^2 * (1-c^2)/(1-c^2)^2 * (1-c^2)/(1+c^2) = 1 + 0.25*(0.75/0.5625)*(0.6) = 1.2
    spec = _cgd_spec()
    assert acc.noisycgd_mu(spec) == pytest.approx(0.05 * math.sqrt(1.2), abs=1e-12)
    assert acc.noisycgd_mu(spec) == pytest.approx(0.054772, abs=1e-6)


def test_noisycgd_monotone_in_epochs():
    mus = [acc.noisycgd_mu(_cgd_spec(E=E)) for E in range(1, 51)]
    assert all(a <= b + 1e-15 for a, b in zip(mus, mus[1:]))


def test_noisycgd_spec_validation():
    with pytest.raises(DomainError):
        _cgd_spec(eta=2.5)  # eta >= 2/beta
    with pytest.raises(DomainError):
        _cgd_spec(lambda_sc=2.0)  # lambda > beta
    with pytest.raises(DomainError):
        _cgd_spec(sigma=0.0)


def test_rdp_to_dp_known_value():
    # [TRIVIAL] alpha=2, eps_rdp=eps=1: exp(0)/2 * (1/2)^1 = 0.25.
    assert acc.rdp_to_dp(2.0, 1.0, 1.0) == pytest.approx(0.25, abs=1e-15)


@given(
    alpha=st.floats(1.001, 64.0),
    eps_rdp=st.floats(0.0, 8.0),
    eps=st.floats(0.0, 16.0),
)
def test_rdp_to_dp_is_probability(alpha, eps_rdp, eps):
    val = acc.rdp_to_dp(alpha, eps_rdp, eps)
    assert 0.0 <= val <= 1.0
