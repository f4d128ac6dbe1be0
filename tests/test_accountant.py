"""Accountant tests against independent oracles.

Oracles used here deliberately avoid the code paths under test:

* Gaussian CDF values come from math.erfc. The implementation's own
  ``ndtr`` / ``log_ndtr`` (Cephes rational forms for arrays, math.erfc for
  scalars) are checked against scipy.special.
* Hockey-stick divergences, including the subsampled mixtures, are checked
  against direct numeric quadrature of the defining integral
  H_alpha(P || Q) = integral of [p - alpha*q]_+.
* Composition is checked against the closed-form Gaussian profile, which
  composes exactly (T copies of mu-GDP are sqrt(T)*mu-GDP).
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.signal import fftconvolve as scipy_fftconvolve

from convexdp import accountant as acc
from convexdp.errors import DomainError, NumericError, ResourceError

import oracles


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
# Standard normal CDF, against scipy.special (which the accountant called
# before it had its own): a wrong coefficient, branch boundary or sign in
# either path shows as an error far above these bounds.
# ---------------------------------------------------------------------------

# t = -x/sqrt(2) crosses a branch of the Cephes forms at |t| = 1 and 8, and
# the scalar log_ndtr switches to erfcx at t = 26.
BRANCH_POINTS = [s * math.sqrt(2.0) * t for s in (1, -1) for t in (1.0, 8.0, 26.0)]
BRANCH_POINTS += [np.nextafter(x, d) for x in BRANCH_POINTS for d in (-np.inf, np.inf)]


def assert_rel_close(got, ref, rtol):
    # Relative error on values >= 1e-300; below that, absolute 1e-300.
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    big = np.abs(ref) >= 1e-300
    err = np.abs(got[big] - ref[big]) / np.abs(ref[big])
    assert err.max(initial=0.0) <= rtol, ref[big][np.argmax(err)]
    assert np.all(np.abs(got[~big] - ref[~big]) <= 1e-300)


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr"])
def test_cdf_array_path_matches_scipy(name):
    x = np.concatenate([np.linspace(-37.0, 37.0, 400_001), BRANCH_POINTS])
    assert_rel_close(getattr(acc, name)(x), getattr(special, name)(x), 2e-15)
    # any array shape takes the array path
    grid = x[:12].reshape(3, 4)
    assert_rel_close(getattr(acc, name)(grid), getattr(special, name)(grid), 2e-15)


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr"])
def test_cdf_scalar_path_matches_scipy(name):
    # math.erfc rounds its argument's square differently from Cephes deep in
    # the tail: 5.7e-14 relative at x = -36 is the largest error measured.
    xs = np.concatenate([np.linspace(-37.0, 37.0, 2_001), BRANCH_POINTS])
    ref = getattr(special, name)(xs)
    for kind in (float, np.float64, np.asarray):
        got = [getattr(acc, name)(kind(x)) for x in xs]
        assert all(np.ndim(g) == 0 for g in got)
        assert_rel_close(got, ref, 1e-13)


@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
@settings(deadline=None)
def test_cdf_matches_scipy_property(values):
    x = np.array(values)
    for name in ("ndtr", "log_ndtr"):
        ref = getattr(special, name)(x)
        assert_rel_close(getattr(acc, name)(x), ref, 2e-15)
        assert_rel_close([getattr(acc, name)(v) for v in values], ref, 1e-13)


def test_cdf_edge_cases():
    for kind in (float, lambda v: np.array([v])):
        def at(name, v):
            return float(np.ravel(getattr(acc, name)(kind(v)))[0])

        assert (at("ndtr", math.inf), at("ndtr", -math.inf)) == (1.0, 0.0)
        assert (at("log_ndtr", math.inf), at("log_ndtr", -math.inf)) == (0.0, -math.inf)
        assert math.isnan(at("ndtr", math.nan)) and math.isnan(at("log_ndtr", math.nan))
        # Phi(-40) underflows, its log does not (scipy: -804.608...)
        assert at("ndtr", -40.0) == 0.0
        assert at("log_ndtr", -40.0) == pytest.approx(special.log_ndtr(-40.0), rel=1e-15)
        # t^2 overflows past |x| = 1e154, without a warning
        assert (at("ndtr", -1e200), at("ndtr", 1e200)) == (0.0, 1.0)
        assert (at("log_ndtr", -1e200), at("log_ndtr", 1e200)) == (-math.inf, 0.0)
        assert at("log_ndtr", -1e12) == pytest.approx(special.log_ndtr(-1e12), rel=1e-15)


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
    assert acc.gaussian_delta(1.0, np.log([1.0]))[0] == pytest.approx(
        2.0 * phi(0.5) - 1.0, abs=1e-12
    )


def test_hockey_stick_gaussian_vs_quadrature():
    alphas = np.array([0.0, 0.3, 1.0, 2.0, 7.0])
    for mu in (0.2, 1.0, 2.5):
        with np.errstate(divide="ignore"):
            got = acc.gaussian_delta(mu, np.log(alphas))
        for alpha, h in zip(alphas, got):
            assert h == pytest.approx(hockey_stick_quadrature(alpha, mu), abs=1e-8)


def test_gaussian_delta_is_the_two_implementations_it_replaced():
    # One formula serves both routes. On arrays of log(alpha) it is the
    # subsampled profile's former hockey stick bit for bit, alpha = 0 (eps =
    # -inf), the mixtures' alpha <= 1 - q and alpha > e^30 included; through
    # the scalar bisection it finds the former GDP curve's epsilons.
    alphas = np.concatenate(([0.0], np.exp(np.linspace(-40.0, 40.0, 20001)), [1e-300]))
    for mu in (0.01, 0.3, 1.0, 2.0 / 3.0, 4.0, 25.0):
        with np.errstate(divide="ignore"):
            got = acc.gaussian_delta(mu, np.log(alphas))
        assert got.tobytes() == oracles.hockey_stick_gaussian(alphas, mu).tobytes(), mu
    rng = np.random.default_rng(5)
    for mu, log10_delta in zip(10 ** rng.uniform(-2, 1, 300), rng.uniform(-12, -1, 300)):
        want = acc.find_epsilon(oracles.gaussian_profile(mu), 10**log10_delta)
        assert acc.find_epsilon(acc.gaussian_profile(mu), 10**log10_delta) == want


def test_subsampled_profile_vs_quadrature():
    # [DERIVED] the closed-form mixture factorization against the defining
    # integrals of both mixture directions.
    for mu, q in ((1.0, 0.1), (0.5, 0.02), (2.0, 0.5)):
        alphas = np.array([0.5, 0.9, 1.0, 1.3, 2.0, 5.0])
        for alpha, h in zip(alphas, acc.subsampled_profile(mu, q, alphas)):
            up = hockey_stick_quadrature(alpha, mu, q_up=q)
            down = hockey_stick_quadrature(alpha, mu, q_down=q)
            assert h == pytest.approx(max(up, down), abs=1e-8)


def test_subsampled_q1_degenerates_to_base():
    alphas = np.linspace(0.0, 6.0, 100)
    got = acc.subsampled_profile(1.0, 1.0, alphas)
    with np.errstate(divide="ignore"):
        want = acc.gaussian_delta(1.0, np.log(alphas))
    np.testing.assert_allclose(got, want, atol=1e-10)


@given(
    mu=st.floats(0.05, 5.0),
    q=st.floats(0.001, 1.0),
    a1=st.floats(0.0, 10.0),
    a2=st.floats(0.0, 10.0),
)
def test_subsampled_profile_valid_divergence(mu, q, a1, a2):
    lo, hi = sorted((a1, a2))
    h_lo, h_hi = acc.subsampled_profile(mu, q, np.array([lo, hi]))
    # non-increasing in alpha, bounded by [0, 1], and at most the base
    # divergence (subsampling only shrinks distinguishability)
    assert 0.0 <= h_hi <= h_lo + 1e-12
    assert h_lo <= 1.0 + 1e-12
    with np.errstate(divide="ignore"):
        assert h_lo <= acc.gaussian_delta(mu, np.log([lo]))[0] + 1e-12


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
    true = profile.delta(eps)
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


def multiplies(T):
    # compose_pld(pld, T): one squaring per bit below the top one, and one
    # multiply per set bit past the first.
    return T.bit_length() - 1 + bin(T).count("1") - 1


def test_compose_infinity_mass_excess_bounded():
    # Each convolution sheds at most TRIM_TOL of right tail into the atom,
    # and composing two PLDs adds their excesses, so T copies exceed the
    # exact 1 - (1 - m_inf)^T by at most (T - 1) * TRIM_TOL, plus the
    # rounding of a + b - ab at each multiply. The per-epoch fold keeps the
    # same bound at every horizon e * s: each of its multiplies adds the
    # epoch's excess plus one TRIM_TOL. The support cap, which also feeds
    # the atom, does not bind for these horizons.
    step = acc.account_dpsgd(2.0, 1 / 60, 1)
    gauss = make_gaussian_pld(mu=0.5, width=1.0)

    def assert_bounded(pld, T, comp, n_multiplies):
        exact = -math.expm1(T * math.log1p(-pld.infinity_mass))
        slack = n_multiplies * 4 * np.finfo(float).eps
        assert comp.infinity_mass <= exact + (T - 1) * acc.TRIM_TOL + slack, T

    for pld, T in [(step, T) for T in (2, 7, 60, 1200)] + [(gauss, 7), (gauss, 60)]:
        assert_bounded(pld, T, acc.compose_pld(pld, T), multiplies(T))
    s = 60
    for e, comp in enumerate(acc.account_dpsgd_many(2.0, 1 / 60, s, 20), 1):
        assert_bounded(step, e * s, comp, multiplies(s) + e - 1)


def test_composed_support_tracks_mass():
    # Without the tail trim, FFT round-off grew every composed PLD to the
    # whole +-64 support cap: 128 000 points on this grid.
    assert len(acc.account_dpsgd(2.0, 1 / 60, 1200).masses) < 32768


def test_pld_delta_matches_masked_sum():
    # Reference: the boolean-mask form of m_inf + sum_{l > eps} (1 - e^{eps-l}) p.
    pld = acc.account_dpsgd(2.0, 0.05, 50)
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
    pld = acc.account_dpsgd(2.0, 1.0, 1)
    for eps in (0.1, 0.5, 1.0, 2.0):
        exact = acc.gaussian_delta(1.0, eps)  # mu = 2/sigma = 1
        got = pld.delta(eps)
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
    pld = acc.account_dpsgd(sigma, q, T)
    delta = 10.0**log10_delta
    eps = acc.find_epsilon(pld, delta)
    assert math.isinf(eps) or pld.delta(eps) <= delta


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
    # nan passes every comparison above, and inf makes mu inf or 0.
    for field in ("L", "sigma", "eta", "lambda_sc", "beta_sm"):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match=field):
                _cgd_spec(**{field: value})


def test_rdp_to_dp_known_value():
    # [TRIVIAL] alpha=2, eps_rdp=eps=1: exp(0)/2 * (1/2)^1 = 0.25.
    assert oracles.rdp_to_dp(2.0, 1.0, 1.0) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                  (2.0, math.nan, 1.0), (2.0, 1.0, -math.inf)])
def test_rdp_to_dp_refuses_non_finite(args):
    with pytest.raises(DomainError):
        oracles.rdp_to_dp(*args)


@given(
    alpha=st.floats(1.001, 64.0),
    eps_rdp=st.floats(0.0, 8.0),
    eps=st.floats(0.0, 16.0),
)
def test_rdp_to_dp_is_probability(alpha, eps_rdp, eps):
    val = oracles.rdp_to_dp(alpha, eps_rdp, eps)
    assert 0.0 <= val <= 1.0


def test_fftconvolve_bitwise_equals_scipy():
    # The local convolution repeats scipy.signal.fftconvolve's steps, so a
    # composed PLD is bit for bit what scipy's would be. Lengths cover both
    # parities, 5-smooth and prime sizes, length 1 and a is b.
    rng = np.random.default_rng(0)
    lengths = [1, 2, 3, 7, 8, 1000, 1024, 4096, 4097, 7919, 17678, 39999, 40000]
    lengths += rng.integers(1, 40_000, 20).tolist()
    for la in lengths:
        a, b = rng.random(la), rng.random(int(rng.integers(1, 40_000)))
        for x, y in ((a, b), (b, a), (a, a), (a[:1], b)):
            out = acc.fftconvolve(x, y)
            assert len(out) == len(x) + len(y) - 1
            assert np.array_equal(out, scipy_fftconvolve(x, y))


def test_account_dpsgd_convolves_through_module_fftconvolve(monkeypatch):
    # perfbench counts FFT work by wrapping accountant.fftconvolve: the
    # composition must look it up on the module at call time.
    calls = []
    real = acc.fftconvolve

    def spy(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(acc, "fftconvolve", spy)
    eps = acc.find_epsilon(acc.account_dpsgd(2.0, 0.05, 8), 1e-5)
    monkeypatch.undo()
    assert len(calls) == 3  # pld^2, pld^4, pld^8
    assert eps == acc.find_epsilon(acc.account_dpsgd(2.0, 0.05, 8), 1e-5)


def test_squaring_transforms_its_input_once(monkeypatch):
    # Every squaring in compose_pld's chain is fftconvolve(p, p): one
    # forward FFT, reused for both factors; two distinct inputs take two.
    calls = []
    real = np.fft.rfft

    def spy(x, n):
        calls.append(len(x))
        return real(x, n)

    monkeypatch.setattr(np.fft, "rfft", spy)
    x = np.random.default_rng(3).random(1000)
    acc.fftconvolve(x, x)
    assert len(calls) == 1
    acc.fftconvolve(x, x.copy())
    assert len(calls) == 3
    calls.clear()
    acc.account_dpsgd(2.0, 0.05, 8)  # pld^2, pld^4, pld^8: squarings only
    assert len(calls) == 3


def test_next_fast_len_equals_scipy():
    # The FFT sizes decide the convolution's rounding, so they must be
    # scipy's: every n up to 2^17, then a sample up to past MAX_LEN.
    for n in range(1, (1 << 17) + 1):
        assert acc.next_fast_len(n) == scipy_next_fast_len(n, True), n
    rng = np.random.default_rng(1)
    for n in rng.integers(1 << 17, 2 * acc.MAX_LEN, 2000).tolist():
        assert acc.next_fast_len(n) == scipy_next_fast_len(n, True), n


def test_composed_plds_own_compact_masses():
    # A PLD whose masses were a view into its FFT output would keep the
    # whole output buffer alive.
    def assert_compact(pld):
        assert pld.masses.base is None and pld.masses.flags.owndata

    for steps in (1, 3, 8):
        for pld in list(acc.account_dpsgd_many(2.0, 0.05, steps, 3)):
            assert_compact(pld)
    # all mass at infinite loss: the branch that skips renormalization
    assert_compact(acc.compose_pld(acc.DiscretePLD(0.0, 0.5, np.zeros(3), 1.0), 3))


def test_account_dpsgd_many_yields_each_horizon_bitwise():
    # Horizon e is the fold's e-th PLD, not compose_pld's for e * steps, so
    # the masses may differ in the last bits; the epsilons must not.
    for sigma, q, steps, epochs in [(2.0, 0.1, 2, 4), (1.0, 0.05, 10, 10), (4.0, 0.2, 5, 30)]:
        plds = acc.account_dpsgd_many(sigma, q, steps, epochs)
        for e, pld in enumerate(plds, 1):
            alone = acc.account_dpsgd(sigma, q, e * steps)
            assert acc.find_epsilon(pld, 1e-5) == acc.find_epsilon(alone, 1e-5), (steps, e)
        assert e == epochs


def test_account_dpsgd_many_is_lazy(monkeypatch):
    # Inputs are checked and the epoch's PLD is composed at the call; each
    # later horizon is one multiply when it is taken, and a PLD the caller
    # drops is freed once the next one is taken.
    with pytest.raises(DomainError):
        acc.account_dpsgd_many(-1.0, 0.05, 3, 2)
    with pytest.raises(DomainError):
        acc.account_dpsgd_many(2.0, 0.05, 0, 2)
    with pytest.raises(DomainError):
        acc.account_dpsgd_many(2.0, 0.05, 3, 0)
    calls = []
    real = acc._pld_multiply

    def spy(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(acc, "_pld_multiply", spy)
    horizons = acc.account_dpsgd_many(2.0, 0.05, 3, 4)
    assert len(calls) == multiplies(3)
    assert isinstance(next(horizons), acc.DiscretePLD)
    pld = next(horizons)
    assert len(calls) == multiplies(3) + 1
    ref = weakref.ref(pld)
    del pld
    assert ref() is not None  # the fold multiplies it into the next horizon
    next(horizons)
    gc.collect()
    assert ref() is None
    assert len(calls) == multiplies(3) + 2


@pytest.mark.parametrize("sigma, steps, epochs", [(4.0, 5, 6), (20.0, 30, 10)])
def test_account_dpsgd_many_dominates_gaussian_composition(sigma, steps, epochs):
    # At q = 1 a step is the Gaussian mechanism with mu = 2/sigma, and T
    # steps compose to mu = 2/sigma * sqrt(T) exactly (acceptance criterion
    # 2's closed form). Discretization and every trim are pessimistic, so
    # each horizon's delta must sit at or above the closed form.
    eps = np.linspace(0.0, 4.0, 41)
    plds = acc.account_dpsgd_many(sigma, 1.0, steps, epochs)
    for e, pld in enumerate(plds, 1):
        exact = acc.gaussian_delta(2.0 / sigma * math.sqrt(e * steps), eps)
        got = np.array([acc.pld_delta(pld, float(x)) for x in eps])
        assert np.all(got >= exact), (e, float(np.min(got - exact)))
    assert e == epochs


@pytest.mark.parametrize("grid_step", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_account_dpsgd_refuses_bad_grid_step(grid_step):
    with pytest.raises(DomainError, match="grid step"):
        acc.account_dpsgd_many(2.0, 0.05, 3, 1, grid_step=grid_step)


@pytest.mark.parametrize("grid_step", [1e-7, 1e-320])
def test_account_dpsgd_refuses_grid_past_max_len(grid_step, monkeypatch):
    # Refused from the 30-point tail query, before any grid-sized array:
    # the discretization is never reached.
    monkeypatch.setattr(acc, "connect_the_dots", None)
    with pytest.raises(ResourceError, match="coarser loss grid"):
        acc.account_dpsgd_many(2.0, 1 / 60, 1200, 1, grid_step=grid_step)


def doubling_tail_width(sigma, q, grid_step):
    # The loop account_dpsgd_many ran before its single array query: one
    # scalar delta per doubling of the grid half-width.
    def delta(eps):
        return acc.subsampled_profile(2.0 / sigma, q, np.exp([eps]))[0]

    m, m_cap = 1, int(math.ceil(acc.EPS_MAX / grid_step))
    while delta(m * grid_step) >= acc.TAIL_TOL and m < m_cap:
        m = min(2 * m, m_cap)
    return m, delta(m * grid_step) >= acc.TAIL_TOL


@pytest.mark.parametrize("grid_step", [1e-3, 0.02, 0.3])
def test_tail_width_is_the_doubling_loops(grid_step, caplog):
    # The step PLD spans [-m, m] grid steps, m picked from 1, 2, 4, ...,
    # m_cap; a search that read the wrong element of its one array query
    # (or never reached m_cap) would pick another m than the loop did.
    for sigma in (0.5, 0.8, 2.0, 6.0, 40.0):
        for q in (1e-3, 1 / 60, 0.2, 1.0):
            m, warned = doubling_tail_width(sigma, q, grid_step)
            caplog.clear()
            pld = acc.account_dpsgd(sigma, q, 1, grid_step=grid_step)
            assert len(pld.masses) == 2 * m + 1, (sigma, q)
            assert pld.loss_grid_origin == -m * grid_step
            assert warned == ("profile tail still" in caplog.text), (sigma, q)


def truncate_support_oracle(origin, step, masses, inf_mass):
    # The full-length version: a loss array searched for the cap and one
    # cumsum per tail.
    losses = origin + step * np.arange(len(masses))
    lo = int(np.searchsorted(losses, -acc.SUPPORT_CAP, side="left"))
    hi = int(np.searchsorted(losses, acc.SUPPORT_CAP, side="right"))
    inf_mass += float(masses[hi:].sum())
    if lo >= hi:
        raise NumericError("entire PLD support fell outside the cap")
    folded = float(masses[:lo].sum())
    masses = masses[lo:hi]
    masses[0] += folded
    right = np.cumsum(masses[::-1])
    n_right = min(int(np.searchsorted(right, acc.TRIM_TOL, side="right")), len(masses) - 1)
    if n_right:
        inf_mass += float(right[n_right - 1])
        masses = masses[: len(masses) - n_right]
    left = np.cumsum(masses)
    n_left = min(int(np.searchsorted(left, acc.TRIM_TOL, side="right")), len(masses) - 1)
    if n_left:
        masses = masses[n_left:]
        masses[0] += float(left[n_left - 1])
    return float(losses[lo + n_left]), masses, inf_mass


def test_truncate_support_matches_full_length_oracle():
    # Bit for bit: cut indices found by arithmetic instead of searchsorted
    # on the losses, and tails summed over doubling slices instead of one
    # cumsum, must keep every cut and every shed total. Tails of tiny
    # masses run past several slices; origins straddle both caps.
    rng = np.random.default_rng(3)
    for case in range(400):
        n = int(rng.integers(1, 6000))
        step = float(rng.choice([1e-3, 0.037, 0.1, 1.0]))
        origin = float(rng.uniform(-70.0, 5.0))
        if case % 5 < 2:  # a grid point on (or next to) -SUPPORT_CAP or SUPPORT_CAP
            cap = acc.SUPPORT_CAP * (1, -1)[case % 5]
            origin = cap - step * int(rng.integers(0, n))
        masses = rng.random(n) * 10.0 ** rng.uniform(-19.0, -16.0, n)
        body = slice(int(rng.integers(0, n)), None, int(rng.integers(1, 2000)))
        masses[body] += rng.random(len(masses[body]))
        masses[rng.random(n) < 0.05] = 0.0
        masses /= masses.sum()
        inf_mass = float(rng.choice([0.0, 1e-13]))
        try:
            want = truncate_support_oracle(origin, step, masses.copy(), inf_mass)
        except NumericError:
            with pytest.raises(NumericError):
                acc._truncate_support(origin, step, masses.copy(), inf_mass)
            continue
        got = acc._truncate_support(origin, step, masses.copy(), inf_mass)
        assert (got[0], got[2]) == (want[0], want[2]), case
        assert got[1].tobytes() == want[1].tobytes(), case
