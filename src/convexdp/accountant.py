"""Numerical privacy accounting.

Two accounting routes are provided:

* DP-SGD with without-replacement subsampling under the substitute
  neighborhood: the per-step guarantee is expressed as a privacy profile
  built from hockey-stick divergences of a Gaussian dominating pair mixed
  with the subsampling ratio, discretized onto a uniform loss grid
  (connect-the-dots style) and self-composed with FFT convolutions. After
  every convolution, tails of total mass at most ``TRIM_TOL`` are moved
  pessimistically (the right one to the infinity atom, the left one onto
  the lowest kept point), so the support tracks where the mass really is
  instead of growing with FFT round-off. Several horizons of one run share
  a single chain of squared PLDs (``account_dpsgd_many``).
* Noisy cyclic mini-batch gradient descent: the closed-form mu-GDP bound
  for strongly convex, smooth losses with fixed disjoint batches.

Nothing here holds shared mutable state: ``compose_pld`` may extend a
caller-owned chain of squares, and a PLD caches its own loss grid.
"""
from __future__ import annotations

import dataclasses
import functools
import logging
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import log_ndtr, ndtr

from .errors import DomainError, NumericError, ResourceError

logger = logging.getLogger(__name__)

#: Default loss-grid resolution for discretized privacy loss distributions.
DEFAULT_GRID_STEP = 1e-3
#: Probability below which the profile tail is truncated (folded into the
#: infinity atom, which is pessimistic and preserves domination).
TAIL_TOL = 1e-12
#: Mass a composed PLD may shed from each tail after one convolution (moved
#: pessimistically, see ``_truncate_support``); the FFT round-off floor.
TRIM_TOL = 1e-15
#: Largest epsilon ``find_epsilon`` searches; also caps the per-step grid half-width.
EPS_MAX = 32.0
#: Hard cap on composed PLD support (in loss units) and on FFT lengths.
SUPPORT_CAP = 64.0
MAX_LEN = 1 << 24


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiscretePLD:
    """A privacy loss distribution on a uniform grid plus an infinity atom.

    Grid point ``i`` carries loss ``loss_grid_origin + i * loss_grid_step``
    and probability ``masses[i]``; ``infinity_mass`` is the probability of an
    infinite privacy loss. Finite masses plus the atom sum to 1 within 1e-12.
    """

    loss_grid_origin: float
    loss_grid_step: float
    masses: np.ndarray
    infinity_mass: float

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if self.loss_grid_step <= 0:
            raise DomainError("loss grid step must be positive")
        if np.any(masses < 0):
            raise DomainError("PLD masses must be non-negative")
        if self.infinity_mass < 0:
            raise DomainError("infinity mass must be non-negative")
        total = masses.sum() + self.infinity_mass
        if not (1 - 1e-12 <= total <= 1 + 1e-12):
            raise DomainError(f"PLD not normalized: total mass {total!r}")

    @functools.cached_property
    def losses(self) -> np.ndarray:
        return self.loss_grid_origin + self.loss_grid_step * np.arange(
            len(self.masses)
        )

    def delta(self, eps: float) -> float:
        return pld_delta(self, eps)


@dataclasses.dataclass(frozen=True)
class PrivacyProfile:
    """The curve eps -> delta(eps): non-increasing, convex in exp(eps).

    ``evaluator`` accepts a float or an ndarray of epsilons and returns
    delta values in [0, 1].
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    pld: Optional[DiscretePLD] = None

    def delta(self, eps) -> float:
        return float(np.clip(self.evaluator(float(eps)), 0.0, 1.0))

    def delta_array(self, eps_values: np.ndarray) -> np.ndarray:
        return np.clip(self.evaluator(np.asarray(eps_values, dtype=float)), 0.0, 1.0)


@dataclasses.dataclass(frozen=True)
class GaussianPairSpec:
    """Dominating pair N(mu, 1) vs N(0, 1); mu is the distinguishability."""

    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise DomainError(f"mu must be finite and positive, got {self.mu!r}")


@dataclasses.dataclass(frozen=True)
class SubsampledSpec:
    """Gaussian base pair subsampled without replacement at ratio q."""

    base: GaussianPairSpec
    q: float

    def __post_init__(self):
        if not (0 < self.q <= 1):
            raise DomainError(f"subsampling ratio q must be in (0, 1], got {self.q!r}")


@dataclasses.dataclass(frozen=True)
class NoisyCGDSpec:
    """Inputs of the closed-form GDP bound for noisy cyclic mini-batch GD.

    sigma is the std of the noise added to the averaged batch gradient
    (the parameterization of the update equation itself, not the DP-SGD
    noise multiplier). k is the number of disjoint batches per epoch.
    """

    L: float
    b: int
    sigma: float
    eta: float
    lambda_sc: float
    beta_sm: float
    k: int
    E: int

    def __post_init__(self):
        if self.L <= 0:
            raise DomainError("gradient sensitivity L must be positive")
        if self.b < 1 or self.k < 1 or self.E < 1:
            raise DomainError("b, k and E must be positive integers")
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")
        if self.lambda_sc <= 0 or self.beta_sm <= 0:
            raise DomainError("lambda and beta must be positive")
        if self.lambda_sc > self.beta_sm:
            raise DomainError("strong convexity cannot exceed smoothness")
        if not (0 < self.eta < 2.0 / self.beta_sm):
            raise DomainError("eta must lie in (0, 2/beta)")


# ---------------------------------------------------------------------------
# Closed-form Gaussian profile math
# ---------------------------------------------------------------------------


def gaussian_delta(mu: float, eps: float) -> float:
    """delta(eps) of a mu-GDP mechanism, for eps >= 0."""
    if eps < 0:
        raise DomainError(f"eps must be non-negative, got {eps!r}")
    return gaussian_profile(mu).delta(eps)


def gaussian_profile(mu: float) -> PrivacyProfile:
    """Privacy profile of a mu-GDP mechanism.

    Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2), evaluated through
    log-CDFs so the exp(eps) factor cannot overflow.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu!r}")

    def evaluator(eps):
        eps = np.asarray(eps, dtype=float)
        a = -eps / mu + mu / 2.0
        b = -eps / mu - mu / 2.0
        out = ndtr(a) - np.exp(eps + log_ndtr(b))
        return np.clip(out, 0.0, 1.0)

    return PrivacyProfile(evaluator=evaluator)


def hockey_stick_gaussian(alpha, mu: float):
    """Hockey-stick divergence H_alpha(N(mu,1) || N(0,1)), closed form.

    The likelihood ratio exp(mu*t - mu^2/2) is monotone, so the integrand
    has a single sign change at t* = log(alpha)/mu + mu/2 and the divergence
    reduces to signed Gaussian CDF differences. For alpha >= 1 this equals
    gaussian_delta(mu, log(alpha)).
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu!r}")
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr < 0):
        raise DomainError("alpha must be non-negative")
    scalar = alpha_arr.ndim == 0
    alpha_arr = np.atleast_1d(alpha_arr)
    out = np.ones_like(alpha_arr)
    pos = alpha_arr > 0
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alpha_arr[pos])
    tstar = log_alpha / mu + mu / 2.0
    out[pos] = ndtr(mu - tstar) - np.exp(log_alpha + log_ndtr(-tstar))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def subsampled_profile(spec: SubsampledSpec, alpha):
    """h(alpha) upper-bounding the subsampled mechanism's divergence.

    h(alpha) = max{ H_alpha(q*P + (1-q)*Q || Q), H_alpha(P || q*Q + (1-q)*P) }
    with P = N(mu, 1), Q = N(0, 1). Because the likelihood ratio of the base
    pair is strictly monotone, each mixture term has a single crossing point
    that is available in closed form, and the mixture divergence factors
    through the base-pair hockey stick exactly.
    """
    mu, q = spec.base.mu, spec.q
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr < 0):
        raise DomainError("alpha must be non-negative")
    scalar = alpha_arr.ndim == 0
    alpha_arr = np.atleast_1d(alpha_arr).astype(float)

    # H_alpha(q*P + (1-q)*Q || Q): integrand positive everywhere when
    # alpha <= 1-q, otherwise q * H_{(alpha-1+q)/q}(P || Q).
    up = np.empty_like(alpha_arr)
    low_a = alpha_arr <= 1.0 - q
    up[low_a] = 1.0 - alpha_arr[low_a]
    if np.any(~low_a):
        up[~low_a] = q * hockey_stick_gaussian((alpha_arr[~low_a] - 1.0 + q) / q, mu)

    # H_alpha(P || q*Q + (1-q)*P): zero once alpha*(1-q) >= 1, otherwise
    # (1 - alpha*(1-q)) * H_{alpha*q / (1 - alpha*(1-q))}(P || Q).
    down = np.zeros_like(alpha_arr)
    live = alpha_arr * (1.0 - q) < 1.0
    if np.any(live):
        w = 1.0 - alpha_arr[live] * (1.0 - q)
        down[live] = w * hockey_stick_gaussian(alpha_arr[live] * q / w, mu)

    out = np.maximum(up, down)
    if not np.all(np.isfinite(out)):
        raise NumericError(
            f"subsampled divergence not finite (mu={mu}, q={q}): {out!r}"
        )
    return float(out[0]) if scalar else out


def subsampled_dp_profile(spec: SubsampledSpec) -> PrivacyProfile:
    """Privacy profile eps -> h(exp(eps)) of one subsampled step."""

    def evaluator(eps):
        eps = np.asarray(eps, dtype=float)
        return subsampled_profile(spec, np.exp(eps))

    return PrivacyProfile(evaluator=evaluator)


# ---------------------------------------------------------------------------
# Discretization and composition
# ---------------------------------------------------------------------------


def connect_the_dots(profile: PrivacyProfile, eps_grid: np.ndarray) -> DiscretePLD:
    """Discretize a convex privacy profile onto a uniform epsilon grid.

    Produces masses at the grid points (plus an infinity atom holding the
    right tail delta(grid[-1])) whose induced profile matches the input at
    every grid point and dominates it everywhere else; domination follows
    from convexity of the profile in exp(eps), since the induced profile is
    the chordal (piecewise linear in exp(eps)) majorant.

    The triangular system delta(eps_i) = m_inf + sum_{j>i} (1 - e^{eps_i -
    eps_j}) p_j is solved in closed form by the backward difference
    p_{i+1} = (d_i - e^{-s} d_{i+1}) / (1 - e^{-s}) with d_i = delta(eps_i)
    - delta(eps_{i+1}) and s the grid step.
    """
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError("eps_grid must be a 1-d array with >= 2 points")
    steps = np.diff(grid)
    step = steps[0]
    if step <= 0 or not np.allclose(steps, step, rtol=0, atol=1e-9 * abs(step)):
        raise DomainError("eps_grid must be strictly increasing and uniform")

    deltas = profile.delta_array(grid)
    if np.any(np.diff(deltas) > 1e-12):
        raise NumericError("profile is increasing on the grid; not a privacy profile")

    m_inf = float(deltas[-1])
    d = -np.diff(deltas)  # d[i] = delta_i - delta_{i+1}, length m-1
    d_next = np.append(d[1:], 0.0)
    decay = math.exp(-step)
    masses = np.zeros(len(grid))
    masses[1:] = (d - decay * d_next) / (1.0 - decay)

    # The backward differences divide by (1 - e^{-step}), amplifying CDF
    # roundoff by ~1/step; tolerate negatives of that magnitude only.
    mass_tol = 1e-12 + 1e-12 / (1.0 - decay)
    if np.any(masses < -mass_tol):
        worst = masses.min()
        raise NumericError(
            f"profile numerically non-convex in exp(eps): mass {worst:.3e} "
            f"< -{mass_tol:.3e}"
        )
    np.clip(masses, 0.0, None, out=masses)
    head = 1.0 - m_inf - masses[1:].sum()
    if head < -mass_tol:
        raise NumericError(f"leftmost mass {head:.3e} negative; widen the grid left")
    masses[0] = max(head, 0.0)
    overshoot = masses.sum() + m_inf - 1.0
    if overshoot > 0:
        masses *= (1.0 - m_inf) / masses.sum()
    return DiscretePLD(
        loss_grid_origin=float(grid[0]),
        loss_grid_step=float(step),
        masses=masses,
        infinity_mass=m_inf,
    )


def pld_delta(pld: DiscretePLD, eps: float) -> float:
    """delta(eps) induced by a discrete PLD.

    m_inf + sum over grid losses l > eps of (1 - e^{eps - l}) * p. The grid
    is increasing, so the losses above eps are the suffix from the
    ``searchsorted`` index on.
    """
    losses = pld.losses
    first = int(np.searchsorted(losses, eps, side="right"))
    if first == len(losses):
        return float(min(max(pld.infinity_mass, 0.0), 1.0))
    contrib = (1.0 - np.exp(eps - losses[first:])) * pld.masses[first:]
    return float(min(max(pld.infinity_mass + contrib.sum(), 0.0), 1.0))


def _truncate_support(origin: float, step: float, masses: np.ndarray, inf_mass: float):
    """Restrict support to [-SUPPORT_CAP, SUPPORT_CAP] and shed negligible
    tails, pessimistically.

    Mass above the cap becomes infinite loss; mass below the cap is moved up
    to the lowest kept grid point. Then the longest right tail of total mass
    at most ``TRIM_TOL`` joins the infinity atom, and the longest left tail
    of total mass at most ``TRIM_TOL`` moves up onto the lowest kept grid
    point. Every move shifts mass to a larger loss, so delta can only
    increase, and stochastic order survives later convolutions, so every
    composition built on the result still dominates. Each call adds at most
    ``TRIM_TOL`` to the infinity atom. ``masses`` may be modified in place.
    """
    losses = origin + step * np.arange(len(masses))
    # Losses increase along the grid: the kept points are one slice.
    lo = int(np.searchsorted(losses, -SUPPORT_CAP, side="left"))
    hi = int(np.searchsorted(losses, SUPPORT_CAP, side="right"))
    inf_mass += float(masses[hi:].sum())
    if lo >= hi:
        raise NumericError("entire PLD support fell outside the cap")
    folded = float(masses[:lo].sum())
    masses = masses[lo:hi]
    masses[0] += folded

    right = np.cumsum(masses[::-1])
    n_right = min(int(np.searchsorted(right, TRIM_TOL, side="right")), len(masses) - 1)
    if n_right:
        inf_mass += float(right[n_right - 1])
        masses = masses[: len(masses) - n_right]
    left = np.cumsum(masses)
    n_left = min(int(np.searchsorted(left, TRIM_TOL, side="right")), len(masses) - 1)
    if n_left:
        masses = masses[n_left:]
        masses[0] += float(left[n_left - 1])
    return float(losses[lo + n_left]), masses, inf_mass


def _pld_multiply(a: DiscretePLD, b: DiscretePLD) -> DiscretePLD:
    if not math.isclose(a.loss_grid_step, b.loss_grid_step, rel_tol=1e-12):
        raise DomainError("PLDs must share the loss grid step to compose")
    out_len = len(a.masses) + len(b.masses) - 1
    if out_len > MAX_LEN:
        raise ResourceError(
            f"composition support would need {out_len} points (> {MAX_LEN}); "
            "use a coarser loss grid"
        )
    conv = fftconvolve(a.masses, b.masses)
    if np.any(conv < -1e-12):
        raise NumericError(f"FFT convolution produced {conv.min():.3e} < -1e-12")
    neg = conv < 0
    if np.any(neg):
        target = float(a.masses.sum() * b.masses.sum())
        conv[neg] = 0.0
        total = conv.sum()
        if total > 0:
            conv *= target / total
            logger.info(
                "clamped %d tiny negative convolution values; renormalized by %.3e",
                int(neg.sum()),
                target / total - 1.0,
            )
    # a + b - ab, not 1 - (1 - a)(1 - b): the latter rounds atoms below
    # about 1e-16 to zero, which would drop privacy loss.
    m_a, m_b = a.infinity_mass, b.infinity_mass
    inf_mass = m_a + m_b - m_a * m_b
    origin, masses, inf_mass = _truncate_support(
        a.loss_grid_origin + b.loss_grid_origin, a.loss_grid_step, conv, inf_mass
    )
    # Guard against FFT drift in the total mass.
    total = masses.sum() + inf_mass
    if not (1 - 1e-9 <= total <= 1 + 1e-9):
        raise NumericError(f"composed PLD lost normalization: {total!r}")
    masses = masses * ((1.0 - inf_mass) / masses.sum())
    return DiscretePLD(origin, a.loss_grid_step, masses, inf_mass)


def compose_pld(
    pld: DiscretePLD, T: int, powers: Optional[list[DiscretePLD]] = None
) -> DiscretePLD:
    """T-fold self-composition by FFT convolution (binary exponentiation).

    Convolutions are zero-padded (full linear convolution, no wrap-around)
    and longer than ``MAX_LEN`` points is a ``ResourceError``. Support beyond
    ``SUPPORT_CAP`` is folded and tails of mass at most ``TRIM_TOL``
    are shed after every convolution (``_truncate_support``), pessimistically,
    preserving domination. The infinity mass composes as 1 - (1 - m_inf)^T
    plus at most (T - 1) * TRIM_TOL: each convolution adds at most TRIM_TOL,
    and composing two PLDs adds their excesses.

    ``powers`` is a caller-owned chain of squares, ``powers[j]`` being
    pld^(2^j); it is extended in place as far as T needs, so several
    horizons of the same ``pld`` square only once. The multiplications for
    a given T happen in the same order with or without it, so the result is
    the same bit for bit.
    """
    if T < 1:
        raise DomainError(f"T must be a positive integer, got {T!r}")
    if powers is None:
        powers = []
    if not powers:
        powers.append(pld)
    result: DiscretePLD | None = None
    j, t = 0, T
    while t > 0:
        if t & 1:
            result = powers[j] if result is None else _pld_multiply(result, powers[j])
        t >>= 1
        if t:
            if j + 1 == len(powers):
                powers.append(_pld_multiply(powers[j], powers[j]))
            j += 1
    assert result is not None
    return result


def account_dpsgd(
    sigma: float, q: float, T: int, grid_step: float = DEFAULT_GRID_STEP
) -> PrivacyProfile:
    """Privacy profile of T DP-SGD steps with WOR subsampling, ratio q.

    One step releases the noised average of clipped gradients; normalizing
    by b/C gives per-entry contributions of norm <= 1, substitution
    sensitivity 2 and noise N(0, sigma^2 I), i.e. the base dominating pair
    P = N(2/sigma, 1), Q = N(0, 1). The subsampled profile is discretized
    with connect_the_dots on the narrowest symmetric grid (half-width at
    most ``EPS_MAX``) whose right tail is below ``TAIL_TOL``, and composed
    T times.
    """
    return account_dpsgd_many(sigma, q, [T], grid_step=grid_step)[0]


def account_dpsgd_many(
    sigma: float, q: float, Ts: Sequence[int], grid_step: float = DEFAULT_GRID_STEP
) -> list[PrivacyProfile]:
    """``account_dpsgd`` at every horizon in ``Ts``, from one squaring chain.

    The step PLD is discretized once and its squares are shared by all
    horizons, so each profile equals ``account_dpsgd(sigma, q, T)`` bit for
    bit while the chain is computed once.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if any(T < 1 for T in Ts):
        raise DomainError(f"every T must be a positive integer, got {list(Ts)!r}")
    spec = SubsampledSpec(base=GaussianPairSpec(mu=2.0 / sigma), q=q)
    step_profile = subsampled_dp_profile(spec)

    # Smallest grid half-width (multiple of the step) whose right tail is
    # below the per-step truncation tolerance.
    m = 1
    m_cap = int(math.ceil(EPS_MAX / grid_step))
    while step_profile.delta(m * grid_step) >= TAIL_TOL and m < m_cap:
        m = min(2 * m, m_cap)
    if step_profile.delta(m * grid_step) >= TAIL_TOL:
        logger.warning(
            "profile tail still %.2e at eps=%.1f; folding into infinity mass",
            step_profile.delta(m * grid_step),
            m * grid_step,
        )
    grid = np.arange(-m, m + 1, dtype=float) * grid_step
    pld = connect_the_dots(step_profile, grid)
    powers: list[DiscretePLD] = []
    return [_pld_profile(compose_pld(pld, T, powers=powers)) for T in Ts]


def _pld_profile(pld: DiscretePLD) -> PrivacyProfile:
    def evaluator(eps):
        eps = np.asarray(eps, dtype=float)
        if eps.ndim == 0:
            return pld_delta(pld, float(eps))
        return np.array([pld_delta(pld, e) for e in eps.ravel()]).reshape(eps.shape)

    return PrivacyProfile(evaluator=evaluator, pld=pld)


# ---------------------------------------------------------------------------
# GDP bound for noisy cyclic mini-batch GD, and conversions
# ---------------------------------------------------------------------------


def noisycgd_mu(spec: NoisyCGDSpec) -> float:
    """mu-GDP constant of noisy cyclic mini-batch GD after E epochs.

    mu = L/(b*sigma) * sqrt(1 + c^{2k-2} (1-c^2)/(1-c^k)^2
                               * (1-c^{k(E-1)})/(1+c^{k(E-1)}))
    with the forgetting constant c = max{|1 - eta*lambda|, |1 - eta*beta|}.
    For E = 1 the last factor vanishes exactly and mu = L/(b*sigma).
    """
    c = max(
        abs(1.0 - spec.eta * spec.lambda_sc), abs(1.0 - spec.eta * spec.beta_sm)
    )
    if c >= 1.0:
        raise DomainError(f"forgetting constant must be < 1, got c={c!r}")
    base = spec.L / (spec.b * spec.sigma)
    if spec.E == 1:
        return base
    k = spec.k
    ck = c**k
    tail = c ** (k * (spec.E - 1))
    inner = 1.0 + c ** (2 * k - 2) * (1.0 - c * c) / (1.0 - ck) ** 2 * (
        1.0 - tail
    ) / (1.0 + tail)
    return base * math.sqrt(inner)


def rdp_to_dp(alpha: float, eps_rdp: float, eps: float) -> float:
    """delta(eps) of an (alpha, eps_rdp)-RDP mechanism.

    exp((alpha-1)(eps_rdp - eps))/alpha * (1 - 1/alpha)^(alpha-1),
    clamped to [0, 1].
    """
    if alpha <= 1:
        raise DomainError(f"alpha must exceed 1, got {alpha!r}")
    log_val = (
        (alpha - 1.0) * (eps_rdp - eps)
        - math.log(alpha)
        + (alpha - 1.0) * math.log1p(-1.0 / alpha)
    )
    if log_val >= 0:
        return 1.0
    return math.exp(log_val)


def find_epsilon(profile: PrivacyProfile, delta_target: float) -> float:
    """Smallest eps with delta(eps) <= delta_target, by bisection.

    Returns 0 when the target is already met at eps = 0, and inf when it is
    not met at ``EPS_MAX``. The returned eps always meets the target: the
    bisection keeps delta(hi) <= delta_target and stops early only on a
    point with delta within a relative 1e-6 below the target.
    """
    if not (0 < delta_target < 1):
        raise DomainError(f"delta target must be in (0, 1), got {delta_target!r}")
    if profile.delta(0.0) <= delta_target:
        return 0.0
    if profile.delta(EPS_MAX) > delta_target:
        return math.inf
    lo, hi = 0.0, min(1.0, EPS_MAX)
    while profile.delta(hi) > delta_target:
        lo, hi = hi, min(2.0 * hi, EPS_MAX)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        d_mid = profile.delta(mid)
        if delta_target * (1.0 - 1e-6) <= d_mid <= delta_target:
            hi = mid
            break
        if d_mid > delta_target:
            lo = mid
        else:
            hi = mid
    return hi
