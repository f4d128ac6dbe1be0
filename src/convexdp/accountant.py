"""Numerical privacy accounting.

Both accounting routes rest on one function, ``gaussian_delta``: the
hockey-stick divergence of N(mu, 1) against N(0, 1) at alpha = exp(eps).

* DP-SGD with without-replacement subsampling under the substitute
  neighborhood: ``subsampled_profile`` mixes that divergence with the
  subsampling ratio into the per-step privacy profile, which is discretized
  onto a uniform loss grid (connect-the-dots style) and self-composed with
  FFT convolutions. After every convolution, tails of total mass at most
  ``TRIM_TOL`` are moved pessimistically (the right one to the infinity
  atom, the left one onto the lowest kept point), so the support tracks
  where the mass really is instead of growing with FFT round-off. The
  convolutions run on ``numpy.fft`` (numpy >= 2, the same C++ pocketfft as
  ``scipy.fft``, bit for bit). For the epochs of one run,
  ``account_dpsgd_many`` composes one epoch's PLD and convolves it onto the
  last horizon's, once per epoch, yielding each ``DiscretePLD`` as it is
  built (Koskela, Jalko & Honkela 2020, applied per epoch).
* Noisy cyclic mini-batch gradient descent: the closed-form mu-GDP bound
  for strongly convex, smooth losses with fixed disjoint batches, whose
  curve is ``gaussian_profile(mu)``.

``find_epsilon`` searches anything with a ``delta(eps)`` method: a
``DiscretePLD`` or a ``PrivacyProfile``. The standard normal CDF is computed
here with numpy alone: for a scalar (the epsilon bisection) by ``math.erfc``,
for an array (a discretization grid) by the Cephes rational forms that
scipy's ndtr uses.

Nothing here holds shared mutable state; a PLD caches its own loss grid.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import logging
import math
from typing import Callable, Iterator, Sequence

import numpy as np

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

    ``delta`` maps a float or an ndarray of epsilons to delta values in [0, 1].
    """

    delta: Callable[[np.ndarray], np.ndarray]


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
        for name in ("L", "sigma", "eta", "lambda_sc", "beta_sm"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
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


# Cephes (Moshier's ndtr.c) rational forms, highest power first, each
# denominator's leading 1.0 written out: erf(t) = t*T(t^2)/U(t^2) for |t| < 1;
# erfcx(t) = exp(t^2)*erfc(t) = P(t)/Q(t) on [1, 8) and R(t)/S(t) beyond.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFCX_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
            4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
            9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFCX_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
            9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
            1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFCX_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
            6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFCX_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
            1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_SQRT_HALF = math.sqrt(0.5)


def _polevl(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Horner's rule as ``np.polyval`` runs it, in one array instead of two per step."""
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _erfcx_pq(t: np.ndarray):
    """(p, q) with erfcx(t) = p/q for an array of t >= 1. R and S see t capped
    at 1e10, past which log erfcx(t) is below the rounding of t^2."""
    p, q = np.empty_like(t), np.empty_like(t)
    near = t < 8.0
    tn, tf = t[near], np.minimum(t[~near], 1e10)
    p[near], q[near] = _polevl(_ERFCX_P, tn), _polevl(_ERFCX_Q, tn)
    p[~near], q[~near] = _polevl(_ERFCX_R, tf), _polevl(_ERFCX_S, tf)
    return p, q


def ndtr(x):
    """Standard normal CDF, erfc(t)/2 with t = -x/sqrt(2): ``math.erfc`` for a
    scalar, the Cephes forms for an array (each element in its own branch)."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) * _SQRT_HALF)
    t = np.asarray(x, dtype=float) * -_SQRT_HALF
    out = np.empty_like(t)
    inner = np.abs(t) < 1.0
    ti, to = t[inner], t[~inner]
    out[inner] = 0.5 - 0.5 * (ti * _polevl(_ERF_T, ti * ti) / _polevl(_ERF_U, ti * ti))
    a = np.minimum(np.abs(to), 1e10)  # exp(-a*a) is 0 long before the cap
    p, q = _erfcx_pq(a)
    half_tail = 0.5 * (np.exp(-a * a) * p / q)  # erfc(|t|)/2
    out[~inner] = np.where(to > 0, half_tail, 1.0 - half_tail)
    return out


def log_ndtr(x):
    """log Phi(x): log(erfcx(t)/2) - t^2 for t = -x/sqrt(2) >= 1, which cannot
    underflow, else log1p(-Phi(-x)); scalars use ``math`` while erfc(t) is a
    normal float."""
    if isinstance(x, float) or np.ndim(x) == 0:
        t = -float(x) * _SQRT_HALF
        if t < 26.0:
            return math.log1p(-0.5 * math.erfc(-t)) if t <= 0.0 else math.log(0.5 * math.erfc(t))
        return float(log_ndtr(np.array([float(x)]))[0])
    x = np.asarray(x, dtype=float)
    t = x * -_SQRT_HALF
    out = np.empty_like(t)
    tail = t >= 1.0
    tt = t[tail]
    p, q = _erfcx_pq(tt)
    with np.errstate(over="ignore"):  # |x| > 1e154: t^2 is inf
        out[tail] = np.log(0.5 * (p / q)) - tt * tt
    out[~tail] = np.log1p(-ndtr(-x[~tail]))
    return out


def gaussian_delta(mu: float, eps):
    """delta(eps) of a mu-GDP mechanism: the hockey-stick divergence
    H_alpha(N(mu,1) || N(0,1)) at alpha = exp(eps), for a float or an array
    of any real eps (-inf, alpha = 0, gives 1).

    The likelihood ratio exp(mu*t - mu^2/2) is monotone, so the integrand has
    a single sign change at t* = eps/mu + mu/2, and the divergence is
    Phi(mu - t*) - exp(eps) * Phi(-t*), with the exp(eps) factor taken
    through the log-CDF so that it cannot overflow.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu!r}")
    tstar = eps / mu + mu / 2.0
    return np.clip(ndtr(mu - tstar) - np.exp(eps + log_ndtr(-tstar)), 0.0, 1.0)


def gaussian_profile(mu: float) -> PrivacyProfile:
    """Privacy profile of a mu-GDP mechanism; ``delta`` checks mu (its ``args[0]``)."""
    return PrivacyProfile(functools.partial(gaussian_delta, mu))


def subsampled_profile(mu: float, q: float, alpha: np.ndarray) -> np.ndarray:
    """h(alpha) upper-bounding the divergence of N(mu, 1) vs N(0, 1)
    subsampled without replacement at ratio q, for an array of alpha >= 0.

    h(alpha) = max{ H_alpha(q*P + (1-q)*Q || Q), H_alpha(P || q*Q + (1-q)*P) }
    with P = N(mu, 1), Q = N(0, 1). Because the likelihood ratio of the base
    pair is strictly monotone, each mixture term has a single crossing point
    that is available in closed form, and the mixture divergence factors
    through the base-pair hockey stick exactly.
    """
    if not (0 < q <= 1):
        raise DomainError(f"subsampling ratio q must be in (0, 1], got {q!r}")
    if np.any(alpha < 0):
        raise DomainError("alpha must be non-negative")
    # H_alpha(q*P + (1-q)*Q || Q): integrand positive everywhere when
    # alpha <= 1-q, otherwise q * H_{(alpha-1+q)/q}(P || Q).
    out = 1.0 - alpha
    high = alpha > 1.0 - q
    # H_alpha(P || q*Q + (1-q)*P): zero once alpha*(1-q) >= 1, otherwise
    # (1 - alpha*(1-q)) * H_{alpha*q / (1 - alpha*(1-q))}(P || Q).
    live = alpha * (1.0 - q) < 1.0
    w = 1.0 - alpha[live] * (1.0 - q)
    # A ratio of 0 (alpha = 0, or alpha - 1 + q rounding to 0) has log -inf,
    # where gaussian_delta is 1.
    with np.errstate(divide="ignore"):
        out[high] = q * gaussian_delta(mu, np.log((alpha[high] - 1.0 + q) / q))
        down = w * gaussian_delta(mu, np.log(alpha[live] * q / w))
    out[live] = np.maximum(out[live], down)
    if not np.all(np.isfinite(out)):
        raise NumericError(
            f"subsampled divergence not finite (mu={mu}, q={q}): {out!r}"
        )
    return out


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

    deltas = profile.delta(grid)
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
    def loss(i: int) -> float:  # as ``DiscretePLD.losses`` computes it
        return origin + step * i

    # Losses increase along the grid: the kept points are one slice.
    grid = range(len(masses))
    lo = bisect.bisect_left(grid, -SUPPORT_CAP, key=loss)
    hi = bisect.bisect_right(grid, SUPPORT_CAP, key=loss)
    inf_mass += float(masses[hi:].sum())
    if lo >= hi:
        raise NumericError("entire PLD support fell outside the cap")
    folded = float(masses[:lo].sum())
    masses = masses[lo:hi]
    masses[0] += folded

    # Each search leaves out the opposite end's point, so one point always stays.
    n_right, shed = _trim_count(masses[:0:-1])
    if n_right:
        inf_mass += shed
        masses = masses[: len(masses) - n_right]
    n_left, shed = _trim_count(masses[:-1])
    if n_left:
        masses = masses[n_left:]
        masses[0] += shed
    return loss(lo + n_left), masses, inf_mass


def _trim_count(tail: np.ndarray) -> tuple[int, float]:
    """Length and mass of the longest prefix of ``tail`` with mass <= ``TRIM_TOL``,
    summed over doubling slices headed by the total so far, so every partial
    sum is bitwise the one a ``cumsum`` of all of ``tail`` gives."""
    total, k, width = 0.0, 0, 64
    while k < len(tail):
        sums = np.cumsum(np.concatenate(([total], tail[k:k + width])))
        j = int(np.searchsorted(sums, TRIM_TOL, side="right"))  # >= 1: sums[0] = total <= TRIM_TOL
        if j < len(sums):
            return k + j - 1, float(sums[j - 1])
        total, k, width = float(sums[-1]), k + width, 2 * width
    return len(tail), total


def next_fast_len(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n, for n >= 1: the real-FFT size
    ``scipy.fft.next_fast_len(n, True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            fit = p35 << ((n - 1) // p35).bit_length()
            if fit < best:
                best = fit
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-d arrays, bitwise equal to
    ``scipy.signal.fftconvolve`` (same steps and FFT sizes, on ``numpy.fft``,
    whose pocketfft keeps less memory resident than ``scipy.fft``'s). A
    squaring (``b is a``) transforms its input once."""
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    size = next_fast_len(n)
    fa = np.fft.rfft(a, size)
    # In place, in scipy's operand order: numpy's complex products are not
    # bitwise commutative, and ``fa * rfft(b)`` may run as ``rfft(b) * fa``.
    fa *= fa if b is a else np.fft.rfft(b, size)
    return np.fft.irfft(fa, size)[:n]


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
    # a + b - ab, not 1 - (1 - a)(1 - b): the latter rounds atoms below
    # about 1e-16 to zero, which would drop privacy loss.
    m_a, m_b = a.infinity_mass, b.infinity_mass
    inf_mass = m_a + m_b - m_a * m_b
    origin, masses, inf_mass = _truncate_support(
        a.loss_grid_origin + b.loss_grid_origin, a.loss_grid_step, conv, inf_mass
    )
    # Guard against FFT drift in the total mass.
    finite = masses.sum()
    if not (1 - 1e-9 <= finite + inf_mass <= 1 + 1e-9):
        raise NumericError(f"composed PLD lost normalization: {finite + inf_mass!r}")
    # Both branches copy: ``masses`` is a view into the whole FFT output,
    # which a PLD must not keep alive.
    if finite == 0.0:  # every loss is past the cap: the all-infinity PLD
        return DiscretePLD(origin, a.loss_grid_step, masses.copy(), 1.0)
    masses = masses * ((1.0 - inf_mass) / finite)
    return DiscretePLD(origin, a.loss_grid_step, masses, inf_mass)


def compose_pld(pld: DiscretePLD, T: int) -> DiscretePLD:
    """T-fold self-composition by FFT convolution (binary exponentiation).

    Convolutions are zero-padded (full linear convolution, no wrap-around)
    and longer than ``MAX_LEN`` points is a ``ResourceError``. Support beyond
    ``SUPPORT_CAP`` is folded and tails of mass at most ``TRIM_TOL``
    are shed after every convolution (``_truncate_support``), pessimistically,
    preserving domination. The infinity mass composes as 1 - (1 - m_inf)^T
    plus at most (T - 1) * TRIM_TOL: each convolution adds at most TRIM_TOL,
    and composing two PLDs adds their excesses.
    """
    if T < 1:
        raise DomainError(f"T must be a positive integer, got {T!r}")
    square, result = pld, None
    while True:
        if T & 1:
            result = square if result is None else _pld_multiply(result, square)
        T >>= 1
        if not T:
            return result
        square = _pld_multiply(square, square)


def account_dpsgd(
    sigma: float, q: float, T: int, grid_step: float = DEFAULT_GRID_STEP
) -> DiscretePLD:
    """PLD of T DP-SGD steps with WOR subsampling, ratio q.

    One step releases the noised average of clipped gradients; normalizing
    by b/C gives per-entry contributions of norm <= 1, substitution
    sensitivity 2 and noise N(0, sigma^2 I), i.e. the base dominating pair
    P = N(2/sigma, 1), Q = N(0, 1). The subsampled profile is discretized
    with connect_the_dots on the narrowest symmetric grid (half-width at
    most ``EPS_MAX``) whose right tail is below ``TAIL_TOL``, and composed
    T times.
    """
    return next(account_dpsgd_many(sigma, q, T, 1, grid_step))


def account_dpsgd_many(sigma: float, q: float, steps: int, epochs: int,
                       grid_step: float = DEFAULT_GRID_STEP) -> Iterator[DiscretePLD]:
    """``account_dpsgd`` after each of ``epochs`` epochs of ``steps`` steps.

    The inputs are checked, the step PLD is discretized and composed into
    the epoch's PLD, ``compose_pld(step, steps)``, at the call. The returned
    iterator yields that PLD, then each later horizon as the previous one
    convolved with the epoch's: one multiply per ``next``, and a PLD the
    caller drops is freed once the next one is taken. By induction, horizon
    ``e * steps`` exceeds the exact infinity mass by at most
    ``(e * steps - 1) * TRIM_TOL``: each multiply adds the epoch's excess,
    at most ``(steps - 1) * TRIM_TOL``, plus one ``TRIM_TOL``.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if steps < 1 or epochs < 1:
        raise DomainError(f"steps and epochs must be positive integers, got {steps!r}, {epochs!r}")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise DomainError(f"grid step must be finite and positive, got {grid_step!r}")
    mu = 2.0 / sigma
    step_profile = PrivacyProfile(lambda eps: subsampled_profile(mu, q, np.exp(eps)))

    # Smallest grid half-width in the doubling sequence 1, 2, 4, ..., m_cap
    # (multiples of the step) whose right tail is below the per-step
    # truncation tolerance, from one array query. A grid of more than
    # MAX_LEN points is refused whatever its tail, so m_cap stops there.
    m_cap = math.ceil(min(EPS_MAX / grid_step, MAX_LEN))
    widths = [1 << j for j in range((m_cap - 1).bit_length())] + [m_cap]
    tails = step_profile.delta(np.array(widths) * grid_step)
    m = next((w for w, tail in zip(widths, tails) if tail < TAIL_TOL), m_cap)
    if 2 * m + 1 > MAX_LEN:
        raise ResourceError(
            f"grid step {grid_step!r} needs a step PLD of more than {MAX_LEN} "
            "points; use a coarser loss grid"
        )
    if m == m_cap and tails[-1] >= TAIL_TOL:
        logger.warning(
            "profile tail still %.2e at eps=%.1f; folding into infinity mass",
            tails[-1],
            m * grid_step,
        )
    grid = np.arange(-m, m + 1, dtype=float) * grid_step
    epoch = compose_pld(connect_the_dots(step_profile, grid), steps)
    return itertools.accumulate(itertools.repeat(epoch, epochs - 1), _pld_multiply, initial=epoch)


# ---------------------------------------------------------------------------
# GDP bound for noisy cyclic mini-batch GD, and the epsilon search
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


def find_epsilon(profile: PrivacyProfile | DiscretePLD, delta_target: float) -> float:
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
