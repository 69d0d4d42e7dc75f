"""Renyi-DP accounting for the subsampled Gaussian mechanism.

One-step RDP at integer orders via the exact binomial expansion (evaluated
in log space), linear composition over steps, conversion to (epsilon,
delta)-DP with the improved bound

    eps = min_alpha [ eps_rdp(alpha) + ln(1 - 1/alpha)
                      - (ln delta + ln alpha) / (alpha - 1) ],

and bisection for the smallest noise multiplier meeting a target epsilon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, EmptyOrdersError, UnboundedError, UnsatisfiableError

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 513))

SIGMA_LO = 1e-3
SIGMA_HI = 1e3
SIGMA_REL_TOL = 1e-4

# sigma_for bounds epsilon from above with the orders[:BOUND_ORDERS] (2..32 of the
# default grid) before it pays for the full curve
BOUND_ORDERS = 31
# np.exp returns exactly 0.0 at and below this argument (e^-745.14 is half the
# smallest subnormal), so rdp_curve leaves such terms at zero instead of calling exp
EXP_ZERO_AT = -746.0


@dataclass(frozen=True)
class MechanismParams:
    """Subsampled Gaussian mechanism: rate q, noise sigma, T steps, delta."""

    q: float
    sigma: float
    steps: int
    delta: float
    orders: tuple[int, ...] = DEFAULT_ORDERS

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise DomainError(f"sampling rate q must be in (0, 1], got {self.q}")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if not 1 <= self.steps <= sys.float_info.max:
            raise DomainError(f"steps must be in [1, {sys.float_info.max:g}], got {self.steps}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")
        orders = tuple(self.orders)
        if not orders:
            raise EmptyOrdersError("need at least one Renyi order")
        if any(a <= 1 for a in orders) or list(orders) != sorted(set(orders)):
            raise DomainError("orders must be strictly ascending and all > 1")
        object.__setattr__(self, "orders", orders)


@dataclass(frozen=True)
class PrivacySpending:
    epsilon: float
    best_order: int

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def rdp_step(q: float, sigma: float, alpha: int) -> float:
    """One-step RDP of the sampled Gaussian mechanism at integer order alpha.

    (1/(alpha-1)) * ln sum_{k=0..alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                                        exp(k(k-1) / (2 sigma^2))

    q = 0 returns 0 (no data touched); q = 1 reduces to alpha/(2 sigma^2).
    """
    if q == 0.0:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must be in [0, 1], got {q}")
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    alpha = int(alpha)
    if alpha < 2:
        raise DomainError(f"alpha must be an integer >= 2, got {alpha}")
    return rdp_curve(q, sigma, (alpha,))[alpha]


def compose(per_step_rdp: float, steps: int) -> float:
    """RDP composes additively: T steps cost T times one step."""
    if per_step_rdp < 0:
        raise DomainError("per-step RDP must be >= 0")
    return per_step_rdp * steps


def rdp_to_dp(rdp_at_orders: dict[int, float], delta: float) -> PrivacySpending:
    """Convert an RDP curve to (epsilon, delta)-DP, minimizing over orders;
    the first order reaching the minimum wins, and non-finite entries are
    skipped."""
    if not rdp_at_orders:
        raise EmptyOrdersError("need at least one Renyi order")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    curve = np.fromiter(rdp_at_orders.values(), dtype=np.float64, count=len(rdp_at_orders))
    return _to_dp(tuple(rdp_at_orders), curve, delta)


@lru_cache(maxsize=4)
def _order_terms(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached per-order constants of the conversion, (ln(1 - 1/alpha), ln alpha,
    alpha - 1), computed with ``math`` as the one-order formula is."""
    arrays = tuple(
        np.array(values, dtype=np.float64)
        for values in zip(*((math.log1p(-1.0 / a), math.log(a), a - 1) for a in orders))
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _to_dp(orders: tuple[int, ...], curve: np.ndarray, delta: float) -> PrivacySpending:
    """``rdp_to_dp`` of the curve (values at orders) as an array: the same
    correctly rounded operations per order as

        eps_rdp + ln(1 - 1/alpha) - (ln delta + ln alpha) / (alpha - 1),

    then the first minimum over the finite entries."""
    log1m, log_alpha, alpha_minus_1 = _order_terms(orders)
    finite = np.isfinite(curve)
    if not finite.any():
        raise UnboundedError("RDP infinite at every order")
    eps = curve + log1m
    eps -= (math.log(delta) + log_alpha) / alpha_minus_1
    eps[~finite] = math.inf
    best = int(np.argmin(eps))
    return PrivacySpending(epsilon=max(float(eps[best]), 0.0), best_order=orders[best])


@lru_cache(maxsize=4)
def _packed_triangle(orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Cached rows k = 0..alpha of every order, laid end to end in flat arrays.

    Returns (starts, lengths, k, alpha - k, k(k-1), ln C(alpha, k)); starts and
    lengths delimit each order's row for the segmented reductions.
    """
    alphas = np.asarray(orders, dtype=np.int64)
    lengths = alphas + 1
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    alpha_flat = np.repeat(alphas, lengths)
    k = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    log_factorial = gammaln(np.arange(int(alphas.max()) + 2, dtype=np.float64))[1:]
    log_binom = log_factorial[alpha_flat] - log_factorial[k] - log_factorial[alpha_flat - k]
    k = k.astype(np.float64)
    arrays = (starts, lengths, k, alpha_flat - k, k * (k - 1), log_binom)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def rdp_curve(q: float, sigma: float, orders: tuple[int, ...]) -> dict[int, float]:
    """One-step RDP of the sampled Gaussian mechanism at every order at once.

    The terms of all orders' binomial sums sit in one packed triangle (row
    k = 0..alpha per order), reduced by a segmented log-sum-exp. Only terms
    above EXP_ZERO_AT go through exp; the rest are the 0.0 exp would return, so
    the segmented sum adds the same array in the same order.
    """
    orders = tuple(int(a) for a in orders)
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0:  # sigma^2 underflows: the k = 2 term is infinite at every order
        return dict.fromkeys(orders, math.inf)
    if q == 1.0:
        return {a: a / two_var for a in orders}
    starts, lengths, k, alpha_minus_k, k_k1, log_binom = _packed_triangle(orders)
    # terms = ln C(alpha, k) + (alpha - k) ln(1-q) + k ln q + k(k-1)/(2 sigma^2)
    terms = alpha_minus_k * math.log1p(-q)
    terms += k * math.log(q)
    terms += log_binom
    # a tiny sigma overflows k(k-1)/(2 sigma^2) to inf; such rows are set to inf below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms += k_k1 / two_var
        top = np.maximum.reduceat(terms, starts)
        terms -= np.repeat(top, lengths)
        # each row's largest terms stay out of the sum and enter through log1p
        # and a tie count, as in scipy's logsumexp, for precision when the sum is near 1
        is_top = terms == 0.0
        live = terms > EXP_ZERO_AT
        live &= ~is_top
        powers = np.zeros_like(terms)
        np.exp(terms, out=powers, where=live)
        ties = np.add.reduceat(is_top, starts, dtype=np.float64)
        values = np.log1p(np.add.reduceat(powers, starts) / ties) + np.log(ties) + top
    values[np.isinf(top)] = np.inf
    values /= lengths - 2
    return dict(zip(orders, np.maximum(values, 0.0).tolist()))


def epsilon_for(
    q: float,
    sigma: float,
    steps: int,
    delta: float,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
) -> PrivacySpending:
    """Total (epsilon, delta) spending of T subsampled Gaussian steps."""
    return _spending(MechanismParams(q=q, sigma=sigma, steps=steps, delta=delta, orders=orders))


def _spending(params: MechanismParams) -> PrivacySpending:
    """epsilon_for of validated params: the one-step curve composed over
    params.steps (as ``compose``, one product per order), then ``_to_dp``."""
    one_step = rdp_curve(params.q, params.sigma, params.orders)
    curve = np.fromiter(one_step.values(), dtype=np.float64, count=len(one_step))
    return _to_dp(params.orders, curve * float(params.steps), params.delta)


def sigma_for(
    target_epsilon: float,
    q: float,
    steps: int,
    delta: float,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    lo: float = SIGMA_LO,
    hi: float = SIGMA_HI,
) -> float:
    """Smallest noise multiplier whose total epsilon meets the target.

    target_epsilon = inf means non-private training and returns sigma = 0.

    The check at hi and each bisection step first take epsilon over
    orders[:BOUND_ORDERS], a minimum over a subset of the full curve's values
    and so an upper bound on the full epsilon. A bound below the target by
    more than the tolerance settles the check or step (sigma high enough)
    exactly as the full curve would; every other step, the stopping test, the
    final nudge and the check at lo use the full curve.
    """
    if math.isnan(target_epsilon) or target_epsilon <= 0:
        raise DomainError(f"target epsilon must be > 0, got {target_epsilon}")
    if target_epsilon == math.inf:
        return 0.0

    orders = tuple(orders)
    prefix = orders[:BOUND_ORDERS]
    tol = SIGMA_REL_TOL * target_epsilon

    def eps(sigma: float) -> float:
        return epsilon_for(q, sigma, steps, delta, orders).epsilon

    def below_target(sigma: float) -> bool:
        """The prefix bound alone shows eps(sigma) below the target beyond tol."""
        if prefix == orders:
            return False
        try:
            bound = _spending(MechanismParams(q, sigma, steps, delta, prefix)).epsilon
        except UnboundedError:  # infinite at every prefix order: no bound
            return False
        return bound < target_epsilon and abs(bound - target_epsilon) > tol

    if not below_target(hi):  # the error reports the full epsilon, never the bound
        e_hi = eps(hi)
        if e_hi > target_epsilon:
            raise UnsatisfiableError(f"epsilon({hi}) = {e_hi} still exceeds {target_epsilon}")
    e_lo = eps(lo)
    if e_lo < target_epsilon:
        raise UnsatisfiableError(f"epsilon({lo}) = {e_lo} already below {target_epsilon}")

    low, high = lo, hi  # eps(low) >= target >= eps(high); eps decreasing in sigma
    while True:
        mid = 0.5 * (low + high)
        if below_target(mid):
            high = mid
        else:
            e = eps(mid)
            if abs(e - target_epsilon) <= tol:
                # nudge up until the target is actually met, preserving <= contract
                while e > target_epsilon:
                    mid *= 1.0 + SIGMA_REL_TOL
                    e = eps(mid)
                return mid
            if e > target_epsilon:
                low = mid
            else:
                high = mid
        if high - low <= 1e-12 * high:
            return high
