"""Renyi-DP accounting for the subsampled Gaussian mechanism.

One-step RDP at integer orders via the exact binomial expansion (evaluated
in log space), linear composition over steps, conversion to (epsilon,
delta)-DP with the improved bound

    eps = min_alpha [ eps_rdp(alpha) + ln(1 - 1/alpha)
                      - (ln delta + ln alpha) / (alpha - 1) ],

and bisection for the smallest noise multiplier meeting a target epsilon.

The minimum stops early. At an integer order the subsampled Gaussian's RDP
is a Renyi divergence (Mironov, Talwar & Zhang 2019), which never decreases
as the order grows (van Erven & Harremoes 2014, Thm 3). So once the orders
evaluated so far show that no higher order can beat the best epsilon, the
higher orders are never computed. By the same fact a bisection step of
sigma_for stops as soon as the best epsilon so far lies below the target by
more than the tolerance, since the full epsilon then does too.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnboundedError, UnsatisfiableError

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 513))

SIGMA_LO = 1e-3
SIGMA_HI = 1e3
SIGMA_REL_TOL = 1e-4

# _spending evaluates the orders in blocks that end at these order values
# (2..32, 33..64, 65..128, 129..256) and one block above the last edge
BLOCK_EDGES = (32, 64, 128, 256)
# _spending's allowance for rounding when T rdp at one order bounds T rdp at a
# higher order from below: ten times the 1e-12 (|rdp| + ln(alpha!) / (alpha - 1))
# to which rdp_curve agrees with an exact per-order sum, with ln(alpha!) /
# (alpha - 1) <= ln(max order). The T ln(max order) part also covers a few ulps
# of the epsilon arithmetic whenever there is a second block (max order >= 33).
PRUNE_SLACK = 1e-11
# np.exp returns exactly 0.0 at and below this argument (e^-745.14 is half the
# smallest subnormal), so rdp_curve leaves such terms at zero instead of calling exp
EXP_ZERO_AT = -746.0


@dataclass(frozen=True)
class PrivacySpending:
    epsilon: float
    best_order: int

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def _check(q: float, sigma: float, steps: int, delta: float) -> None:
    """Raise DomainError unless q, sigma, steps and delta describe a subsampled
    Gaussian mechanism: rate q, noise sigma, T steps, delta."""
    if not 0.0 < q <= 1.0:
        raise DomainError(f"sampling rate q must be in (0, 1], got {q}")
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not 1 <= steps <= sys.float_info.max:
        raise DomainError(f"steps must be in [1, {sys.float_info.max:g}], got {steps}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")


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


def _epsilons(orders: tuple[int, ...], curve: np.ndarray, delta: float) -> np.ndarray:
    """Each order's epsilon for an RDP curve given at the first len(curve)
    orders: the same correctly rounded operations per order as

        eps_rdp + ln(1 - 1/alpha) - (ln delta + ln alpha) / (alpha - 1)."""
    log1m, log_alpha, alpha_minus_1 = (a[:len(curve)] for a in _order_terms(orders))
    eps = curve + log1m
    eps -= (math.log(delta) + log_alpha) / alpha_minus_1
    return eps


def _to_dp(orders: tuple[int, ...], curve: np.ndarray, delta: float) -> PrivacySpending:
    """(epsilon, delta)-DP of an RDP curve given at the first len(curve)
    orders, as an array: ``_epsilons``, then the first minimum over the
    finite entries."""
    finite = np.isfinite(curve)
    if not finite.any():
        raise UnboundedError("RDP infinite at every order")
    eps = _epsilons(orders, curve, delta)
    eps[~finite] = math.inf
    best = int(np.argmin(eps))
    return PrivacySpending(epsilon=max(float(eps[best]), 0.0), best_order=orders[best])


@lru_cache(maxsize=4)
def _block_stops(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Cached end index of each non-empty block of the ascending orders,
    split at BLOCK_EDGES."""
    stops = {bisect.bisect_right(orders, edge) for edge in BLOCK_EDGES}
    return tuple(sorted((stops | {len(orders)}) - {0}))


@lru_cache(maxsize=16)
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
    log_factorial = np.array([math.lgamma(n) for n in range(1, int(alphas.max()) + 2)])
    log_binom = log_factorial[alpha_flat] - log_factorial[k] - log_factorial[alpha_flat - k]
    k = k.astype(np.float64)
    arrays = (starts, lengths, k, alpha_flat - k, k * (k - 1), log_binom)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def rdp_curve(q: float, sigma: float, orders: tuple[int, ...]) -> np.ndarray:
    """One-step RDP of the sampled Gaussian mechanism at every order at once,
    as an array aligned with orders.

    The terms of all orders' binomial sums sit in one packed triangle (row
    k = 0..alpha per order), reduced by a segmented log-sum-exp. Only terms
    above EXP_ZERO_AT go through exp; the rest are the 0.0 exp would return, so
    the segmented sum adds the same array in the same order.
    """
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0:  # sigma^2 underflows: the k = 2 term is infinite at every order
        return np.full(len(orders), math.inf)
    if q == 1.0:
        with np.errstate(over="ignore"):  # a tiny sigma overflows to inf
            return np.array(orders, dtype=np.float64) / two_var
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
    return np.maximum(values, 0.0)


def epsilon_for(q: float, sigma: float, steps: int, delta: float) -> PrivacySpending:
    """Total (epsilon, delta) spending of T subsampled Gaussian steps."""
    _check(q, sigma, steps, delta)
    return _spending(q, sigma, steps, delta)


def _spending(q: float, sigma: float, steps: int, delta: float,
              settle_below: float = -math.inf) -> PrivacySpending:
    """epsilon_for of checked values over DEFAULT_ORDERS: the one-step curve
    composed over the steps (RDP adds up, one product per order), then
    ``_to_dp``, evaluated block by block (``_block_stops``). The search stops
    after a block when either rule shows the rest cannot matter:

    - Every higher order's RDP is at least that of the block's last order
      alpha_j, so each higher order's epsilon is at least T rdp(alpha_j) plus
      the smallest g(alpha) = ln(1 - 1/alpha) - (ln delta + ln alpha) /
      (alpha - 1) above alpha_j. When that bound, less a rounding slack
      (PRUNE_SLACK), exceeds the best epsilon so far, or T rdp(alpha_j) is
      infinite, no higher order can reach the minimum: the epsilon, best
      order and UnboundedError are those of the full curve, since a later
      tie would lose to the first minimum anyway.
    - When the best epsilon so far is below settle_below, more orders can
      only lower the minimum, so the full epsilon is below settle_below too.
      The returned spending is then an upper bound on the full curve's, not
      its value; a caller that needs only which side of settle_below epsilon
      lies on learns it from either. The default never settles.
    """
    orders = DEFAULT_ORDERS
    steps = float(steps)
    stops = _block_stops(orders)
    curve = np.empty(len(orders))
    start = 0
    for stop in stops:
        block = curve[start:stop]
        with np.errstate(over="ignore"):  # T * rdp may overflow to inf, as rdp itself may
            np.multiply(rdp_curve(q, sigma, orders[start:stop]), steps, out=block)
        spending = _to_dp(orders, curve[:stop], delta)
        top = float(block[-1])
        if stop == len(orders) or top == math.inf or spending.epsilon < settle_below:
            break
        slack = PRUNE_SLACK * (abs(top) + steps * math.log(orders[-1]))
        # the smallest g over the orders above the block
        later_g = _epsilons(orders, np.zeros(len(orders)), delta)[stop:].min()
        if top - slack + later_g > spending.epsilon:
            break
        start = stop
    return spending


def sigma_for(target_epsilon: float, q: float, steps: int, delta: float) -> float:
    """Smallest noise multiplier in [SIGMA_LO, SIGMA_HI] whose total epsilon
    meets the target.

    target_epsilon = inf means non-private training and returns sigma = 0,
    once q, steps and delta are checked.

    The check at SIGMA_HI, each bisection step and the final nudge ask
    ``_spending`` to settle below target - tol: a value it settles is below
    the target by more than the tolerance, as the full epsilon then is, so it
    takes the same branch (sigma high enough) the full curve would, and every
    other value it returns is the full curve's. The check at SIGMA_LO uses
    epsilon_for, since its error reports the full epsilon.
    """
    if math.isnan(target_epsilon) or target_epsilon <= 0:
        raise DomainError(f"target epsilon must be > 0, got {target_epsilon}")
    lo, hi = SIGMA_LO, SIGMA_HI
    _check(q, hi, steps, delta)
    if target_epsilon == math.inf:
        return 0.0

    tol = SIGMA_REL_TOL * target_epsilon

    def eps(sigma: float) -> float:
        """The full epsilon, or any value below target - tol when it is below."""
        return _spending(q, sigma, steps, delta, target_epsilon - tol).epsilon

    e_hi = eps(hi)
    if e_hi > target_epsilon:
        raise UnsatisfiableError(f"epsilon({hi}) = {e_hi} still exceeds {target_epsilon}")
    e_lo = epsilon_for(q, lo, steps, delta).epsilon
    if e_lo < target_epsilon:
        raise UnsatisfiableError(f"epsilon({lo}) = {e_lo} already below {target_epsilon}")

    low, high = lo, hi  # eps(low) >= target >= eps(high); eps decreasing in sigma
    while True:
        mid = 0.5 * (low + high)
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
