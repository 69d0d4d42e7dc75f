"""Renyi-DP accounting: analytic oracles, monotonicity, and sigma search."""

import bisect
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpriv import accountant
from mlpriv.accountant import (
    BLOCK_EDGES,
    DEFAULT_ORDERS,
    EXP_ZERO_AT,
    SIGMA_HI,
    SIGMA_LO,
    SIGMA_REL_TOL,
    PrivacySpending,
    epsilon_for,
    rdp_curve,
    sigma_for,
    _block_stops,
    _packed_triangle,
    _spending,
    _to_dp,
)
from mlpriv.errors import DomainError, UnboundedError, UnsatisfiableError


def gaussian_epsilon(sigma: float, delta: float) -> float:
    """Independent oracle: min over the order grid of the q = 1, T = 1 bound
    with the closed-form Gaussian RDP curve alpha / (2 sigma^2)."""
    best = math.inf
    for alpha in DEFAULT_ORDERS:
        eps = (
            alpha / (2 * sigma**2)
            + math.log1p(-1.0 / alpha)
            - (math.log(delta) + math.log(alpha)) / (alpha - 1)
        )
        best = min(best, eps)
    return max(best, 0.0)


_LOG_FACTORIAL = [math.lgamma(n + 1) for n in range(max(DEFAULT_ORDERS) + 1)]


def binomial_sum_rdp(q: float, sigma: float, alpha: int) -> float:
    """Independent oracle: one order's binomial sum as a plain Python loop
    with math.lgamma log-factorials and a max-shifted log-sum-exp."""
    terms = [
        _LOG_FACTORIAL[alpha] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[alpha - k]
        + (alpha - k) * math.log1p(-q) + k * math.log(q) + k * (k - 1) / (2.0 * sigma * sigma)
        for k in range(alpha + 1)
    ]
    top = max(terms)
    return max((top + math.log(math.fsum(math.exp(t - top) for t in terms))) / (alpha - 1), 0.0)


def full_curve_spending(q, sigma, steps, delta):
    """Reference: epsilon_for with every order of the accountant's current
    order grid evaluated, no early stop."""
    orders = accountant.DEFAULT_ORDERS
    return _to_dp(orders, rdp_curve(q, sigma, orders) * float(steps), delta)


def full_curve_sigma(target, q, steps, delta):
    """Reference: sigma_for's bisection with the full curve at every step, on
    the accountant's current order grid and bracket."""
    lo, hi = accountant.SIGMA_LO, accountant.SIGMA_HI

    def eps(sigma):
        return full_curve_spending(q, sigma, steps, delta).epsilon

    e_hi = eps(hi)
    if e_hi > target:
        raise UnsatisfiableError(f"epsilon({hi}) = {e_hi} still exceeds {target}")
    e_lo = eps(lo)
    if e_lo < target:
        raise UnsatisfiableError(f"epsilon({lo}) = {e_lo} already below {target}")
    low, high = lo, hi
    while True:
        mid = 0.5 * (low + high)
        e = eps(mid)
        if abs(e - target) <= SIGMA_REL_TOL * target:
            while e > target:
                mid *= 1.0 + SIGMA_REL_TOL
                e = eps(mid)
            return mid
        if e > target:
            low = mid
        else:
            high = mid
        if high - low <= 1e-12 * high:
            return high


def early_stop_grid():
    """(q, sigma, [(steps, delta), ...]) for the early-stop test: 250 seeded
    random (q, sigma) with four (steps, delta) each, a fifth of them at edge
    sigmas; then sigma = 1e300 and inf composed over 1e16 and more steps. There
    the one-step RDP is 0 or ~1e-16 (rounding noise, not monotone) at each
    order, and the composed noise is of order 1."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(250):
        q = 1.0 if rng.random() < 0.1 else float(10 ** rng.uniform(-4, 0))
        if rng.random() < 0.2:
            sigma = float(rng.choice([1e-160, 1e-153, SIGMA_LO, 1e300, math.inf]))
        else:
            sigma = float(10 ** rng.uniform(math.log10(0.03), 2))
        uses = [(int(10 ** rng.uniform(0, 5)), float(10 ** rng.uniform(-12, math.log10(0.5))))
                for _ in range(4)]
        cases.append((q, sigma, uses))
    for sigma in (1e300, math.inf):
        for q in (0.01, 0.3, 0.7):
            cases.append((q, sigma, [(10**16, 1e-10), (10**16, 1e-3), (10**18, 1e-6)]))
    return cases


def dense_rdp_curve(q, sigma, orders):
    """Reference: rdp_curve's packed-triangle log-sum-exp with exp taken of
    every term (finite sigma, q < 1)."""
    starts, lengths, k, alpha_minus_k, k_k1, log_binom = _packed_triangle(orders)
    terms = alpha_minus_k * math.log1p(-q)
    terms += k * math.log(q)
    terms += log_binom
    terms += k_k1 / (2.0 * sigma * sigma)
    top = np.maximum.reduceat(terms, starts)
    terms -= np.repeat(top, lengths)
    is_top = terms == 0.0
    terms[is_top] = -np.inf
    ties = np.add.reduceat(is_top, starts, dtype=np.float64)
    values = np.log1p(np.add.reduceat(np.exp(terms), starts) / ties) + np.log(ties) + top
    values /= lengths - 2
    return np.maximum(values, 0.0)


class TestRdpCurve:
    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, (2, 3, 17, 256)], ids=["default", "sparse"])
    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 3.0, 1e3])
    @pytest.mark.parametrize("q", [1e-4, 0.01, 0.3, 0.999])
    def test_matches_per_order_oracle(self, q, sigma, orders):
        curve = rdp_curve(q, sigma, orders)
        assert curve.shape == (len(orders),)
        for alpha, value in zip(orders, curve):
            ref = binomial_sum_rdp(q, sigma, alpha)
            # ln C(alpha, k) is a difference of log-factorials as large as
            # ln(alpha!), so two evaluations of (alpha - 1) * rdp can agree only
            # to rounding of that size; near-zero values cannot agree to 1e-12
            # relative (q = 1e-4, sigma = 1e3, alpha = 2 gives rdp ~ 1e-14).
            scale = abs(ref) + _LOG_FACTORIAL[alpha] / (alpha - 1)
            assert abs(value - ref) <= 1e-12 * scale, (alpha, value, ref)

    @pytest.mark.parametrize("alpha", [2, 17, 32, 33, 257, 512])
    def test_log_binomials_match_exact_arithmetic(self, alpha):
        """The triangle's ln C(alpha, k) against the exact binomial's natural
        log at 40 digits, to 4 ulp of ln(alpha!), the size of the
        log-factorials it is a difference of. The per-order oracle's table is
        math.lgamma as well, so this is the table's independent check."""
        starts, lengths, _, _, _, log_binom = _packed_triangle(DEFAULT_ORDERS)
        i = DEFAULT_ORDERS.index(alpha)
        row = log_binom[starts[i]:starts[i] + lengths[i]]
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [float(Decimal(math.comb(alpha, k)).ln()) for k in range(alpha + 1)]
            bound = 4 * math.ulp(float(Decimal(math.factorial(alpha)).ln()))
        assert len(row) == alpha + 1
        errors = np.abs(row - exact)
        assert errors.max() <= bound, (int(np.argmax(errors)), errors.max() / bound * 4)

    @pytest.mark.parametrize("q, sigma", [(1e-4, 3.0), (0.3, 0.5), (0.999, 1e3), (1.0, 2.0)])
    def test_rdp_step_is_one_order_of_the_curve(self, q, sigma):
        full = rdp_curve(q, sigma, DEFAULT_ORDERS)
        for alpha in (2, 3, 17, 256, 512):
            assert rdp_curve(q, sigma, (alpha,))[0] == full[DEFAULT_ORDERS.index(alpha)]

    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, (2, 3, 17, 256)], ids=["default", "sparse"])
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("q", [1e-4, 0.01, 6 / 36, 0.3, 0.999])
    def test_equals_dense_exp_bit_for_bit(self, q, sigma, orders):
        assert rdp_curve(q, sigma, orders).tobytes() == dense_rdp_curve(q, sigma, orders).tobytes()

    def test_exp_is_zero_at_the_cutoff(self):
        below = np.array([EXP_ZERO_AT, np.nextafter(EXP_ZERO_AT, -np.inf), -1e4, -np.inf] * 16)
        assert np.exp(EXP_ZERO_AT) == 0.0
        assert not np.exp(below).any()

    def test_blocks_split_by_order_value(self):
        # 2..32, 33..64, 65..128, 129..256, 257..512
        assert _block_stops(DEFAULT_ORDERS) == (31, 63, 127, 255, 511)
        assert _block_stops((2, 3, 17, 256)) == (3, 4)
        assert _block_stops((40, 600)) == (1, 2)

    # sigma = 1e-153: the rows of orders 30 and up overflow to inf
    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 1.0, 4.0, 1e3, 1e-153])
    @pytest.mark.parametrize("q", [1e-4, 0.01, 6 / 36, 0.999, 1.0])
    def test_order_prefix_is_bit_identical(self, q, sigma):
        """Every block the accountant evaluates on its own holds the full
        curve's bytes at its orders."""
        for orders in (DEFAULT_ORDERS, (2, 3, 17, 256)):
            full = rdp_curve(q, sigma, orders)
            start = 0
            for stop in _block_stops(orders):
                assert rdp_curve(q, sigma, orders[start:stop]).tobytes() == full[start:stop].tobytes()
                start = stop

    @pytest.mark.parametrize("sigma", [1e-160, 5e-324])
    def test_vanishing_sigma_is_unbounded(self, sigma):
        # 1e-160: k(k-1)/(2 sigma^2) overflows to inf; 5e-324: sigma^2 underflows to 0
        assert all(v == math.inf for v in rdp_curve(0.01, sigma, DEFAULT_ORDERS))
        with pytest.raises(UnboundedError):
            epsilon_for(q=0.01, sigma=sigma, steps=1, delta=1e-5)

    @pytest.mark.parametrize("q, sigma, steps", [(0.5, 1e-153, 10**5), (1.0, 1e-160, 1)])
    def test_overflow_to_inf_warns_nothing(self, q, sigma, steps):
        # the CLI's stderr holds one error line, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedError):
                epsilon_for(q, sigma, steps, 1e-5)

    def test_overflowing_sigma_square_is_finite(self):
        spending = epsilon_for(q=0.01, sigma=1e300, steps=100, delta=1e-5)
        assert math.isfinite(spending.epsilon)
        assert spending.epsilon == epsilon_for(q=0.01, sigma=math.inf, steps=100, delta=1e-5).epsilon


class TestRdpStep:
    def test_full_batch_closed_form(self):
        assert rdp_curve(q=1.0, sigma=2.0, orders=(4,))[0] == pytest.approx(0.5, abs=1e-12)

    def test_binomial_sum_at_order_two(self):
        q = 0.01
        expected = math.log(1 + q**2 * (math.e - 1))
        assert rdp_curve(q=q, sigma=1.0, orders=(2,))[0] == pytest.approx(expected, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            epsilon_for(q=1.5, sigma=1.0, steps=1, delta=1e-5)
        with pytest.raises(DomainError):
            epsilon_for(q=0.5, sigma=0.0, steps=1, delta=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.floats(1e-4, 1.0),
        sigma=st.floats(0.3, 20.0),
        alpha=st.integers(2, 511),
    )
    def test_nonnegative_and_monotone_in_alpha(self, q, sigma, alpha):
        # the early stop needs this only to within its slack, at least 6e-11
        curve = rdp_curve(q, sigma, (alpha, alpha + 1))
        assert curve[0] >= 0.0
        assert curve[1] >= curve[0] - 1e-12


class TestCompose:
    """RDP composes additively: T steps convert T times the one-step curve."""

    ORDERS = (2, 3, 17, 256)

    def composed(self, q, sigma, steps):
        return _to_dp(self.ORDERS, rdp_curve(q, sigma, self.ORDERS) * steps, 1e-5)

    def test_identity(self, monkeypatch):
        monkeypatch.setattr(accountant, "DEFAULT_ORDERS", self.ORDERS)
        assert epsilon_for(0.01, 1.5, 1, 1e-5) == self.composed(0.01, 1.5, 1)

    def test_linearity(self, monkeypatch):
        # full batch: 4 steps at sigma cost alpha / (2 (sigma / 2)^2), one step at sigma / 2
        assert epsilon_for(1.0, 2.0, 4, 1e-5) == epsilon_for(1.0, 1.0, 1, 1e-5)
        monkeypatch.setattr(accountant, "DEFAULT_ORDERS", self.ORDERS)
        assert epsilon_for(0.01, 1.5, 10, 1e-5) == self.composed(0.01, 1.5, 10)


class TestRdpToDp:
    def test_single_order_formula(self):
        spending = _to_dp((2,), np.array([0.0]), delta=0.5)
        # ln(1 - 1/2) - (ln 0.5 + ln 2) / 1 = ln(1/2) - 0, clamped to 0
        assert spending.epsilon == 0.0
        assert spending.best_order == 2

    def test_all_infinite_is_unbounded(self):
        with pytest.raises(UnboundedError):
            _to_dp((2, 3), np.array([math.inf, math.inf]), delta=1e-5)

    def test_pointwise_larger_curve_never_smaller_epsilon(self):
        # more steps compose to a pointwise larger curve
        epsilons = [epsilon_for(0.1, 2.0, steps, 1e-5).epsilon for steps in (1, 10, 100, 1000)]
        assert epsilons == sorted(epsilons)


class TestEpsilonFor:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_full_batch_single_step_matches_gaussian_oracle(self, sigma, delta):
        spending = epsilon_for(q=1.0, sigma=sigma, steps=1, delta=delta)
        assert spending.epsilon == pytest.approx(gaussian_epsilon(sigma, delta), abs=1e-9)

    def test_monotone_grid(self):
        rng = np.random.default_rng(0)
        violations = 0
        for _ in range(200):
            q = float(rng.uniform(0.01, 1.0))
            sigma = float(rng.uniform(0.5, 8.0))
            steps = int(rng.integers(1, 500))
            delta = float(10.0 ** rng.uniform(-8, -3))
            base = epsilon_for(q, sigma, steps, delta).epsilon
            if epsilon_for(q, sigma * 1.5, steps, delta).epsilon > base + 1e-12:
                violations += 1
            if epsilon_for(q, sigma, steps * 2, delta).epsilon < base - 1e-12:
                violations += 1
            if epsilon_for(min(1.0, q * 1.5), sigma, steps, delta).epsilon < base - 1e-12:
                violations += 1
            if epsilon_for(q, sigma, steps, min(0.99, delta * 10)).epsilon > base + 1e-12:
                violations += 1
        assert violations == 0

    def test_early_stop_is_exact(self, monkeypatch):
        """epsilon_for's epsilon bits, best order and UnboundedError are the
        full curve's, and no block is evaluated after a row that composes to
        inf (every later row is infinite too)."""
        evaluated = []

        def recording_rdp_curve(q, sigma, orders):
            curve = rdp_curve(q, sigma, orders)
            evaluated.append(curve)
            return curve

        monkeypatch.setattr(accountant, "rdp_curve", recording_rdp_curve)
        best_blocks, cases, unbounded = set(), 0, 0
        for q, sigma, uses in early_stop_grid():
            curve = rdp_curve(q, sigma, DEFAULT_ORDERS)
            for steps, delta in uses:
                cases += 1
                evaluated.clear()
                case = (q, sigma, steps, delta)
                try:
                    with np.errstate(over="ignore"):
                        expected = _to_dp(DEFAULT_ORDERS, curve * float(steps), delta)
                except UnboundedError:
                    unbounded += 1
                    with pytest.raises(UnboundedError):
                        epsilon_for(q, sigma, steps, delta)
                else:
                    got = epsilon_for(q, sigma, steps, delta)
                    assert got.epsilon.hex() == expected.epsilon.hex(), case
                    assert got.best_order == expected.best_order, case
                    best_blocks.add(bisect.bisect_left(BLOCK_EDGES, got.best_order))
                assert all(float(rows[-1]) * steps < math.inf for rows in evaluated[:-1]), case
        assert cases >= 1000
        assert unbounded > 0
        assert best_blocks == set(range(len(BLOCK_EDGES) + 1))  # a best order in every block

    def test_early_stop_is_exact_for_any_nondecreasing_curve(self, monkeypatch):
        """The stop assumes only that RDP does not decrease with the order. On
        rdp_curve's curves epsilon(alpha) has had a single minimum, so even a
        stop that ignores the orders beyond a block passes the grid above;
        step curves, flat between seeded random jumps, give epsilon a second,
        lower minimum beyond a block edge."""
        curve = np.zeros(len(DEFAULT_ORDERS))
        monkeypatch.setattr(accountant, "rdp_curve",
                            lambda q, sigma, orders: curve[np.asarray(orders) - DEFAULT_ORDERS[0]])
        rng = np.random.default_rng(1)
        for _ in range(300):
            jumps = rng.exponential(10 ** rng.uniform(-3, 1), len(DEFAULT_ORDERS))
            curve[:] = np.cumsum(jumps * (rng.random(len(DEFAULT_ORDERS)) < rng.choice([0.003, 0.03, 0.3])))
            steps = int(rng.choice([1, 10, 1000]))
            delta = float(10 ** rng.uniform(-12, math.log10(0.5)))
            expected = _to_dp(DEFAULT_ORDERS, curve * float(steps), delta)
            got = epsilon_for(0.5, 1.0, steps, delta)
            assert (got.epsilon.hex(), got.best_order) == (expected.epsilon.hex(), expected.best_order)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            epsilon_for(q=0.0, sigma=1.0, steps=1, delta=1e-5)
        with pytest.raises(DomainError):
            epsilon_for(q=0.5, sigma=1.0, steps=0, delta=1e-5)
        with pytest.raises(DomainError):
            epsilon_for(q=0.5, sigma=1.0, steps=1, delta=1.0)


class TestSigmaFor:
    @pytest.mark.parametrize("sigma0", [0.7, 1.3, 3.0])
    def test_round_trip(self, sigma0):
        q, steps, delta = 0.05, 1000, 1e-5
        target = epsilon_for(q, sigma0, steps, delta).epsilon
        sigma = sigma_for(target, q=q, steps=steps, delta=delta)
        assert sigma == pytest.approx(sigma0, rel=1e-3)
        # the returned sigma must actually meet the target
        assert epsilon_for(q, sigma, steps, delta).epsilon <= target * (1 + 1e-6)

    def test_infinite_target_is_nonprivate(self):
        assert sigma_for(math.inf, q=0.1, steps=100, delta=1e-5) == 0.0

    @pytest.mark.parametrize("q, steps, delta", [(5.0, 100, 1e-5), (0.1, 0, 1e-5), (0.1, 100, 7.0)])
    def test_infinite_target_still_checks_inputs(self, q, steps, delta):
        with pytest.raises(DomainError):
            sigma_for(math.inf, q=q, steps=steps, delta=delta)

    def test_unsatisfiable_target(self, monkeypatch):
        monkeypatch.setattr(accountant, "SIGMA_HI", 1.0)
        with pytest.raises(UnsatisfiableError):
            sigma_for(1e-9, q=1.0, steps=10**6, delta=1e-12)

    @pytest.mark.parametrize("bracket", [(SIGMA_LO, SIGMA_HI), (0.05, 50.0)], ids=["default", "custom"])
    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, tuple(range(2, 20)), (2, 3, 17, 256)],
                             ids=["default", "short", "sparse"])
    @pytest.mark.parametrize("target, q, steps", [
        (4.0, 6 / 36, 60), (1.0, 0.01, 1000), (0.3, 0.01, 1000), (8.0, 1.0, 1), (0.5, 0.3, 60),
    ])
    def test_matches_full_curve_bisection(self, target, q, steps, orders, bracket, monkeypatch):
        monkeypatch.setattr(accountant, "DEFAULT_ORDERS", orders)
        monkeypatch.setattr(accountant, "SIGMA_LO", bracket[0])
        monkeypatch.setattr(accountant, "SIGMA_HI", bracket[1])
        try:
            expected = full_curve_sigma(target, q, steps, 1e-5)
        except UnsatisfiableError as exc:
            with pytest.raises(UnsatisfiableError) as got:
                sigma_for(target, q, steps, 1e-5)
            assert str(got.value) == str(exc)
        else:
            assert sigma_for(target, q, steps, 1e-5).hex() == expected.hex()

    @pytest.mark.parametrize("target, q, steps, delta", [
        (1.112946528624422, 0.07124891386210905, 506, 2.703604407611525e-10),
        (0.5400145845391741, 0.2725671936595423, 1165, 2.114442460356004e-10),
        (0.11704948022266273, 0.026563293175773252, 5477, 7.083546680026608e-10),
    ])
    def test_matches_full_curve_where_a_step_lands_within_tol(self, target, q, steps, delta):
        """Seeded random cases at the default orders and bracket where a
        bisection step's full epsilon lies within tol above the target: a
        settle threshold of target + tol instead of target - tol would move
        high there, where the full curve returns."""
        expected = full_curve_sigma(target, q, steps, delta)
        assert sigma_for(target, q, steps, delta).hex() == expected.hex()

    @pytest.mark.parametrize("target, steps, lo, hi, side", [
        (0.1, 100, SIGMA_LO, 3.0, "hi"),    # eps(3) = 0.129 (order 81), orders 2..32 give 0.247
        (0.25, 1000, 5.0, SIGMA_HI, "lo"),  # eps(5) = 0.234 (order 60), orders 2..32 give 0.294
        (0.3, 100, 3.0, SIGMA_HI, "lo"),    # eps(3) = 0.129, orders 2..32 give 0.247 > 0.3 - tol
    ])
    def test_bracket_errors_report_the_full_epsilon(self, target, steps, lo, hi, side, monkeypatch):
        """The message holds the full epsilon, never the bound of the first
        block (orders 2..32) at which a settling search would stop."""
        sigma = hi if side == "hi" else lo
        full = full_curve_spending(0.01, sigma, steps, 1e-5).epsilon
        first = DEFAULT_ORDERS[:31]
        bound = _to_dp(first, rdp_curve(0.01, sigma, first) * float(steps), 1e-5).epsilon
        assert bound > full
        monkeypatch.setattr(accountant, "SIGMA_LO", lo)
        monkeypatch.setattr(accountant, "SIGMA_HI", hi)
        with pytest.raises(UnsatisfiableError, match="^" + re.escape(f"epsilon({sigma}) = {full} ")):
            sigma_for(target, q=0.01, steps=steps, delta=1e-5)

    @pytest.mark.parametrize("target, q, steps", [
        (4.0, 32 / 240, 1500),  # mlpriv train's target epsilon in the CLI pipeline
        (1.0, 0.01, 1000), (4.0, 0.01, 1000), (1.0, 0.05, 1000), (4.0, 0.05, 1000),
    ])
    def test_cli_queries_evaluate_one_block_per_search(self, target, q, steps, monkeypatch):
        """At the CLI's target-epsilon queries every epsilon search makes one
        rdp_curve call, over the block of orders 2..32, 22 to 28 calls per
        query: the bisection's far-off sigmas, whose best orders lie in later
        blocks, settle below the target in the first block."""
        evaluated, searches = [], []

        def recording_rdp_curve(q, sigma, orders):
            evaluated.append(tuple(orders))
            return rdp_curve(q, sigma, orders)

        def recording_spending(*args):
            searches.append(args)
            return _spending(*args)

        monkeypatch.setattr(accountant, "rdp_curve", recording_rdp_curve)
        monkeypatch.setattr(accountant, "_spending", recording_spending)
        sigma_for(target, q, steps, 1e-5)
        assert set(evaluated) == {DEFAULT_ORDERS[:31]}
        assert len(evaluated) == len(searches)
        assert 22 <= len(evaluated) <= 28

    def test_nonpositive_target_rejected(self):
        with pytest.raises(DomainError):
            sigma_for(0.0, q=0.1, steps=100, delta=1e-5)

    @pytest.mark.parametrize("target", [-math.inf, math.nan])
    def test_nan_or_negative_infinite_target_rejected(self, target):
        with pytest.raises(DomainError):
            sigma_for(target, q=0.1, steps=100, delta=1e-5)


class TestDataclasses:
    def test_mechanism_params_validation(self):
        with pytest.raises(DomainError):
            epsilon_for(q=0.0, sigma=1.0, steps=1, delta=1e-5)
        with pytest.raises(DomainError):
            epsilon_for(q=0.5, sigma=math.nan, steps=1, delta=1e-5)
        with pytest.raises(DomainError):
            epsilon_for(q=0.5, sigma=1.0, steps=10**400, delta=1e-5)

    def test_privacy_spending_validation(self):
        with pytest.raises(DomainError):
            PrivacySpending(epsilon=-1.0, best_order=2)
        with pytest.raises(DomainError):
            PrivacySpending(epsilon=math.nan, best_order=2)
