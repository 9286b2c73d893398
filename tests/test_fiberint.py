"""Fiber-integral backend and the exact Segre push-forward identity."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from conftest import rand_exact_hermitian_curvature, rand_qqi

from parachern.forms import (
    CurvatureMatrix,
    FormValue,
    QQi,
    chern_forms,
    exact_mode,
    random_exact_curvature,
    segre_forms,
)
from parachern import fiberint
from parachern.fiberint import (
    FIRST_STEP,
    MC_BLOCK_ROWS,
    QuadratureError,
    _proposal_blocks,
    moment_exact,
    monte_carlo_moment,
    monte_carlo_oracle,
    scalar_fiber_integral,
    symbolic_pushforward,
    unitary_invariance_probe,
)


def householder_unitary(v):
    """Exact unitary I - (2/|v|^2) v v* from a Gaussian-rational vector."""
    v = [x if isinstance(x, QQi) else QQi(x) for x in v]
    r = len(v)
    norm2 = QQi()
    for x in v:
        norm2 = norm2 + x * x.conjugate()
    if not norm2:
        raise ValueError("zero vector")
    two_over = QQi(2) / norm2
    U = [
        [
            (QQi(1) if i == j else QQi()) - two_over * v[i] * v[j].conjugate()
            for j in range(r)
        ]
        for i in range(r)
    ]
    return U


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


class TestMoments:
    @pytest.mark.parametrize("m,s", [((0,), 2), ((1,), 3), ((2,), 5), ((3,), 7)])
    def test_one_dim_against_quadrature(self, m, s):
        val, _ = integrate.quad(lambda t: t ** m[0] / (1 + t) ** s, 0, np.inf)
        assert abs(float(moment_exact(m, s)) - val) < 1e-10

    def test_two_dim_against_nested_quadrature(self):
        m, s = (1, 2), 7

        def inner(t1):
            v, _ = integrate.quad(
                lambda t2: t1 ** m[0] * t2 ** m[1] / (1 + t1 + t2) ** s, 0, np.inf
            )
            return v

        val, _ = integrate.quad(inner, 0, np.inf)
        assert abs(float(moment_exact(m, s)) - val) < 1e-9

    def test_base_case_r3(self):
        # integral of (1+t1+t2)^{-3} over the quadrant is 1/2
        assert moment_exact((0, 0), 3) == Fraction(1, 2)

    @pytest.mark.parametrize("m,s", [((2, 1), 6), ((0, 0, 0), 4)])
    def test_monte_carlo_agreement(self, m, s):
        est, se = monte_carlo_moment(m, s, budget=400_000, seed=11)
        assert abs(est - float(moment_exact(m, s))) < 4 * se

    def test_divergent_moment_raises(self):
        with pytest.raises(ValueError):
            moment_exact((2,), 3)

    @pytest.mark.parametrize("m,s", [((1,), 3.7), ((1.5,), 5), ((Fraction(1, 2),), 5),
                                     ((0, 1), Fraction(9, 2))])
    def test_non_integer_arguments_raise(self, m, s):
        """No argument is truncated to an integer: moment_exact([1], 3.7)
        does not return the value at s = 3."""
        with pytest.raises(ValueError, match="integer"):
            moment_exact(m, s)

    @pytest.mark.parametrize("m,s", [((1.5,), 5), ((1,), 3.7), ((Fraction(1, 2),), 5),
                                     ((0, 1), Fraction(9, 2))])
    def test_monte_carlo_non_integer_arguments_raise(self, m, s):
        """monte_carlo_moment([1.5], 5) is not the m = 1 estimate."""
        with pytest.raises(ValueError, match="integer"):
            monte_carlo_moment(m, s, budget=1000, seed=1)

    @pytest.mark.parametrize("m,s", [((2,), 3), ((0, 0), 2), ((1, 1), 4), ((-1,), 5)])
    def test_divergent_moments_raise_in_both_routes(self, m, s):
        """monte_carlo_moment([2], 3) returns no finite estimate of a
        divergent integral, and a negative m_i diverges at w_i = 0."""
        with pytest.raises(ValueError, match="diverges"):
            moment_exact(m, s)
        with pytest.raises(ValueError, match="diverges"):
            monte_carlo_moment(m, s, budget=1000, seed=1)

    def test_numpy_integers_are_integers(self):
        assert moment_exact(np.array([1, 0]), np.int64(5)) == moment_exact((1, 0), 5)


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------


class TestScalarIntegral:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_closed_form(self, r):
        rng = np.random.default_rng(r)
        c = rng.uniform(0.5, 2.0, size=r)
        q = scalar_fiber_integral(c)
        assert q.error <= 5e-9
        assert abs(q.value * np.prod(c) - 1) < 1e-6

    def test_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            r = int(rng.integers(2, 5))
            c = rng.uniform(0.5, 2.0, size=r)
            val = scalar_fiber_integral(c).value
            assert abs(val * np.prod(c) - 1) < 1e-6

    def test_monte_carlo_three_sigma(self):
        c = [1.3, 0.7, 1.9, 0.55]
        val = scalar_fiber_integral(c).value
        est, se = monte_carlo_oracle(c, budget=200_000, seed=5)
        assert abs(val - est) < 3 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scalar_fiber_integral([1.0, -0.5])

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            monte_carlo_oracle([1.0, 1.0], budget=10)

    @pytest.mark.parametrize("budget", [0, 1, 99])
    def test_both_monte_carlo_routes_reject_a_tiny_budget(self, budget):
        """Below 100 draws there is no standard error: both estimators raise a
        ValueError that names budget, not a ZeroDivisionError."""
        with pytest.raises(ValueError, match="budget"):
            monte_carlo_oracle([1.0, 2.0], budget=budget)
        with pytest.raises(ValueError, match="budget"):
            monte_carlo_moment([1], 5, budget=budget)

    @pytest.mark.parametrize("c", [[1.0] * 5, [1e-3, 1.0, 1e3, 1.0, 1.0], [1.0] * 6])
    def test_grid_over_budget_raises_before_allocating(self, c):
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="budget"):
            scalar_fiber_integral(c, tol=1e-10)
        assert time.perf_counter() - start < 1.0


def rel_error(c, value):
    """Relative error of value against the closed form, in exact arithmetic."""
    exact = 1 / math.prod(Fraction(x) for x in c)
    return float(abs(Fraction(value) - exact) / exact)


# c spread over six decades, a large common scale, one case per length, and
# five coefficients, which need tol >= 1e-9 to fit the grid budget
ESTIMATE_CASES = [
    ([1.0, 20.0, 0.05], 1e-10),
    ([0.8, 1.5, 2.5, 1.2], 1e-10),
    ([1e3] * 4, 1e-10),
    ([1e-3, 1.0, 1e3, 1.0], 1e-10),
    ([1.0] * 5, 1e-9),
]


def window_indices(c, q):
    """Node indices k, s = k h, of each axis of the grid q was evaluated on."""
    return [
        np.arange(math.ceil((m - q.window) / q.step), math.floor((m + q.window) / q.step) + 1)
        for m in (math.log(c[0] / x) for x in c[1:])
    ]


def dense_trapezoid_sums(c, h, ks):
    """fiberint._trapezoid_sums on the whole grid at once: one broadcast,
    numpy's even- and odd-index sums along the last axis, and math.fsum over
    the rows of each parity class.  Reference for the bits."""
    r, d = len(c), len(c) - 1
    S, W, P = np.full([1] * d, c[0]), np.ones([1] * d), np.zeros([1] * d, int)
    for i, k in enumerate(ks):
        t = np.exp(h * k).reshape([-1 if j == i else 1 for j in range(d)])
        S = S + c[i + 1] * t
        if i < d - 1:
            W, P = W * t, P + (k % 2 << i).reshape(t.shape)
    v = S**-r
    v *= W
    v *= t
    v, P, first = v.reshape(-1, ks[-1].size), P.reshape(-1), ks[-1][0] % 2
    sums = [v[:, first::2].sum(axis=1), v[:, 1 - first :: 2].sum(axis=1)]
    classes = np.array([math.fsum(x[P == p]) for x in sums for p in range(2 ** (d - 1))])
    scale = math.factorial(d) * h**d
    return scale * math.fsum(classes), scale * 2**d * classes


# c and how many rows of the grid go in one block of the second evaluation
BIT_CASES = [
    ([1.3, 0.7], 10),
    ([2.0, 0.3], 10),
    ([0.05, 7.0], 10),
    ([1.0, 2.0, 0.5], 10),
    ([0.5, 1.7, 0.9], 10),
    ([1.0, 20.0, 0.05], 10),
    ([0.8, 1.5, 2.5, 1.2], 3),
    ([1.3, 0.7, 1.9, 0.55], 4),
    ([10.0, 3.0, 5.0, 4.0], 5),
]


class TestBlockedQuadrature:
    """The trapezoid rule in log t: its value, its error estimate, the
    nested grids and the blocks of bounded size it is evaluated in."""

    @pytest.mark.parametrize("leaf", [None, 1000])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("c,rows", BIT_CASES)
    def test_same_bits_as_dense_grid(self, monkeypatch, c, rows, tol, leaf):
        # blocks of leaf points (None: the default), then of a few whole rows
        if leaf:
            monkeypatch.setattr(fiberint, "BLOCK_POINTS", leaf)
        q = scalar_fiber_integral(c, tol=tol)
        ks = window_indices(c, q)
        value, coarse = dense_trapezoid_sums(c, q.step, ks)
        assert q.value == value
        monkeypatch.setattr(fiberint, "BLOCK_POINTS", rows * ks[-1].size)
        got, got_coarse = fiberint._trapezoid_sums(c, q.step, ks)
        assert got == value and np.array_equal(got_coarse, coarse)

    @pytest.mark.parametrize("leaf", [None, 1000])
    def test_same_bits_on_the_full_rank_four_grid(self, monkeypatch, leaf):
        if leaf:
            monkeypatch.setattr(fiberint, "BLOCK_POINTS", leaf)
        c = [2.0, 3.0, 4.0, 5.0]  # 61^3 points
        q = scalar_fiber_integral(c, tol=1e-6)
        assert q.value == dense_trapezoid_sums(c, q.step, window_indices(c, q))[0]

    @pytest.mark.parametrize("c,tol", ESTIMATE_CASES)
    def test_estimate_bounds_the_error(self, c, tol):
        q = scalar_fiber_integral(c, tol=tol)
        err = rel_error(c, q.value)
        assert err < 1e-9
        assert err * q.value <= q.error <= tol * q.value

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_seeded_sweep_estimate_never_below_error(self, tol):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            c = 10 ** rng.uniform(-3, 3, size=int(rng.integers(2, 5)))
            q = scalar_fiber_integral(c, tol=tol)
            assert rel_error(c, q.value) * q.value <= q.error <= tol * q.value, list(c)

    def test_single_axis_sweep_at_tight_tol(self):
        # one axis has one parity class, so a phase-cancelled 2h error
        # would hide there first
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = 10 ** rng.uniform(-3, 3, size=2)
            q = scalar_fiber_integral(c, tol=1e-13)
            assert rel_error(c, q.value) * q.value <= q.error, list(c)

    def test_counters_describe_the_grid(self):
        c = [0.8, 1.5, 2.5, 1.2]
        q = scalar_fiber_integral(c, tol=1e-10)
        assert q.step == FIRST_STEP / 2**q.halvings
        assert q.window == pytest.approx(FIRST_STEP + math.log(16 * 3 / 1e-10))
        for x, n in zip(c[1:], q.nodes):
            centre = math.log(c[0] / x)
            assert n == math.floor((centre + q.window) / q.step) - math.ceil((centre - q.window) / q.step) + 1

    def test_halving_nests_the_grids(self):
        # the step-2h sums over the parity classes average to the step-h sum
        c, h = [1.0, 2.0, 0.5, 3.0], 0.6
        ks = [np.arange(-20, 21), np.arange(-15, 31), np.arange(-33, 2)]
        value, coarse = fiberint._trapezoid_sums(c, h, ks)
        assert coarse.shape == (8,)
        assert np.mean(coarse) == pytest.approx(value, rel=1e-15)
        even = [k[k % 2 == 0] // 2 for k in ks]
        value_2h, _ = fiberint._trapezoid_sums(c, 2 * h, even)
        assert coarse[0] == pytest.approx(value_2h, rel=1e-14)

    def test_halves_until_the_estimate_meets_tol(self):
        q = scalar_fiber_integral([1.0] * 4, tol=1e-10)
        assert q.halvings == 1 and q.error <= 1e-10 * q.value

    @pytest.mark.parametrize("block", [1, 50, 1000])
    def test_blocks_do_not_change_the_value(self, monkeypatch, block):
        c = [0.8, 1.5, 2.5, 1.2]
        want = scalar_fiber_integral(c, tol=1e-10)
        monkeypatch.setattr(fiberint, "BLOCK_POINTS", block)
        got = scalar_fiber_integral(c, tol=1e-10)
        assert got.value == want.value
        assert got.error == pytest.approx(want.error, rel=1e-6)

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_loose_tol_keeps_a_window(self, tol):
        q = scalar_fiber_integral([1.0, 2.0, 0.5], tol=tol)
        assert min(q.nodes) > 1 and abs(q.value - 1) < 0.2

    def test_tol_below_roundoff_is_named(self):
        with pytest.raises(QuadratureError, match="roundoff"):
            scalar_fiber_integral([1.0, 2.0, 0.5], tol=1e-15)

    def test_memory_stays_small(self):
        tracemalloc.start()
        try:
            scalar_fiber_integral([0.8, 1.5, 2.5, 1.2], tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMonteCarloBlocks:
    """The oracle draws its sample in blocks from one random stream."""

    def test_blocks_draw_the_points_of_one_draw(self):
        budget, d = 2 * MC_BLOCK_ROWS + 123, 3
        t = np.concatenate([t for t, _ in _proposal_blocks(budget, d, seed=9)])
        u = np.random.default_rng(9).random(size=(budget, d))
        assert np.array_equal(t, u / (1 - u))

    def test_one_block_keeps_the_whole_sample_bits(self):
        c, budget = [1.3, 0.7, 1.9], MC_BLOCK_ROWS
        u = np.random.default_rng(4).random(size=(budget, 2))
        t = u / (1 - u)
        vals = 2 * np.prod((1 + t) ** 2, axis=1) * (c[0] + t @ np.asarray(c[1:])) ** -3.0
        want = (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(budget)))
        assert monte_carlo_oracle(c, budget=budget, seed=4) == want

    def test_blocked_mean_and_stderr_match_the_whole_sample(self):
        c, budget = [1.3, 0.7, 1.9, 0.55], 5 * MC_BLOCK_ROWS + 7
        u = np.random.default_rng(5).random(size=(budget, 3))
        t = u / (1 - u)
        vals = 6 * np.prod((1 + t) ** 2, axis=1) * (c[0] + t @ np.asarray(c[1:])) ** -4.0
        est, se = monte_carlo_oracle(c, budget=budget, seed=5)
        assert est == pytest.approx(np.mean(vals), rel=1e-13)
        assert se == pytest.approx(np.std(vals, ddof=1) / math.sqrt(budget), rel=1e-10)

    def test_memory_stays_small_at_rank_eight(self):
        # the whole sample of 5e6 rows of 7 draws peaked at 839 MB
        tracemalloc.start()
        try:
            monte_carlo_oracle([1.0] * 8, budget=5_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# push-forward identity
# ---------------------------------------------------------------------------


class TestSymbolicPushforward:
    def test_rank_one_is_geometric_series(self):
        rng = random.Random(0)
        n = 2
        f = FormValue.monomial(n, (0,), (0,), rand_qqi(rng)) + FormValue.monomial(
            n, (1,), (1,), rand_qqi(rng)
        )
        theta = CurvatureMatrix([[f]])
        s = symbolic_pushforward(theta)
        assert s[0] == FormValue.scalar(n, QQi(1))
        assert (s[1] + f).is_zero()
        assert (s[2] - f.wedge(f)).is_zero()

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_zero_curvature_higher_segre_vanish(self, r):
        # an exact zero curvature pushes forward exactly; one built from
        # FormValue.zero holds no QQi, so it pushes forward in float
        exact_zero = 0 * FormValue.scalar(2, QQi(1))
        theta = CurvatureMatrix([[exact_zero for _ in range(r)] for _ in range(r)])
        s = symbolic_pushforward(theta)
        assert s[0] == FormValue.scalar(2, QQi(1))
        assert s[1].is_zero() and s[2].is_zero()
        theta = CurvatureMatrix([[FormValue.zero(2) for _ in range(r)] for _ in range(r)])
        s = symbolic_pushforward(theta)
        assert not any(exact_mode(f) for f in s)
        assert s[0].coefficient((), ()) == 1.0

    @pytest.mark.parametrize(
        "r,n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2)]
    )
    def test_matches_segre_of_chern_exactly(self, r, n):
        rng = random.Random(100 * r + n)
        for _ in range(3):
            theta = rand_exact_hermitian_curvature(rng, r, n)
            s = symbolic_pushforward(theta)
            ref = segre_forms(chern_forms(theta), n)
            for got, want in zip(s, ref):
                assert (got - want).is_zero()

    def test_rank_four(self):
        rng = random.Random(9)
        theta = rand_exact_hermitian_curvature(rng, 4, 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta), 2)
        for got, want in zip(s, ref):
            assert (got - want).is_zero()

    def test_non_hermitian_input_still_matches(self):
        # the identity is algebraic; it does not need Hermitian symmetry
        rng = random.Random(4)
        n, r = 2, 2
        entries = [
            [
                FormValue.monomial(n, (0,), (1,), rand_qqi(rng))
                + FormValue.monomial(n, (1,), (0,), rand_qqi(rng))
                for _ in range(r)
            ]
            for _ in range(r)
        ]
        theta = CurvatureMatrix(entries)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta), n)
        for got, want in zip(s, ref):
            assert (got - want).is_zero()

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_float_mode_matches_segre_of_chern(self, r, n):
        rng = np.random.default_rng(10 * r + n)
        T = rng.normal(size=(r, r, n, n)) + 1j * rng.normal(size=(r, r, n, n))
        theta = CurvatureMatrix.from_tensor((T + np.conj(T.transpose(1, 0, 3, 2))) / 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta), n)
        assert max((got - want).max_abs() for got, want in zip(s, ref)) < 1e-11

    def test_float_coefficient_arrays_stay_complex(self):
        """The exact moment weights enter through the unit 1.0, so a float
        curvature with coefficient arrays over points pushes forward to
        complex arrays, not to arrays of Python objects."""
        rng = np.random.default_rng(12)
        T = rng.normal(size=(3, 2, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2, 2))
        s = symbolic_pushforward(CurvatureMatrix.from_tensor(T))
        assert all(np.asarray(c).dtype == np.complex128 for f in s for c in f.coeffs.values())
        assert any(np.ndim(c) == 1 for f in s[1:] for c in f.coeffs.values())

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(1, 6) for n in range(1, 5)])
    def test_pruning_keeps_values_and_key_order(self, r, n):
        """symbolic_pushforward, which drops the exponent pairs that cannot
        reach the diagonal, equals (==) the loop that carries every pair,
        with each s_k's keys in the same order (one seed at (5, 4), where
        the full loop takes about a second)."""
        for seed in range(1 if (r, n) == (5, 4) else 2):
            theta = random_exact_curvature(random.Random(f"prune:{r}:{n}:{seed}"), r, n)
            got, want = symbolic_pushforward(theta), unpruned_pushforward(theta)
            assert got == want
            assert [list(f.keys()) for f in got] == [list(f.keys()) for f in want]

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 3)])
    def test_pruning_one_step_too_eager_is_caught(self, r, n, monkeypatch):
        """A seeded fault: the pruning bound one step too small, n - k - 1,
        drops pairs that still reach the diagonal, and the push-forward no
        longer equals segre_forms(chern_forms(theta))."""
        reaches = fiberint._reaches_diagonal
        monkeypatch.setattr(fiberint, "_reaches_diagonal",
                            lambda a, b, steps: reaches(a, b, steps - 1))
        theta = random_exact_curvature(random.Random(f"eager:{r}:{n}"), r, n)
        assert symbolic_pushforward(theta) != segre_forms(chern_forms(theta), n)


def unpruned_pushforward(theta):
    """symbolic_pushforward's loop without the pruning: N_k carries every
    exponent pair (a, b), including those that can no longer reach a = b."""
    r, n = theta.rank, theta.dim
    d = r - 1
    x = [tuple(int(A == i + 1) for i in range(d)) for A in range(r)]
    twist = [(x[A], x[B], theta.entries[A][B]) for A in range(r) for B in range(r)]
    one = QQi(1) if exact_mode(theta) else 1.0
    unit = FormValue.scalar(n, one)
    zero = 0 * unit
    power = {(x[0], x[0]): unit}
    out = []
    for k in range(n + 1):
        if k:
            nxt = {}
            for (a, b), val in power.items():
                for xa, xb, entry in twist:
                    key = (tuple(p + q for p, q in zip(a, xa)), tuple(p + q for p, q in zip(b, xb)))
                    nxt[key] = nxt.get(key, zero) + val.wedge(entry)
            power = nxt
        weight = (-1) ** k * math.comb(d + k, d) * math.factorial(d)
        s_k = zero
        for (a, b), val in power.items():
            if a == b:
                s_k = s_k + (one * (weight * moment_exact(a, d + 1 + k))) * val
        out.append(s_k)
    return out


class TestUnitaryInvariance:
    def test_householder_is_exact_unitary(self):
        U = householder_unitary([QQi(1), QQi(Fraction(1, 2), Fraction(1, 3)), QQi(0, 1)])
        r = len(U)
        for i in range(r):
            for j in range(r):
                acc = QQi()
                for k in range(r):
                    acc = acc + U[i][k] * U[j][k].conjugate()
                assert acc == (QQi(1) if i == j else QQi())

    def test_probe_is_exact_zero(self):
        rng = random.Random(21)
        theta = rand_exact_hermitian_curvature(rng, 3, 2)
        U = householder_unitary([QQi(2), QQi(Fraction(1, 3), 1), QQi(0, Fraction(-1, 2))])
        assert unitary_invariance_probe(theta, U) == 0.0

    def test_probe_is_zero_on_exact_zero_curvatures(self):
        """Each entry of U Theta U* is summed from the zero of Theta's unit,
        so an exact zero curvature, whose entries store no coefficient,
        stays exact and its probe reads 0."""
        theta = random_exact_curvature(random.Random(9), 1, 1)
        assert not theta.entries[0][0].keys() and exact_mode(theta)
        assert unitary_invariance_probe(theta, [[QQi(1)]]) == 0.0
        zero = CurvatureMatrix.scalar_times_identity(0 * FormValue.scalar(2, QQi(1)), 2)
        assert unitary_invariance_probe(zero, [[0, 1], [1, 0]]) == 0.0

    def test_householder_rejects_zero(self):
        with pytest.raises(ValueError):
            householder_unitary([QQi(), QQi()])
