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
    segre_forms,
)
from parachern import fiberint
from parachern.fiberint import (
    QuadratureError,
    _pairwise_sum,
    _tail_bound,
    householder_unitary,
    moment_exact,
    monte_carlo_moment,
    monte_carlo_oracle,
    scalar_fiber_integral,
    symbolic_pushforward,
    unitary_invariance_probe,
)

EXACT = QQi(1)


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


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------


class TestScalarIntegral:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_closed_form(self, r):
        rng = np.random.default_rng(r)
        c = rng.uniform(0.5, 2.0, size=r)
        val, err = scalar_fiber_integral(c)
        assert err <= 5e-9
        assert abs(val * np.prod(c) - 1) < 1e-6

    def test_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            r = int(rng.integers(2, 5))
            c = rng.uniform(0.5, 2.0, size=r)
            val, _ = scalar_fiber_integral(c)
            assert abs(val * np.prod(c) - 1) < 1e-6

    def test_monte_carlo_three_sigma(self):
        c = [1.3, 0.7, 1.9, 0.55]
        val, _ = scalar_fiber_integral(c)
        est, se = monte_carlo_oracle(c, budget=200_000, seed=5)
        assert abs(val - est) < 3 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scalar_fiber_integral([1.0, -0.5])

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            monte_carlo_oracle([1.0, 1.0], budget=10)

    @pytest.mark.parametrize("c", [[1, 0.001, 0.001, 0.001], [1.0] * 6])
    def test_grid_over_budget_raises_before_allocating(self, c):
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="budget"):
            scalar_fiber_integral(c, tol=1e-10)
        assert time.perf_counter() - start < 1.0


def dense_fiber_integral(c, tol=1e-8, nodes_per_panel=10):
    """The whole-grid quadrature: one broadcast and one np.sum over all
    (nodes_per_panel * panels)^(r-1) points.  Reference for the bits."""
    c = [float(x) for x in c]
    r = len(c)
    d = r - 1
    T, panels = 1.0, 1
    while _tail_bound(c, T) > tol / 2:
        T *= 2.0
        panels += 1
    x, wq = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = [0.0] + [T * 2.0 ** (-k) for k in reversed(range(panels))]
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        nodes.append(lo + (hi - lo) * (x + 1) / 2)
        weights.append(wq * (hi - lo) / 2)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)

    shape = [1] * d
    S = np.full([1] * d, c[0])
    W = np.ones([1] * d)
    for i in range(d):
        sh = list(shape)
        sh[i] = t.size
        S = S + c[i + 1] * t.reshape(sh)
        W = W * w.reshape(sh)
    value = math.factorial(d) * float(np.sum(W * S ** (-r)))
    return value, _tail_bound(c, T)


# r = 4 with few nodes per panel, which keeps the dense reference small
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
    """The quadrature is summed leaf by leaf along numpy's pairwise tree, so
    it returns the bits of the whole-grid broadcast and np.sum."""

    @pytest.mark.parametrize("leaf", [None, 1000])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("c,nodes", BIT_CASES)
    def test_same_bits_as_dense_grid(self, monkeypatch, c, nodes, tol, leaf):
        if leaf:  # leaves that start and end inside a row of the grid
            monkeypatch.setattr(fiberint, "LEAF_POINTS", leaf)
        got = scalar_fiber_integral(c, tol=tol, nodes_per_panel=nodes)
        assert got == dense_fiber_integral(c, tol=tol, nodes_per_panel=nodes)

    @pytest.mark.parametrize("leaf", [None, 1000])
    def test_same_bits_on_the_full_rank_four_grid(self, monkeypatch, leaf):
        if leaf:
            monkeypatch.setattr(fiberint, "LEAF_POINTS", leaf)
        c = [2.0, 3.0, 4.0, 5.0]  # 160^3 points
        assert scalar_fiber_integral(c, tol=1e-6) == dense_fiber_integral(c, tol=1e-6)

    @pytest.mark.parametrize("leaf", [1000, fiberint.LEAF_POINTS])
    def test_numpy_sums_along_the_mirrored_tree(self, monkeypatch, leaf):
        monkeypatch.setattr(fiberint, "LEAF_POINTS", leaf)
        x = np.random.default_rng(17).random(10**6)
        mirrored = _pairwise_sum(lambda start, n: np.sum(x[start : start + n]), 0, x.size)
        assert mirrored == np.sum(x), (
            f"numpy {np.__version__} no longer sums a contiguous array along "
            "the pairwise tree that fiberint._pairwise_sum mirrors, so "
            "scalar_fiber_integral would no longer reproduce the whole-grid bits"
        )

    def test_memory_stays_small(self):
        # the whole 340^3 grid would take 900 MB
        tracemalloc.start()
        try:
            scalar_fiber_integral([0.8, 1.5, 2.5, 1.2], tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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
        theta = CurvatureMatrix(
            [[FormValue.zero(2) for _ in range(r)] for _ in range(r)]
        )
        s = symbolic_pushforward(theta)
        assert s[0] == FormValue.scalar(2, QQi(1))
        assert s[1].is_zero() and s[2].is_zero()

    @pytest.mark.parametrize(
        "r,n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2)]
    )
    def test_matches_segre_of_chern_exactly(self, r, n):
        rng = random.Random(100 * r + n)
        for _ in range(3):
            theta = rand_exact_hermitian_curvature(rng, r, n)
            s = symbolic_pushforward(theta)
            ref = segre_forms(chern_forms(theta, normalization=EXACT), n)
            for got, want in zip(s, ref):
                assert (got - want).is_zero()

    def test_rank_four(self):
        rng = random.Random(9)
        theta = rand_exact_hermitian_curvature(rng, 4, 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta, normalization=EXACT), 2)
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
        ref = segre_forms(chern_forms(theta, normalization=EXACT), n)
        for got, want in zip(s, ref):
            assert (got - want).is_zero()

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_float_mode_matches_segre_of_chern(self, r, n):
        rng = np.random.default_rng(10 * r + n)
        T = rng.normal(size=(r, r, n, n)) + 1j * rng.normal(size=(r, r, n, n))
        theta = CurvatureMatrix.from_tensor((T + np.conj(T.transpose(1, 0, 3, 2))) / 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta, normalization=1.0), n)
        assert max((got - want).max_abs() for got, want in zip(s, ref)) < 1e-11

    def test_truncation_degree_guard(self):
        theta = CurvatureMatrix([[FormValue.zero(1)]])
        with pytest.raises(ValueError):
            symbolic_pushforward(theta, max_degree=5)


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

    def test_householder_rejects_zero(self):
        with pytest.raises(ValueError):
            householder_unitary([QQi(), QQi()])
