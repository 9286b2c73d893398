"""Fiber-integral backend and the exact Segre push-forward identity."""

import math
import random
import time
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
from parachern.fiberint import (
    QuadratureError,
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
