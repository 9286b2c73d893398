"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The pass/fail lines are written to the real stdout so they remain visible
under pytest's capture."""

import cmath
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_exact_hermitian_curvature

from parachern.forms import (
    CurvatureMatrix,
    FormValue,
    QQi,
    chern_forms,
    griffiths_test,
    nakano_test,
    segre_forms,
)
from parachern.fiberint import (
    monte_carlo_oracle,
    scalar_fiber_integral,
    symbolic_pushforward,
)
from parachern.localmodel import (
    LocalChart,
    LocalMetricField,
    admissibility_check,
    annulus_weight_quadrature,
    bott_chern_line,
    c1_numeric,
    closedness_decay_slope,
    ddbar_numeric,
    descend_form,
    descend_metric,
    random_invariant_metric,
    rebase_cover,
)
from parachern.masolver import normalize_problem, solve, verify_conclusion
from parachern.parabolic import (
    ParabolicModel,
    det,
    direct_sum,
    dual,
    my_filtration,
    par_degree,
    random_model,
    tensor,
)

from test_forms import griffiths_not_nakano_fixture
from test_masolver import manufactured_problem


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _corpus(count=1000, seed=20240501):
    rng = random.Random(seed)
    return [random_model(rng, max_rank=5, max_cover=12, max_points=4)
            for _ in range(count)]


def _partner_with_same_points(model: ParabolicModel, rng) -> ParabolicModel:
    """Second model over the same marked points (labels must match for the
    binary operations)."""
    rank = int(rng.integers(1, 4))
    points = {}
    for label, ws in model.points.items():
        n = max(w.denominator for w in ws) if ws else 2
        points[label] = tuple(
            Fraction(int(rng.integers(0, n)), n) for _ in range(rank)
        )
    return ParabolicModel(
        rank=rank, degree=int(rng.integers(-5, 6)), points=points
    )


def test_acceptance_1_parabolic_degree_identities():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for m in _corpus():
        pd = par_degree(m)  # asserts sum form == integral form internally
        ok &= par_degree(dual(m)) == -pd
        ok &= par_degree(det(m)) == pd and det(m).rank == 1
        b = _partner_with_same_points(m, rng)
        ok &= par_degree(direct_sum(m, b)) == pd + par_degree(b)
        ok &= par_degree(tensor(m, b)) == b.rank * pd + m.rank * par_degree(b)
    elapsed = time.time() - t0
    report(1, "parabolic degree identities", ok and elapsed < 10)


def test_acceptance_2_filtration_properties():
    ok = True
    eps = Fraction(1, 10**9)
    for m in _corpus():
        filt = my_filtration(m)
        weights = {w for ws in m.points.values() for w in ws}
        # (1) E_0 = E
        ok &= filt.degree_at_zero == m.degree
        ok &= filt.degree_at(Fraction(0)) == m.degree
        # (2) decreasing
        degs = [filt.degree_at_zero] + [j.degree_after for j in filt.jumps]
        ok &= all(b < a for a, b in zip(degs, degs[1:]))
        # (3) left-continuity: value at each jump equals the value just before
        prev = filt.degree_at_zero
        for j in filt.jumps:
            if j.t > 0:
                ok &= filt.degree_at(j.t) == prev
            ok &= filt.degree_at(min(j.t + eps, Fraction(1))) == j.degree_after
            prev = j.degree_after
        # (4) periodicity: E_{t+1} = E_t(-D), degree drop rank * #points
        ok &= filt.period_degree_shift == -m.rank * m.num_points
        ok &= filt.degree_at(Fraction(1)) == m.degree - m.rank * m.num_points
        # (5) finitely many jumps in [0,1)
        ok &= len(filt.jumps) <= len(weights)
        ok &= all(0 <= j.t < 1 for j in filt.jumps)
        # (6) jump locations are exactly the weights, with full multiplicity
        ok &= {j.t for j in filt.jumps} == weights
        ok &= sum(j.rank_drop for j in filt.jumps) == m.rank * m.num_points
    report(2, "filtration properties", ok)


def test_acceptance_3_admissibility_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        r = int(rng.integers(1, 5))
        N = int(rng.integers(2, 7))
        weights = sorted(Fraction(int(rng.integers(0, N)), N) for _ in range(r))
        chart = LocalChart(dim=2, cover_degree=N, annuli=4, angular_nodes=8)
        htilde = random_invariant_metric(rng, weights, chart)
        field = descend_metric(htilde, weights, chart)
        points = chart.sample_points().reshape(-1, chart.dim)
        dev = max(
            float(np.abs(field.lift(points, branch) - htilde(chart.w_of_z(points, branch))).max())
            for branch in range(N)
        )
        ok &= dev < 1e-10
    # H(z) = |z_1| with alpha = 1/2, N = 2 lifts to Htilde = 1: admissible
    chart2 = LocalChart(dim=1, cover_degree=2)
    half = Fraction(1, 2)
    good = LocalMetricField(chart2, [half], lambda z: np.abs(z[:, :1, None]))
    ok &= bool(admissibility_check(good))
    # H(z) = 1 with the same weight lifts to |z_1|^{-1}: rejected (unbounded)
    bad = LocalMetricField(chart2, [half], lambda z: np.ones((len(z), 1, 1)))
    ok &= not admissibility_check(bad).admissible
    elapsed = time.time() - t0
    report(3, "admissibility round trip", ok and elapsed < 60)


def test_acceptance_4_cover_rebase_stability():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(8):
        r = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        weights = sorted(Fraction(int(rng.integers(0, N)), N) for _ in range(r))
        chart = LocalChart(dim=2, cover_degree=N, annuli=5, angular_nodes=8)
        htilde = random_invariant_metric(rng, weights, chart)
        field = descend_metric(htilde, weights, chart)
        if not admissibility_check(field).admissible:
            continue
        for u in (2, 3):
            ok &= bool(rebase_cover(field, u))
    report(4, "cover rebase stability", ok)


def test_acceptance_5_l1_current_and_residual_decay():
    ok = True
    for N in range(2, 7):
        ok &= abs(annulus_weight_quadrature(N) - math.pi * N) < 1e-6
        chart = LocalChart(dim=2, cover_degree=N)

        def eta_tilde(w):
            w1 = w[..., 0]
            return FormValue(2, {((0,), (1,)): np.conj(w1), ((), (0, 1)): w1})

        eta = descend_form(eta_tilde, chart)
        slope, residue, series = closedness_decay_slope(eta, chart)
        ok &= slope >= 2.0 / N - 0.1
        ok &= residue < 1e-10 * max(1.0, series[0][1])
    report(5, "L1 current quadrature and residual decay", ok)


def test_acceptance_6_fiber_integral_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(31)
    ok = True
    for i in range(50):
        r = int(rng.integers(2, 5))
        c = rng.uniform(0.5, 2.0, size=r)
        val = scalar_fiber_integral(c).value
        ok &= abs(val * np.prod(c) - 1) < 1e-6
        est, se = monte_carlo_oracle(c, budget=250_000, seed=1000 + i)
        ok &= abs(val - est) < 3 * se
    elapsed = time.time() - t0
    report(6, "fiber integral closed form", ok and elapsed < 300)


def test_acceptance_7_pushforward_theorem():
    rng = random.Random(41)
    ok = True
    for i in range(20):
        r = 2 + (i % 2)  # r in {2, 3}
        n = 1 + (i // 10)  # n in {1, 2}
        theta = rand_exact_hermitian_curvature(rng, r, n)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta), n)
        ok &= all((x - y).is_zero() for x, y in zip(s, ref))
    report(7, "Segre push-forward identity", ok)


def test_acceptance_8_conjugation_invariance():
    rng = random.Random(43)
    ok = True
    for _ in range(50):
        r = rng.randint(2, 3)
        theta = rand_exact_hermitian_curvature(rng, r, 2)
        c = chern_forms(theta)
        # exact diagonal conjugators: rational stand-ins for the local-model
        # factors z^{alpha} (any invertible diagonal gives equal Chern forms)
        d = [
            QQi(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            for _ in range(r)
        ]
        cc = chern_forms(theta.conjugated(d))
        ok &= all((c[k] - cc[k]).is_zero() for k in range(r + 1))
    report(8, "Chern-Weil conjugation invariance", ok)


def test_acceptance_9_bott_chern_order_two():
    def h1(w):
        return 1.0 + 0.5 * np.abs(w[..., 0]) ** 2

    def h2(w):
        return h1(w) * np.exp(-np.abs(w[..., 0]) ** 4)

    w = (0.4 + 0.3j,)
    exact = FormValue(
        1, {((0,), (0,)): (1j / (2 * math.pi)) * 4 * abs(w[0]) ** 2}
    )
    phi = bott_chern_line(h1, h2)
    errs = []
    for step in (0.08, 0.04, 0.02):
        fd = (1j / (2 * math.pi)) * ddbar_numeric(phi, w, step=step)
        rhs = c1_numeric(h2, w, step=step) - c1_numeric(h1, w, step=step)
        errs.append((fd - exact).max_abs())
        # the transgression matches the c1 difference at the same stencil
        assert (fd - rhs).max_abs() < 1e-10
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    report(9, "Bott-Chern transgression order 2", all(o > 1.7 for o in orders))


def test_acceptance_10_monge_ampere_suite():
    t0 = time.time()
    ok = True
    # manufactured solution at M = 64, spectral solver
    prob, phi_ex = manufactured_problem(64)
    prob = normalize_problem(prob)
    phi, diag = solve(prob, tol=1e-10)
    ok &= diag.residuals[-1] < 1e-8
    # order >= 2 grid convergence of the continuum interpolant (FD Hessian)
    from test_masolver import manufactured_problem as mp
    from parachern.masolver import interpolant_residual

    res = []
    for M in (16, 32, 64):
        p, pe = mp(M)
        res.append(interpolant_residual(pe, p))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    ok &= all(o >= 1.9 for o in orders)
    # conclusion positivity at every node
    rep = verify_conclusion(phi, prob)
    ok &= rep.c1_positive and rep.c2_positive and rep.schur_positive
    ok &= rep.eta_match < 1e-8
    elapsed = time.time() - t0
    report(10, "Monge-Ampere suite", ok and elapsed < 300)


def test_acceptance_11_positivity_logic():
    ok = True
    # Nakano-positive samples always pass the Griffiths test
    rng = np.random.default_rng(53)
    for _ in range(10):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = M.conj().T @ M + 0.1 * np.eye(4)
        T = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for c in range(2):
                for q in range(2):
                    for b in range(2):
                        T[b, c, p, q] = A[p * 2 + c, q * 2 + b]
        theta = CurvatureMatrix.from_tensor(T)
        ok &= nakano_test(theta).verdict == "positive"
        ok &= griffiths_test(theta, samples=128).verdict == "positive"
    # the Griffiths-but-not-Nakano fixture separates the two testers
    fix = griffiths_not_nakano_fixture()
    ok &= nakano_test(fix).verdict != "positive"
    ok &= griffiths_test(fix, samples=256).verdict == "positive"
    # parabolic ample lines: par-deg sign == curvature margin sign of the
    # constructed metric h = (1 + |w|^2)^{-(d + alpha)} (Fubini-Study power)
    rng2 = random.Random(59)
    count = 0
    while count < 20:
        d = rng2.randint(-2, 2)
        N = rng2.randint(2, 6)
        alpha = Fraction(rng2.randint(0, N - 1), N)
        pd = par_degree(
            ParabolicModel(rank=1, degree=d, points={"p": (alpha,)})
        )
        if pd == 0:
            continue
        count += 1
        expo = d + float(alpha)

        def h(w, expo=expo):
            return (1.0 + np.abs(w[..., 0]) ** 2) ** (-expo)

        margin = min(
            complex(
                c1_numeric(h, (rad * cmath.exp(1j * ang),)).coefficient((0,), (0,))
            ).imag
            for rad in (0.2, 0.6)
            for ang in (0.3, 2.1)
        )
        ok &= (margin > 0) == (pd > 0)
    report(11, "positivity logic", ok)
