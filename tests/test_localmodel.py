"""Tests for the branched-cover local model."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from parachern.forms import CurvatureMatrix, FormValue, chern_forms
from parachern.localmodel import (
    AdmissibilityReport,
    GridError,
    InvarianceError,
    LocalChart,
    LocalMetricField,
    admissibility_check,
    annulus_weight_quadrature,
    bott_chern_line,
    boundary_residual,
    c1_numeric,
    closedness_decay_slope,
    cone_metric,
    curvature_descend,
    ddbar_numeric,
    deck_phases,
    descend_form,
    descend_metric,
    griffiths_margin_transfer,
    integer_exponents,
    line_current_decomposition,
    make_admissible_kahler,
    pullback_form,
    random_invariant_metric,
    rebase_cover,
    smooth_mass_descent,
)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def fs_like_curvature_field(rng, rank, dim, cover_degree):
    """Smooth Hermitian-symmetric curvature field over w (no invariance
    assumed; used where only the algebraic transfer matters)."""
    T0 = rng.normal(size=(rank, rank, dim, dim)) + 1j * rng.normal(
        size=(rank, rank, dim, dim)
    )
    T0 = (T0 + np.conj(np.transpose(T0, (1, 0, 3, 2)))) / 2
    T1 = rng.normal(size=(rank, rank, dim, dim)) + 1j * rng.normal(
        size=(rank, rank, dim, dim)
    )
    T1 = (T1 + np.conj(np.transpose(T1, (1, 0, 3, 2)))) / 2

    def theta(w):
        t = np.sum(np.abs(w) ** 2, axis=-1)
        return CurvatureMatrix.from_tensor(T0 + t[..., None, None, None, None] * T1)

    return theta


# ---------------------------------------------------------------------------
# charts and exponents
# ---------------------------------------------------------------------------


def test_branch_conventions():
    chart = LocalChart(dim=1, cover_degree=3)
    z1 = 0.4 * cmath.exp(0.7j)
    w1 = chart.w1_of_z1(z1)
    assert abs(w1 ** 3 - z1) < 1e-14
    assert -math.pi / 3 < cmath.phase(w1) <= math.pi / 3
    rot = chart.w1_of_z1(z1, branch=1)
    assert abs(rot - w1 * cmath.exp(2j * math.pi / 3)) < 1e-14


@pytest.mark.parametrize("dim,companions", [
    (2, ((0.1, 0.2),)), (2, ((),)), (3, ((0.1,),)), (1, ((0.1,),)), (2, ((0.1,), (0.1, 0.2))),
])
def test_companions_need_dim_minus_one_coordinates(dim, companions):
    with pytest.raises(ValueError, match="companion"):
        LocalChart(dim=dim, cover_degree=3, companions=companions)


def test_sample_points_have_dim_coordinates():
    for dim, companions in ((1, ()), (2, ()), (2, ((0.1,), (0.2j,))), (3, ((0.1, 0.2),))):
        chart = LocalChart(dim=dim, cover_degree=3, companions=companions)
        assert {len(z) for layer in chart.sample_points() for z in layer} == {dim}
        points = chart.sample_points()
        assert points.shape == (chart.annuli, chart.angular_nodes * len(chart.companions), dim)


@pytest.mark.parametrize("field,value", [
    ("rho", 3.0), ("rho", 1.0), ("rho", 0.0), ("rho", -0.5), ("rho", float("nan")),
    ("angular_nodes", 0), ("angular_nodes", -2),
])
def test_chart_ranges_are_checked(field, value):
    """rho in (0, 1), so the sample disk lies in the unit polydisk, and at
    least one angular node: a ValueError that names the field, in place of a
    certificate on a disk of radius 3, a TypeError comparing complex
    numbers, or numpy's AxisError."""
    with pytest.raises(ValueError, match=field):
        LocalChart(dim=1, cover_degree=2, **{field: value})


def test_integer_exponents_reversed_pairing():
    assert integer_exponents([Fraction(1, 4), Fraction(3, 4)], 4) == [3, 1]
    with pytest.raises(ValueError):
        integer_exponents([Fraction(1, 3)], 4)
    with pytest.raises(ValueError):
        integer_exponents([Fraction(3, 4), Fraction(1, 4)], 4)


# ---------------------------------------------------------------------------
# metric descent
# ---------------------------------------------------------------------------


def test_descend_rank1_half_weight():
    chart = LocalChart(dim=1, cover_degree=2)
    H = descend_metric(lambda w: np.ones((len(w), 1, 1)), [Fraction(1, 2)], chart)
    for layer in chart.sample_points():
        for z in layer:
            assert abs(H(z)[0, 0] - abs(z[0])) < 1e-13


def test_descend_rank1_gaussian():
    chart = LocalChart(dim=2, cover_degree=3)
    H = descend_metric(
        lambda w: np.exp(-np.sum(np.abs(w) ** 2, axis=-1))[:, None, None],
        [Fraction(1, 3)],
        chart,
    )
    count = 0
    for layer in chart.sample_points():
        for z in layer:
            expect = abs(z[0]) ** (2 / 3) * math.exp(
                -abs(z[0]) ** (2 / 3) - abs(z[1]) ** 2
            )
            assert abs(H(z)[0, 0] - expect) < 1e-12
            count += 1
    assert count >= 100


def test_descend_zero_weights_is_substitution():
    chart = LocalChart(dim=1, cover_degree=2)

    def htilde(w):
        return 2.0 + np.abs(w[..., :1, None]) ** 4

    H = descend_metric(htilde, [Fraction(0)], chart)
    z = (0.3 + 0.2j,)
    assert abs(H(z)[0, 0] - htilde(chart.w_of_z(z))[0, 0]) < 1e-14


def test_descend_rejects_noninvariant_input():
    chart = LocalChart(dim=1, cover_degree=2)
    with pytest.raises(InvarianceError):
        descend_metric(
            lambda w: 2.0 + w[:, :1, None].real,
            [Fraction(1, 2)],
            chart,
        )


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_abs_z():
    chart = LocalChart(dim=1, cover_degree=2)
    field = LocalMetricField(
        chart, [Fraction(1, 2)], lambda z: np.abs(z[:, :1, None])
    )
    report = admissibility_check(field)
    assert report.admissible, report.reasons


def test_inadmissible_constant_metric_with_weight():
    chart = LocalChart(dim=1, cover_degree=2)
    field = LocalMetricField(chart, [Fraction(1, 2)], lambda z: np.ones((len(z), 1, 1)))
    report = admissibility_check(field)
    assert not report.admissible
    assert any("unbounded" in r for r in report.reasons)


def test_inadmissible_branch_discontinuity():
    chart = LocalChart(dim=1, cover_degree=2)

    def evaluate(z):
        w1 = chart.w1_of_z1(z[:, 0])
        return (np.abs(z[:, 0]) * (2.0 + w1.imag))[:, None, None]

    field = LocalMetricField(chart, [Fraction(1, 2)], evaluate)
    report = admissibility_check(field)
    assert not report.admissible
    assert any("branch-cut" in r for r in report.reasons)


def test_round_trip_recovers_htilde():
    rng = np.random.default_rng(5)
    chart = LocalChart(dim=2, cover_degree=4)
    weights = [Fraction(1, 4), Fraction(3, 4)]
    htilde = random_invariant_metric(rng, weights, chart)
    field = descend_metric(htilde, weights, chart)
    report = admissibility_check(field)
    assert report.admissible, report.reasons
    points = chart.sample_points().reshape(-1, chart.dim)
    assert np.max(np.abs(field.lift(points) - htilde(chart.w_of_z(points)))) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_random_invariant_metric_batch_matches_formula(seed):
    """The batched fixture at seeded (P, dim) points is diag(c) + scal D A0 D*,
    D = diag(w_1^k), written out here point by point from the same draws.
    The frame is D A0 D*, not the D* A0 D of lift's convention."""
    rng = np.random.default_rng([7, seed])
    N, dim, rank = (int(rng.integers(lo, hi + 1)) for lo, hi in ((2, 12), (1, 3), (2, 4)))
    chart = LocalChart(dim=dim, cover_degree=N)
    weights = [Fraction(int(k), N) for k in sorted(rng.integers(0, N, size=rank))]
    w = 0.9 * rng.random((17, dim)) * np.exp(2j * np.pi * rng.random((17, dim)))
    got = random_invariant_metric(np.random.default_rng([8, seed]), weights, chart)(w)
    assert got.shape == (17, rank, rank)
    draw = np.random.default_rng([8, seed])
    c = 1.0 + draw.random(rank)
    B = draw.normal(size=(rank, rank)) + 1j * draw.normal(size=(rank, rank))
    A0 = B.conj().T @ B / rank
    u = 0.4 * (draw.normal() + 1j * draw.normal())
    ks = integer_exponents(weights, N)
    for H, point in zip(got, w):
        w1 = complex(point[0])
        scal = 1.0 + 0.3 * (u * w1 ** N).real + 0.2 * sum(abs(complex(x)) ** 2 for x in point[1:])
        D = np.diag([w1 ** k for k in ks])
        want = np.diag(c) + scal * (D @ A0 @ D.conj().T)
        assert np.max(np.abs(H - want)) <= 1e-13 * np.max(np.abs(want))


def test_metric_value_shape_is_checked():
    """An evaluate that returns one (r, r) matrix for P > 1 points is
    rejected, not broadcast over the points; so is such an Htilde."""
    chart = LocalChart(dim=1, cover_degree=2)
    field = LocalMetricField(chart, [Fraction(1, 2)], lambda z: np.eye(1))
    with pytest.raises(ValueError, match="metric value shape mismatch"):
        field(chart.sample_points())
    with pytest.raises(ValueError, match="metric value shape mismatch"):
        descend_metric(lambda w: np.eye(1), [0], chart)


def test_grid_too_coarse():
    chart = LocalChart(dim=1, cover_degree=2, annuli=3)
    field = LocalMetricField(chart, [Fraction(1, 2)], lambda z: np.abs(z[:, :1, None]))
    with pytest.raises(GridError):
        admissibility_check(field)


@pytest.mark.parametrize(
    "N,annuli,dim,seed",
    [(3, 20, 2, 0), (3, 24, 2, 0), (3, 32, 2, 0), (6, 12, 1, 2), (12, 32, 2, 5)],
)
def test_smooth_lift_admissible_on_deep_grids(N, annuli, dim, seed):
    """Radial differences are taken per unit |w_1|, the coordinate the lift
    is smooth in, so annuli closer to w_1 = 0 do not reject a smooth lift."""
    chart = LocalChart(dim=dim, cover_degree=N, annuli=annuli)
    weights = [Fraction(1, N), Fraction(N - 1, N)]
    htilde = random_invariant_metric(np.random.default_rng(seed), weights, chart)
    report = admissibility_check(descend_metric(htilde, weights, chart))
    assert report.admissible, report.reasons


@pytest.mark.parametrize("N,annuli", [(2, 24), (2, 32), (3, 32)])
def test_nonsmooth_lift_rejected_on_deep_grids(N, annuli):
    """H = 1 + |z_1|^(1/(2N)) lifts to 1 + |w_1|^(1/2), which is continuous
    but has an unbounded radial derivative at w_1 = 0."""
    chart = LocalChart(dim=1, cover_degree=N, annuli=annuli)
    field = LocalMetricField(chart, [0], lambda z: 1 + np.abs(z[:, :1, None]) ** (0.5 / N))
    report = admissibility_check(field)
    assert not report.admissible
    assert any("derivative unbounded" in r for r in report.reasons)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_radial_difference_is_per_unit_w1(N):
    """The lift 1 + |w_1| changes by 1 per unit |w_1| between any two annuli."""
    chart = LocalChart(dim=1, cover_degree=N)
    field = LocalMetricField(chart, [0], lambda z: 1 + np.abs(z[:, :1, None]) ** (1.0 / N))
    report = admissibility_check(field)
    assert report.admissible, report.reasons
    assert np.allclose(report.annulus_deriv, 1.0, rtol=1e-10, atol=0)


def test_rebase_cover():
    rng = np.random.default_rng(9)
    chart = LocalChart(dim=1, cover_degree=3)
    weights = [Fraction(1, 3), Fraction(2, 3)]
    field = descend_metric(
        random_invariant_metric(rng, weights, chart), weights, chart
    )
    base = admissibility_check(field)
    assert base.admissible
    assert rebase_cover(field, 1).admissible == base.admissible
    for u in (2, 3):
        assert rebase_cover(field, u).admissible
    bad = LocalMetricField(chart, [Fraction(1, 3)], lambda z: np.ones((len(z), 1, 1)))
    assert not admissibility_check(bad).admissible
    for u in (2, 3):
        assert not rebase_cover(bad, u).admissible
    with pytest.raises(ValueError):
        rebase_cover(field, 0)


def test_report_csv():
    chart = LocalChart(dim=1, cover_degree=2)
    field = LocalMetricField(chart, [Fraction(1, 2)], lambda z: np.abs(z[:, :1, None]))
    rows = admissibility_check(field).csv_rows().splitlines()
    assert rows[0] == "annulus,maxAbs,radialDiff,minEig"
    assert len(rows) == chart.annuli + 1


def reference_admissibility_check(field):
    """admissibility_check reduced matrix by matrix in Python loops, over
    the lifts of one batched lift call: the reference that its array
    reductions must match bit for bit."""
    chart = field.chart
    if chart.annuli < 4:
        raise GridError("at least 4 annuli required for the certificate")
    radii = [r ** (1.0 / chart.cover_degree) for r in chart.radii()]
    lifts = [list(layer) for layer in field.lift(chart.sample_points())]

    annulus_max = [max(float(np.max(np.abs(H))) for H in layer) for layer in lifts]
    annulus_min_eig = [
        min(float(np.min(np.linalg.eigvalsh((H + H.conj().T) / 2))) for H in layer)
        for layer in lifts
    ]
    annulus_deriv = []
    for k in range(len(lifts) - 1):
        dr = radii[k] - radii[k + 1]
        annulus_deriv.append(
            max(float(np.max(np.abs(a - b))) / dr for a, b in zip(lifts[k], lifts[k + 1]))
        )

    reasons = []
    ref = max(annulus_max[0], 1e-12)
    if max(annulus_max) > 25.0 * ref:
        reasons.append(
            f"lift unbounded: inner/outer value ratio {max(annulus_max) / ref:.2e}"
        )
    dref = max(annulus_deriv[0], 1e-12 * ref / radii[0])
    if max(annulus_deriv) > 25.0 * dref:
        reasons.append(
            "lift derivative unbounded: difference-quotient growth "
            f"{max(annulus_deriv) / dref:.2e}"
        )
    median_eig = float(np.median(annulus_min_eig))
    inner_eig = min(annulus_min_eig[-2:])
    if min(annulus_min_eig) < 1e-10 or inner_eig < 0.05 * max(median_eig, 1e-10):
        reasons.append(
            f"lift not uniformly positive: inner least eigenvalue {inner_eig:.3e}"
        )

    P = deck_phases(field.exponents, chart.cover_degree)
    n_comp = len(chart.companions)
    cut_defect = 0.0
    interior_jump = 1e-300
    for layer in lifts:
        for c in range(n_comp):
            seq = layer[c::n_comp]
            for a, b in zip(seq, seq[1:]):
                interior_jump = max(interior_jump, float(np.max(np.abs(a - b))))
            cut_defect = max(cut_defect, float(np.max(np.abs(seq[-1] - P * seq[0]))))
    cut_tolerance = 3.0 * interior_jump + 1e-8
    if cut_defect > cut_tolerance:
        reasons.append(
            f"branch-cut mismatch {cut_defect:.3e} exceeds continuity "
            f"tolerance {cut_tolerance:.3e}"
        )
    return AdmissibilityReport(not reasons, reasons, annulus_max, annulus_deriv,
                               annulus_min_eig, cut_defect, cut_tolerance)


CERTIFICATE_KINDS = ("smooth", "nonsmooth", "cut", "nonpositive")


def certificate_fixture(kind, seed):
    """A seeded field on a seeded chart: N 1-12, dim 1-3, rank 1-4, 4-12
    annuli, 2-9 angles, and one or three companions.  `kind` is a smooth
    descended lift, or that lift times 1 + |w_1|^(1/2) (N 1-3 and 20-32
    annuli, deep enough to see the derivative grow), times a factor that
    jumps across the cut, or minus 2.5 times the identity."""
    rng = np.random.default_rng([CERTIFICATE_KINDS.index(kind), seed])
    deep = kind == "nonsmooth"
    N, dim, rank = (int(rng.integers(1, hi + 1)) for hi in (3 if deep else 12, 3, 4))
    companions = ()
    if dim > 1 and seed % 2:
        companions = tuple(
            tuple(complex(0.3 * rng.normal(), 0.3 * rng.normal()) for _ in range(dim - 1))
            for _ in range(3)
        )
    annuli = int(rng.integers(20, 33) if deep else rng.integers(4, 13))
    chart = LocalChart(dim=dim, cover_degree=N, rho=0.2 + 0.7 * rng.random(), annuli=annuli,
                       angular_nodes=int(rng.integers(2, 10)), companions=companions)
    weights = [Fraction(int(k), N) for k in sorted(rng.integers(0, N, size=rank))]
    smooth = random_invariant_metric(rng, weights, chart)
    shift = 2.5 if kind == "nonpositive" else 0.0
    H = descend_metric(lambda w: smooth(w) - shift * np.eye(rank), weights, chart)
    factor = {
        "nonsmooth": lambda z: 1.0 + np.abs(z[:, 0]) ** (0.5 / N),
        "cut": lambda z: 2.0 + chart.w1_of_z1(z[:, 0]).imag,
    }.get(kind, lambda z: np.ones(len(z)))
    return LocalMetricField(chart, weights, lambda z: factor(z)[:, None, None] * H(z))


@pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
def test_array_certificate_matches_loop_reference(kind):
    """The array reductions give the loop reference's report, field for
    field and row for row, and each kind of fault gets rejected."""
    expect = {"nonsmooth": "derivative unbounded", "cut": "branch-cut",
              "nonpositive": "not uniformly positive"}.get(kind)
    rejected = 0
    for seed in range(15):
        field = certificate_fixture(kind, seed)
        got, want = admissibility_check(field), reference_admissibility_check(field)
        assert got == want
        assert got.csv_rows() == want.csv_rows()
        assert type(got.cut_defect) is float and type(got.annulus_max[0]) is float
        if expect is None:
            assert got.admissible, got.reasons
        else:
            rejected += any(expect in r for r in got.reasons)
    assert expect is None or rejected >= 5


# ---------------------------------------------------------------------------
# curvature and form descent
# ---------------------------------------------------------------------------


def test_descend_form_blocks():
    chart = LocalChart(dim=2, cover_degree=3)
    # no dw_1 components: plain substitution
    eta1 = descend_form(
        lambda w: FormValue(2, {((1,), (1,)): np.abs(w[..., 0]) ** 6}), chart
    )
    z = (0.2 + 0.1j, 0.3)
    assert abs(complex(eta1(z).coefficient((1,), (1,))) - abs(z[0]) ** 2) < 1e-13
    # dw1 ^ dwbar1: the singular block
    eta2 = descend_form(lambda w: FormValue(2, {((0,), (0,)): 1.0}), chart)
    got = complex(eta2(z).coefficient((0,), (0,)))
    assert abs(got - abs(z[0]) ** (2 / 3 - 2) / 9) < 1e-12


def test_descend_form_rejects_noninvariant():
    chart = LocalChart(dim=2, cover_degree=2)
    with pytest.raises(InvarianceError):
        descend_form(
            lambda w: FormValue(2, {((1,), (1,)): w[..., 0]}), chart
        )


def test_descend_form_samples_inside_the_chart():
    """The deck check evaluates a form only on the chart, |w_1| < rho^(1/N)
    = 0.8 at N = 1."""
    chart = LocalChart(dim=2, cover_degree=1)

    def eta_tilde(w):
        if np.abs(w[..., 0]).max() >= 0.8:
            raise ValueError("outside the chart")
        return FormValue(2, {((1,), (1,)): 1.0 + np.abs(w[..., 1]) ** 2})

    eta = descend_form(eta_tilde, chart)
    assert abs(complex(eta((0.3, 0.2)).coefficient((1,), (1,))) - 1.04) < 1e-14


def test_deck_checks_share_one_sampler():
    """The metric and the form deck checks evaluate their fields at the same
    points: 40 seeded w and their rotations, drawn as the metric check
    always drew them.  Each check makes one call, on one batch with the 40
    rotated points first."""
    chart = LocalChart(dim=2, cover_degree=3, rho=0.5)
    metric_points, form_points = [], []
    descend_metric(lambda w: metric_points.append(w) or np.ones((len(w), 1, 1)), [0], chart)
    descend_form(lambda w: form_points.append(w) or FormValue(2, {((1,), (1,)): 1.0}), chart)
    (batch,) = metric_points
    (form_batch,) = form_points
    assert form_batch.shape == batch.shape == (80, 2)
    assert np.array_equal(form_batch, batch)
    rng = np.random.default_rng(0)
    rot = cmath.exp(2j * math.pi / 3)
    rotated, plain = [], []
    for _ in range(40):
        w1 = (0.05 + 0.9 * rng.random()) * 0.5 ** (1.0 / 3)
        w1 *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        tail = (0.3 * (rng.normal() + 1j * rng.normal()),)
        rotated.append((rot * w1,) + tail)
        plain.append((w1,) + tail)
    assert np.array_equal(batch[40:], plain)
    assert np.array_equal(batch[:40], rotated)


def test_pullback_descend_round_trip_and_branch_independence():
    chart = LocalChart(dim=2, cover_degree=4)

    def eta_tilde(w):
        w1, w2 = w[..., 0], w[..., 1]
        return FormValue(
            2,
            {
                ((0,), (1,)): np.conj(w1) * w2,
                ((1,), (0,)): -w1 * np.conj(w2),
                ((0,), (0,)): 1.0 + np.abs(w1) ** 2,
                ((1,), (1,)): 2.0,
            },
        )

    eta = descend_form(eta_tilde, chart)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = np.array([
            0.5 * cmath.exp(1j * rng.uniform(-0.7, 0.7)) * rng.uniform(0.3, 1),
            0.2 * (rng.normal() + 1j * rng.normal()),
        ])
        back = pullback_form(eta, chart)(w)
        assert back.approx_equal(eta_tilde(w), tol=1e-11)
    z = (0.3 - 0.25j, 0.1)
    assert eta(z, branch=1).approx_equal(eta(z, branch=0), tol=1e-12)


def test_curvature_descend_rank1_and_diagonal():
    chart = LocalChart(dim=1, cover_degree=2)

    def theta_tilde(w):
        return CurvatureMatrix([[FormValue(1, {((0,), (0,)): 2.0})]])

    theta = curvature_descend(theta_tilde, [Fraction(1, 2)], chart)
    z = (0.2 + 0.3j,)
    got = complex(theta(z).entries[0][0].coefficient((0,), (0,)))
    assert abs(got - 2.0 * abs(z[0]) ** (-1) / 4) < 1e-12

    # diagonal stays diagonal with unchanged diagonal magnitude
    def diag_tilde(w):
        zero = FormValue.zero(1)
        return CurvatureMatrix(
            [
                [FormValue(1, {((0,), (0,)): 1.5}), zero],
                [zero, FormValue(1, {((0,), (0,)): -0.5})],
            ]
        )

    th2 = curvature_descend(diag_tilde, [Fraction(0), Fraction(1, 2)], chart)(z)
    assert th2.entries[0][1].is_zero() and th2.entries[1][0].is_zero()
    ratio = complex(th2.entries[0][0].coefficient((0,), (0,))) / complex(
        th2.entries[1][1].coefficient((0,), (0,))
    )
    assert abs(ratio - (1.5 / -0.5)) < 1e-12


def test_curvature_descend_preserves_chern_forms():
    rng = np.random.default_rng(12)
    chart = LocalChart(dim=2, cover_degree=3)
    weights = [Fraction(1, 3), Fraction(2, 3)]
    theta_tilde = fs_like_curvature_field(rng, 2, 2, 3)
    theta = curvature_descend(theta_tilde, weights, chart)
    z = (0.4 * cmath.exp(0.5j), 0.1 - 0.2j)
    w = chart.w_of_z(z)
    # reference: same coordinate rewrite without the frame conjugation
    from parachern.localmodel import _transform_form

    factor = w[0] / (3 * z[0])
    ref = CurvatureMatrix(
        [
            [_transform_form(f, factor) for f in row]
            for row in theta_tilde(w).entries
        ]
    )
    ca, cb = chern_forms(theta(z)), chern_forms(ref)
    for k in range(3):
        assert (ca[k] - cb[k]).max_abs() <= 1e-12 * max(1.0, cb[k].max_abs())


# ---------------------------------------------------------------------------
# cone metrics
# ---------------------------------------------------------------------------


def test_cone_metric_alpha_zero_and_range():
    chart = LocalChart(dim=2, cover_degree=1)
    omega = cone_metric(0.0, chart)
    z = (0.2 + 0.1j, 0.5)
    assert omega(z).approx_equal(
        FormValue(2, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0})
    )
    with pytest.raises(ValueError):
        cone_metric(2.0, chart)


def test_cone_metric_alpha_one_lifts_smoothly():
    chart = LocalChart(dim=2, cover_degree=2)
    omega = cone_metric(1.0, chart)
    lifted = pullback_form(omega, chart)
    rng = np.random.default_rng(3)
    for _ in range(8):
        w = (
            rng.uniform(0.05, 0.8) * cmath.exp(1j * rng.uniform(-1.4, 1.4)),
            0.1 * rng.normal(),
        )
        got = complex(lifted(w).coefficient((0,), (0,)))
        assert abs(got - 4.0) < 1e-11  # |z1|^{-1} |dz1/dw1|^2 = 4 exactly


def test_make_admissible_kahler():
    chart = LocalChart(dim=2, cover_degree=2, annuli=5, angular_nodes=8)

    def euclid(z):
        return FormValue(2, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0})

    field, k_min = make_admissible_kahler(euclid, lambda z: np.ones(len(z)), 1.0, chart)
    assert k_min == 1
    cone = cone_metric(1.0, chart)
    for z in [(0.05 + 0.02j, 0.1), (0.3 - 0.4j, -0.2j)]:
        M = np.array(
            [
                [complex(field(z).coefficient((p,), (q,))) for q in range(2)]
                for p in range(2)
            ]
        )
        C = np.array(
            [
                [complex(cone(z).coefficient((p,), (q,))) for q in range(2)]
                for p in range(2)
            ]
        )
        assert np.min(np.linalg.eigvalsh((M + M.conj().T) / 2)) > 0
        D = M - 0.2 * C
        assert np.min(np.linalg.eigvalsh((D + D.conj().T) / 2)) > -1e-6


# ---------------------------------------------------------------------------
# line currents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_annulus_weight_quadrature(N):
    assert abs(annulus_weight_quadrature(N) - math.pi * N) < 1e-6


def test_line_current_flat_upstairs():
    chart = LocalChart(dim=1, cover_degree=2)
    alpha = Fraction(1, 2)
    field = LocalMetricField(
        chart, [alpha], lambda z: np.abs(z[..., :1, None]) ** (2 * float(alpha))
    )
    smooth, mass, l1 = line_current_decomposition(field, alpha)
    assert mass == alpha
    assert l1["error"] < 1e-6
    z = (0.3 + 0.2j,)
    assert smooth(z).max_abs() < 1e-5  # flat htilde: smooth part vanishes


def test_line_current_gaussian_upstairs():
    chart = LocalChart(dim=1, cover_degree=2)
    alpha = Fraction(1, 2)

    def h(z):
        w1sq = np.abs(z[..., :1, None])  # |w1|^2 = |z1|^{2/N}
        return np.exp(-w1sq) * np.abs(z[..., :1, None]) ** (2 * float(alpha))

    field = LocalMetricField(chart, [alpha], h)
    smooth, mass, l1 = line_current_decomposition(field, alpha)
    assert l1["error"] < 1e-6
    # -ddbar ln htilde = ddbar |w|^2 = dw dwbar, descended to the singular block
    z = (0.25 - 0.15j,)
    got = complex(smooth(z).coefficient((0,), (0,)))
    expect = abs(z[0]) ** (2 / 2 - 2) / 4
    assert abs(got - expect) < 1e-4 * abs(expect)


def test_line_current_rejects_inadmissible():
    chart = LocalChart(dim=1, cover_degree=2)
    field = LocalMetricField(chart, [Fraction(1, 2)], lambda z: np.ones((len(z), 1, 1)))
    with pytest.raises(ValueError):
        line_current_decomposition(field, Fraction(1, 2))


def test_mass_descent():
    chart = LocalChart(dim=1, cover_degree=2)

    def theta_tilde(w):
        return FormValue(1, {((0,), (0,)): 1.0 + np.abs(w[..., 0]) ** 4})

    up, down = smooth_mass_descent(theta_tilde, chart)
    assert abs(down - up / 2) < 1e-6 * abs(up)


def test_mass_descent_samples_inside_the_chart():
    """At rho = 0.5 and N = 2 both disks stay inside the chart, |w_1| <
    rho^(1/2) = 0.707, and each is one call of its field."""
    chart = LocalChart(dim=1, cover_degree=2, rho=0.5)
    calls = []

    def theta_tilde(w):
        calls.append(w)
        if np.abs(np.asarray(w)[..., 0]).max() >= 0.5 ** 0.5:
            raise ValueError("outside the chart")
        return FormValue(1, {((0,), (0,)): 1.0 + np.abs(np.asarray(w)[..., 0]) ** 4})

    up, down = smooth_mass_descent(theta_tilde, chart)
    assert abs(down - up / 2) < 1e-6 * abs(up)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Bott-Chern transgression
# ---------------------------------------------------------------------------


def test_bott_chern_equal_metrics():
    phi = bott_chern_line(lambda w: np.full(len(w), 2.0), lambda w: np.full(len(w), 2.0))
    assert phi((0.1, 0.2)) == 0.0


def test_bott_chern_gaussian_and_order2():
    def h1(w):
        return 1.0 + 0.5 * np.abs(w[..., 0]) ** 2

    def h2(w):
        return h1(w) * np.exp(-np.abs(w[..., 0]) ** 4)

    w = (0.4 + 0.3j,)
    # exact c1 difference: (i/2pi) ddbar |w|^4 = (i/2pi) 4|w|^2 dw dwbar
    exact = FormValue(1, {((0,), (0,)): (1j / (2 * math.pi)) * 4 * abs(w[0]) ** 2})
    phi = bott_chern_line(h1, h2)
    errs = []
    for step in (0.08, 0.04, 0.02):
        fd = (1j / (2 * math.pi)) * ddbar_numeric(phi, w, step=step)
        errs.append((fd - exact).max_abs())
    order = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order > 1.7 and order2 > 1.7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ddbar_numeric_evaluates_each_stencil_point_once(n):
    """One call, on 8 n^2 + 1 distinct points per input point: the center,
    4 per diagonal entry pair and 4 per mixed entry of the real Hessian in
    2n coordinates."""
    for points in (1, 3):
        calls = []

        def f(z):
            calls.append(z)
            return np.sum(np.abs(z) ** 2, axis=-1)

        z = np.array([[0.1 * (k + 1) + 0.2j * (m + 1) for k in range(n)] for m in range(points)])
        ddbar_numeric(f, z)
        (batch,) = calls
        assert batch.shape == (points * (8 * n * n + 1), n)
        for stencil in batch.reshape(points, -1, n):
            assert len({tuple(p) for p in stencil}) == 8 * n * n + 1


def test_ddbar_numeric_of_a_hermitian_quadratic():
    """f = z* A z has d^2 f / dz_p dzbar_q = A[q, p], which the centered
    stencil reproduces up to roundoff."""
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    A = B + B.conj().T
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    form = ddbar_numeric(lambda w: np.real(np.einsum("...p,pq,...q->...", np.conj(w), A, w)), z,
                         step=1e-2)
    for p in range(3):
        for q in range(3):
            assert abs(complex(form.coefficient((p,), (q,))) - A[q, p]) < 1e-9


def test_bott_chern_rejects_nonpositive():
    phi = bott_chern_line(lambda w: np.full(len(w), -1.0), lambda w: np.ones(len(w)))
    with pytest.raises(ValueError):
        phi((0.1,))


def test_bott_chern_invariant_inputs_give_invariant_phi():
    N = 3
    rot = cmath.exp(2j * math.pi / N)

    def h1(w):
        return 1.0 + np.abs(w[..., 0]) ** 2

    def h2(w):
        return 2.0 + np.abs(w[..., 0]) ** 4

    phi = bott_chern_line(h1, h2)
    for t in (0.1, 0.5):
        w = (t * cmath.exp(0.4j),)
        assert abs(phi(w) - phi((rot * w[0],))) < 1e-12


# ---------------------------------------------------------------------------
# Griffiths margin transfer, closedness residual
# ---------------------------------------------------------------------------


def test_griffiths_margin_transfer():
    rng = np.random.default_rng(21)
    chart = LocalChart(dim=2, cover_degree=3)
    weights = [Fraction(1, 3), Fraction(2, 3)]
    theta_tilde = fs_like_curvature_field(rng, 2, 2, 3)

    def omega_tilde(w):
        return FormValue(2, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0})

    def htilde(w):
        t = np.sum(np.abs(w) ** 2, axis=-1)
        H = np.empty((len(w), 2, 2), dtype=complex)
        H[:] = [[2.0, 0.3], [0.3, 1.0]]
        H[:, 0, 0] += t
        return H

    dev, ratios = griffiths_margin_transfer(
        theta_tilde, omega_tilde, htilde, weights, chart, samples=15, seed=4
    )
    scale = max(abs(u) for u, _ in ratios)
    assert dev < 1e-9 * max(1.0, scale)


def test_griffiths_margin_transfer_samples_inside_the_chart():
    """At rho = 0.3 and N = 1 every sample has |w_1| < rho, and each field
    is called once upstairs and, through the descent, once downstairs."""
    chart = LocalChart(dim=2, cover_degree=1, rho=0.3)
    weights = [Fraction(0), Fraction(0)]
    curvature = fs_like_curvature_field(np.random.default_rng(22), 2, 2, 1)
    calls = {"theta": 0, "omega": 0, "htilde": 0}

    def inside(name, w):
        calls[name] += 1
        if np.abs(np.asarray(w)[..., 0]).max() >= 0.3:
            raise ValueError("outside the chart")

    def theta_tilde(w):
        inside("theta", w)
        return curvature(np.asarray(w))

    def omega_tilde(w):
        inside("omega", w)
        return FormValue(2, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0})

    def htilde(w):
        inside("htilde", w)
        return np.broadcast_to(np.diag([2.0, 1.0]), np.shape(w)[:-1] + (2, 2))

    dev, ratios = griffiths_margin_transfer(theta_tilde, omega_tilde, htilde, weights, chart)
    assert len(ratios) == 20
    assert dev < 1e-9 * max(1.0, max(abs(u) for u, _ in ratios))
    assert calls == {"theta": 2, "omega": 2, "htilde": 1}


@pytest.mark.parametrize("samples", [0, -3])
def test_griffiths_margin_transfer_needs_a_sample(samples):
    """No samples checks nothing, so it is an error, not a pass."""
    chart = LocalChart(dim=1, cover_degree=2)
    with pytest.raises(ValueError, match="samples"):
        griffiths_margin_transfer(None, None, None, [0], chart, samples=samples)


def exact_closed_fixture(chart):
    """Descent of d(|w_1|^2 dwbar_2): closed, deck-invariant, singular."""

    def eta_tilde(w):
        w1 = w[..., 0]
        return FormValue(
            2, {((0,), (1,)): np.conj(w1), ((), (0, 1)): w1}
        )

    return descend_form(eta_tilde, chart)


@pytest.mark.parametrize("N", [2, 5])
def test_closedness_residual_decay(N):
    chart = LocalChart(dim=2, cover_degree=N)
    eta = exact_closed_fixture(chart)
    slope, residue, series = closedness_decay_slope(eta, chart)
    assert abs(slope - 2.0 / N) < 0.02
    scale = series[0][1]
    assert residue < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("dim", [1, 3])
def test_closedness_residual_needs_two_variables(dim):
    """The residual reads the dz_1 ^ dzbar_2 and dzbar_1 ^ dzbar_2 parts of
    a 2-variable form; on another dimension it is an error, not a number."""
    chart = LocalChart(dim=dim, cover_degree=2)

    def eta(z):
        return FormValue(dim, {((0,), (0,)): np.abs(np.asarray(z)[..., 0])})

    with pytest.raises(ValueError, match="two-variable"):
        closedness_decay_slope(eta, chart)
    with pytest.raises(ValueError, match="two-variable"):
        boundary_residual(eta, 0.1, (0.1,) * (dim - 1))
    with pytest.raises(ValueError, match="two-variable"):
        boundary_residual(eta, 0.1, (0.1,))


def test_boundary_residual_calls_its_field_once():
    calls = []
    eta = exact_closed_fixture(LocalChart(dim=2, cover_degree=3))
    block, residue = boundary_residual(lambda z: calls.append(z) or eta(z), 0.1, (0.1,))
    (batch,) = calls
    assert batch.shape == (96, 2)
    assert residue < 1e-12 * max(1.0, block)


# ---------------------------------------------------------------------------
# one evaluation path: batches against single points
# ---------------------------------------------------------------------------


def coefficient_arrays(value, shape):
    """The coefficients of a FormValue, or the tensor of a CurvatureMatrix,
    as arrays broadcast to the points' shape."""
    if isinstance(value, CurvatureMatrix):
        T = value.tensor()
        return {"tensor": np.broadcast_to(T, shape + T.shape[-4:])}
    return {key: np.broadcast_to(c, shape) for key, c in value.coeffs.items()}


def returned_fields():
    """Each kind of field the module returns, on a seeded chart, with seeded
    points inside it and off the branch cut."""
    chart = LocalChart(dim=2, cover_degree=3, annuli=5, angular_nodes=8)
    rng = np.random.default_rng(31)

    def eta_tilde(w):
        w1, w2 = w[..., 0], w[..., 1]
        return FormValue(2, {((0,), (1,)): np.conj(w1) * w2, ((1,), (0,)): -w1 * np.conj(w2),
                             ((0,), (0,)): 1.0 + np.abs(w1) ** 2, ((1,), (1,)): 2.0})

    def euclid(z):
        return FormValue(2, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0})

    line_chart = LocalChart(dim=1, cover_degree=2)
    line = LocalMetricField(line_chart, [Fraction(1, 2)],
                            lambda z: np.exp(-np.abs(z[..., :1, None])) * np.abs(z[..., :1, None]))
    fields = {
        "descend_form": (descend_form(eta_tilde, chart), chart),
        "pullback_form": (pullback_form(descend_form(eta_tilde, chart), chart), chart),
        "curvature_descend": (curvature_descend(fs_like_curvature_field(rng, 2, 2, 3),
                                                [Fraction(1, 3), Fraction(2, 3)], chart), chart),
        "cone_metric": (cone_metric(1.0, chart), chart),
        "make_admissible_kahler": (make_admissible_kahler(
            euclid, lambda z: 1.0 + np.abs(z[:, 1]) ** 2, 1.0, chart)[0], chart),
        "line_current_decomposition": (line_current_decomposition(line, Fraction(1, 2))[0],
                                       line_chart),
    }
    return fields, rng


@pytest.mark.parametrize("name", ["descend_form", "pullback_form", "curvature_descend",
                                  "cone_metric", "make_admissible_kahler",
                                  "line_current_decomposition"])
def test_returned_fields_batch_as_point_by_point(name):
    """A batch of points (2, 3, dim) gives each point what that point gives
    alone, to 1e-13 relative: the batch and the single point take different
    array lengths through numpy, so the bits may differ."""
    fields, rng = returned_fields()
    field, chart = fields[name]
    radius = 0.05 + 0.5 * rng.random((2, 3))
    points = np.empty((2, 3, chart.dim), dtype=complex)
    points[..., 0] = radius * np.exp(1j * rng.uniform(-0.9, 0.9, size=(2, 3)) * math.pi / 3)
    points[..., 1:] = 0.2 * (rng.normal(size=(2, 3, chart.dim - 1))
                             + 1j * rng.normal(size=(2, 3, chart.dim - 1)))
    batch = coefficient_arrays(field(points), (2, 3))
    for idx in np.ndindex(2, 3):
        single = coefficient_arrays(field(points[idx]), ())
        assert single.keys() <= batch.keys()
        scale = max(np.max(np.abs(c)) for c in single.values())
        for key, c in batch.items():
            want = single.get(key, 0)
            assert np.max(np.abs(c[idx] - want)) <= 1e-13 * scale, key


def test_field_value_shape_is_checked():
    """A form field or a potential whose value is not one entry per point
    is rejected, not broadcast over the points."""
    chart = LocalChart(dim=1, cover_degree=2)
    with pytest.raises(ValueError, match="field value shape mismatch"):
        descend_form(lambda w: FormValue(1, {((0,), (0,)): np.ones(1)}), chart)
    with pytest.raises(ValueError, match="field value shape mismatch"):
        descend_form(lambda w: FormValue(1, {((0,), (0,)): np.ones((len(w), 1))}), chart)
    with pytest.raises(ValueError, match="field value shape mismatch"):
        ddbar_numeric(lambda w: 1.0, (0.2,))
    with pytest.raises(ValueError, match="field value shape mismatch"):
        ddbar_numeric(lambda w: np.ones((len(w), 1)), (0.2,))
    with pytest.raises(ValueError, match="field value shape mismatch"):
        bott_chern_line(lambda w: np.ones(2), lambda w: np.ones(len(w)))((0.1,))
