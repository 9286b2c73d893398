"""Tests for the pointwise exterior algebra and curvature invariants."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachern.forms import (
    ChernData,
    CurvatureMatrix,
    FormValue,
    QQI_I,
    QQi,
    chern_forms,
    chern_forms_minors,
    ddc_polynomial,
    griffiths_pairing,
    griffiths_test,
    hermitian_partner,
    kobayashi_lubke_rhs,
    nakano_margin_oracle,
    nakano_test,
    schur_form,
    segre_forms,
    volume_ratio,
    weak_positivity_test,
    _merge_sign,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def reorder_sign_oracle(word_i, word_j):
    """Sign bringing an interleaved word of (kind, index) letters into the
    canonical order: all dz ascending, then all dzbar ascending.  ``word_i``
    and ``word_j`` list the positions of dz / dzbar letters in the word."""
    word = [("z", i) for i in word_i] + [("zb", j) for j in word_j]
    target = sorted(word, key=lambda t: (t[0] == "zb", t[1]))
    # count inversions of the permutation taking word -> target
    pos = [target.index(x) for x in word]
    inv = sum(1 for a in range(len(pos)) for b in range(a + 1, len(pos)) if pos[a] > pos[b])
    return -1 if inv % 2 else 1


def wedge_word_oracle(a_key, b_key):
    """Wedge of two monomials by explicit letter concatenation."""
    (I1, J1), (I2, J2) = a_key, b_key
    letters = (
        [("z", i) for i in I1]
        + [("zb", j) for j in J1]
        + [("z", i) for i in I2]
        + [("zb", j) for j in J2]
    )
    if len({L for L in letters}) != len(letters):
        return None, 0
    # bubble-sort into canonical order counting swaps
    sign = 1
    letters = list(letters)
    n = len(letters)
    key = lambda t: (t[0] == "zb", t[1])
    for i in range(n):
        for j in range(n - 1 - i):
            if key(letters[j]) > key(letters[j + 1]):
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                sign = -sign
    I = tuple(i for k, i in letters if k == "z")
    J = tuple(i for k, i in letters if k == "zb")
    return (I, J), sign


def random_exact_form(rng, dim, p, q, span=4):
    from itertools import combinations

    coeffs = {}
    for I in combinations(range(dim), p):
        for J in combinations(range(dim), q):
            coeffs[(I, J)] = QQi(
                Fraction(int(rng.integers(-span, span + 1))),
                Fraction(int(rng.integers(-span, span + 1))),
            )
    return FormValue(dim, coeffs)


def random_exact_curvature(rng, rank, dim, span=3):
    """Hermitian-symmetric matrix of (1,1)-forms with Gaussian-rational
    coefficients: T[b,a,q,p] = conj(T[a,b,p,q])."""
    t = {}
    for a in range(rank):
        for b in range(rank):
            for p in range(dim):
                for q in range(dim):
                    t[(a, b, p, q)] = QQi(
                        Fraction(int(rng.integers(-span, span + 1))),
                        Fraction(int(rng.integers(-span, span + 1))),
                    )
    entries = [
        [
            FormValue(
                dim,
                {
                    ((p,), (q,)): t[(a, b, p, q)] + t[(b, a, q, p)].conjugate()
                    for p in range(dim)
                    for q in range(dim)
                },
            )
            for b in range(rank)
        ]
        for a in range(rank)
    ]
    return CurvatureMatrix(entries)


def random_float_curvature(rng, rank, dim):
    T = rng.normal(size=(rank, rank, dim, dim)) + 1j * rng.normal(
        size=(rank, rank, dim, dim)
    )
    T = (T + np.conj(np.transpose(T, (1, 0, 3, 2)))) / 2
    return CurvatureMatrix.from_tensor(T)


# ---------------------------------------------------------------------------
# QQi
# ---------------------------------------------------------------------------


def test_qqi_field_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(-1, 3))
    b = QQi(2, 5)
    assert a + b == QQi(Fraction(5, 2), Fraction(14, 3))
    assert a * QQI_I == QQi(Fraction(1, 3), Fraction(1, 2))
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert complex(QQi(1, -2)) == 1 - 2j
    with pytest.raises(ZeroDivisionError):
        a / QQi()


def test_qqi_mixes_with_ints_and_fractions():
    assert 3 * QQi(1, 1) == QQi(3, 3)
    assert QQi(1) + Fraction(1, 2) == QQi(Fraction(3, 2))


# reference model: a Gaussian rational as a (re, im) pair of Fractions

fractions_ = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)
qqis = st.builds(QQi, fractions_, fractions_)
real_operands = st.one_of(st.integers(-10**6, 10**6), fractions_)


def ref(x):
    if isinstance(x, QQi):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def ref_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def assert_matches(z, pair):
    """z equals the reference pair and is stored in canonical form."""
    assert type(z) is QQi
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert z == QQi(*pair) and hash(z) == hash(QQi(*pair))


@settings(max_examples=300, deadline=None)
@given(qqis, st.one_of(qqis, real_operands))
def test_qqi_matches_fraction_pair_reference(x, y):
    px, py = ref(x), ref(y)
    assert_matches(x + y, (px[0] + py[0], px[1] + py[1]))
    assert_matches(y + x, (px[0] + py[0], px[1] + py[1]))
    assert_matches(x - y, (px[0] - py[0], px[1] - py[1]))
    assert_matches(y - x, (py[0] - px[0], py[1] - px[1]))
    assert_matches(x * y, ref_mul(px, py))
    assert_matches(y * x, ref_mul(px, py))
    assert_matches(-x, (-px[0], -px[1]))
    assert_matches(x.conjugate(), (px[0], -px[1]))
    if py != (0, 0):
        assert_matches(x / y, ref_div(px, py))
    if px != (0, 0):
        assert_matches(QQi(*py) / x, ref_div(py, px))
    assert (x == y) == (px == py)
    assert bool(x) == (px != (0, 0))
    assert complex(x) == complex(float(px[0]), float(px[1]))


@given(qqis)
def test_qqi_round_trips_through_its_parts(x):
    assert_matches(QQi(x.re, x.im), (x.re, x.im))
    assert repr(x) == f"QQi({x.re}, {x.im})"


def test_qqi_constructor_accepts_int_fraction_str_and_float():
    assert_matches(QQi("1/3", 0.5), (Fraction(1, 3), Fraction(1, 2)))
    assert_matches(QQi(Fraction(6, 4), -2), (Fraction(3, 2), Fraction(-2)))
    assert_matches(QQi(Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 6), Fraction(1, 4)))
    assert_matches(QQi(), (Fraction(0), Fraction(0)))
    assert repr(QQi(Fraction(1, 2), -3)) == "QQi(1/2, -3)"
    assert QQi(Fraction(1, 2)) == Fraction(1, 2) and QQi(2) == 2
    assert QQi(2, 1) != 2 and QQi(1, 0) != Fraction(1, 2)
    assert hash(QQi(Fraction(1, 2))) == hash(Fraction(1, 2)) and hash(QQi(2)) == hash(2)
    with pytest.raises(ZeroDivisionError):
        QQi(1, 1) / 0
    with pytest.raises(TypeError):
        QQi(1) + 0.5


def test_cached_merge_sign_matches_inversion_count():
    subsets = [S for k in range(6) for S in combinations(range(5), k)]
    for a in subsets:
        for b in subsets:
            word = a + b
            inv = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                      if word[i] > word[j])
            want = (None, 0) if set(a) & set(b) else (
                tuple(sorted(word)), -1 if inv % 2 else 1)
            assert _merge_sign(a, b) == want
            assert _merge_sign(a, b) == want  # served from the cache
    assert _merge_sign.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# wedge algebra
# ---------------------------------------------------------------------------


def test_wedge_canonical_order_example():
    a = FormValue.monomial(2, (0,), (0,))
    b = FormValue.monomial(2, (1,), (1,))
    got = a.wedge(b)
    assert got.coefficient((0, 1), (0, 1)) == -1
    assert reorder_sign_oracle([0, 1], [0, 1]) == 1  # already canonical
    # oracle: interleaved word dz1 dzb1 dz2 dzb2 reordered to canonical
    key, sign = wedge_word_oracle(((0,), (0,)), ((1,), (1,)))
    assert key == ((0, 1), (0, 1)) and sign == -1


def test_wedge_identity_and_zero():
    rng = np.random.default_rng(0)
    a = random_exact_form(rng, 3, 1, 2)
    one = FormValue.scalar(3, QQi(1))
    assert a.wedge(one) == a
    assert one.wedge(a) == a
    assert a.wedge(FormValue.zero(3)).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_wedge_matches_word_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(2, 5)),)
    n = dims[0]
    p1, q1 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    p2, q2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    a = random_exact_form(rng, n, p1, q1)
    b = random_exact_form(rng, n, p2, q2)
    got = a.wedge(b)
    expect = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            key, sign = wedge_word_oracle(ka, kb)
            if sign == 0:
                continue
            expect[key] = expect.get(key, QQi()) + sign * (ca * cb)
    assert got == FormValue(n, expect)


@pytest.mark.parametrize("seed", range(5))
def test_graded_commutativity_and_associativity(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3
    pa, qa = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    pb, qb = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    a = random_exact_form(rng, n, pa, qa)
    b = random_exact_form(rng, n, pb, qb)
    c = random_exact_form(rng, n, 1, 1)
    sign = (-1) ** ((pa + qa) * (pb + qb))
    assert a.wedge(b) == sign * b.wedge(a)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_one_one_forms_commute():
    rng = np.random.default_rng(7)
    a = random_exact_form(rng, 3, 1, 1)
    b = random_exact_form(rng, 3, 1, 1)
    assert a.wedge(b) == b.wedge(a)


def test_conjugation_involution_and_antihomomorphism():
    rng = np.random.default_rng(11)
    a = random_exact_form(rng, 3, 2, 1)
    b = random_exact_form(rng, 3, 1, 1)
    assert a.conjugate().conjugate() == a
    assert a.wedge(b).conjugate() == a.conjugate().wedge(b.conjugate())


def test_dimension_mismatch_raises():
    a = FormValue.monomial(2, (0,), ())
    b = FormValue.monomial(3, (0,), ())
    with pytest.raises(ValueError):
        a.wedge(b)


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    a = random_exact_form(rng, 2, 1, 1)
    back = FormValue.from_json_list(2, a.to_json_list(), exact=True)
    assert back == a
    f = FormValue(2, {((0,), (1,)): 0.5 - 2j})
    back = FormValue.from_json_list(2, f.to_json_list())
    assert back.approx_equal(f)


# ---------------------------------------------------------------------------
# Chern / Segre / Schur
# ---------------------------------------------------------------------------


def test_chern_diagonal_example():
    a, b = 3.0, 5.0
    theta = CurvatureMatrix(
        [
            [FormValue.monomial(2, (0,), (0,), a), FormValue.zero(2)],
            [FormValue.zero(2), FormValue.monomial(2, (1,), (1,), b)],
        ]
    )
    c = chern_forms(theta)
    s = 1j / (2 * math.pi)
    assert c[1].approx_equal(
        FormValue(2, {((0,), (0,)): s * a, ((1,), (1,)): s * b})
    )
    assert c[2].approx_equal(
        FormValue(2, {((0, 1), (0, 1)): -(s ** 2) * a * b})
    )


def test_chern_of_zero_curvature():
    theta = CurvatureMatrix.scalar_times_identity(FormValue.zero(2), 3)
    c = chern_forms(theta)
    assert volume_ratio(c[0].wedge(c[0])) == 0  # sanity on zero handling
    assert c[1].is_zero() and c[2].is_zero() and c[3].is_zero()
    assert complex(c[0].coefficient((), ())) == 1


def test_zero_exact_matrix_runs_in_exact_mode():
    """A curvature matrix with no stored coefficient takes its mode from the
    normalization: QQi(1) means exact mode."""
    n = 2
    theta = CurvatureMatrix.scalar_times_identity(FormValue.zero(n), 3)
    for c in (chern_forms(theta, normalization=QQi(1)),
              chern_forms_minors(theta, normalization=QQi(1))):
        assert c[0] == FormValue.scalar(n, QQi(1))
        assert type(c[0].coefficient((), ())) is QQi
        assert all(c[k].is_zero() for k in range(1, 4))


@pytest.mark.parametrize("seed", range(4))
def test_newton_vs_minor_expansion_exact(seed):
    rng = np.random.default_rng(200 + seed)
    theta = random_exact_curvature(rng, 3, 3)
    assert theta.hermitian_defect() == 0
    c = chern_forms(theta)
    oracle = chern_forms_minors(theta)
    for k in range(4):
        assert c[k] == oracle[k]
        assert c[k].is_pure(k, k) or c[k].is_zero()


def test_newton_vs_minor_expansion_float():
    rng = np.random.default_rng(42)
    theta = random_float_curvature(rng, 3, 3)
    c = chern_forms(theta)
    oracle = chern_forms_minors(theta)
    for k in range(4):
        assert c[k].approx_equal(oracle[k], tol=1e-12 * max(1, c[k].max_abs()))


def test_chern_forms_real():
    rng = np.random.default_rng(17)
    theta = random_float_curvature(rng, 3, 2)
    c = chern_forms(theta)
    for k in range(3):
        assert c[k].is_real(tol=1e-12 * max(1.0, c[k].max_abs()))


def test_chern_unitary_invariance():
    rng = np.random.default_rng(23)
    r, n = 3, 2
    theta = random_float_curvature(rng, r, n)
    Z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    U, _ = np.linalg.qr(Z)
    conj = CurvatureMatrix(
        [
            [
                sum(
                    (
                        (U[i, a] * np.conj(U[j, b])) * theta.entries[a][b]
                        for a in range(r)
                        for b in range(r)
                    ),
                    FormValue.zero(n),
                )
                for j in range(r)
            ]
            for i in range(r)
        ]
    )
    c1, c2 = chern_forms(theta), chern_forms(conj)
    for k in range(r + 1):
        assert (c1[k] - c2[k]).max_abs() <= 1e-12 * max(1.0, c1[k].max_abs())


def test_exact_diagonal_conjugation_invariance():
    """Diagonal Gaussian-rational conjugation leaves every Chern form
    unchanged coefficient-for-coefficient, with no rounding at all."""
    rng = np.random.default_rng(29)
    theta = random_exact_curvature(rng, 3, 2)
    d = [QQi(Fraction(2, 3)), QQi(0, Fraction(5, 7)), QQi(Fraction(1, 4), 1)]
    conj = theta.conjugated(d)
    c1, c2 = chern_forms(theta), chern_forms(conj)
    for k in range(4):
        assert c1[k] == c2[k]


def test_segre_low_degrees_and_convolution():
    rng = np.random.default_rng(31)
    theta = random_exact_curvature(rng, 3, 4)
    c = chern_forms(theta)
    s = segre_forms(c, 4)
    assert s[1] == -1 * c[1]
    assert s[2] == c[1].wedge(c[1]) - c[2]
    for k in range(1, 5):
        conv = FormValue.zero(4)
        for i in range(k + 1):
            conv = conv + c[i].wedge(s[k - i])
        assert conv.is_zero()


def test_schur_small_partitions():
    rng = np.random.default_rng(37)
    theta = random_exact_curvature(rng, 3, 3)
    c = chern_forms(theta)
    s = segre_forms(c, 3)
    assert schur_form((1,), c) == c[1]
    assert schur_form((2,), c) == c[1].wedge(c[1]) - c[2]
    assert schur_form((1, 1), c) == c[2]
    for k in (1, 2, 3):
        assert schur_form((1,) * k, c) == c[k]
        assert schur_form((k,), c) == ((-1) ** k) * s[k]


def test_schur_21_against_scalar_root_oracle():
    # diagonal curvature x_i * omega shares the single even generator omega,
    # so every symmetric polynomial identity descends to scalars
    x = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    n = 3
    omega = FormValue(
        n, {((i,), (i,)): QQi(1) for i in range(n)}
    )
    zero = FormValue.zero(n)
    theta = CurvatureMatrix(
        [
            [QQi(x[i]) * omega if i == j else zero for j in range(3)]
            for i in range(3)
        ]
    )
    got = schur_form((2, 1), chern_forms(theta))
    # monomial expansion of the Schur polynomial s_(2,1)
    s21 = sum(
        x[i] ** 2 * x[j] for i in range(3) for j in range(3) if i != j
    ) + 2 * x[0] * x[1] * x[2]
    omega3 = omega.wedge(omega).wedge(omega)
    expect = QQi(s21) * omega3
    assert got == expect


def test_schur_partition_validation():
    rng = np.random.default_rng(41)
    c = chern_forms(random_exact_curvature(rng, 2, 2))
    with pytest.raises(ValueError):
        schur_form((1, 2), c)
    with pytest.raises(ValueError):
        schur_form((1, 1, 1), c)  # longer than rank 2


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def omega_standard(n, scale=1.0):
    return FormValue(n, {((i,), (i,)): complex(scale) for i in range(n)})


def test_identity_twist_positive_both():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 3)
    assert nakano_test(theta).verdict == "positive"
    g = griffiths_test(theta, samples=64)
    assert g.verdict == "positive"
    assert abs(g.margin - 1.0) < 1e-9  # <omega v, v> = |v|^2 on unit vectors


def test_fubini_study_scalar_positive():
    for z in (0.0, 0.3 + 0.4j, -1.2j):
        coef = 1.0 / (1 + abs(z) ** 2) ** 2
        theta = CurvatureMatrix([[FormValue.monomial(1, (0,), (0,), coef)]])
        assert griffiths_test(theta, samples=16).verdict == "positive"
        assert nakano_test(theta).verdict == "positive"


def griffiths_not_nakano_fixture():
    """n = r = 2 curvature whose assembled 4x4 matrix is I - 1.5 v v* with
    v = (0,1,-1,0)/sqrt(2): Nakano eigenvalue -0.5, while every decomposable
    direction pairs to at least 0.25."""
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    B = np.eye(4, dtype=complex) - 1.5 * np.outer(v, v.conj())
    T = np.zeros((2, 2, 2, 2), dtype=complex)
    for p in range(2):
        for c in range(2):
            for q in range(2):
                for b in range(2):
                    T[b, c, p, q] = B[p * 2 + c, q * 2 + b]
    return CurvatureMatrix.from_tensor(T)


def test_griffiths_positive_nakano_indefinite():
    theta = griffiths_not_nakano_fixture()
    assert theta.hermitian_defect() < 1e-14
    nak = nakano_test(theta)
    assert nak.verdict == "indefinite"
    assert abs(nak.margin - (-0.5)) < 1e-12
    assert abs(nakano_margin_oracle(theta) - (-0.5)) < 1e-12
    grif = griffiths_test(theta, samples=512, seed=3)
    assert grif.verdict == "positive"
    assert grif.margin >= 0.25 - 1e-12
    # analytic minimizer: v = (1,0), s = (0,1) attains exactly 0.25
    val = griffiths_pairing(theta, np.eye(2), [1, 0], [0, 1])
    assert abs(val - 0.25) < 1e-12


def test_nakano_implies_griffiths_on_samples():
    rng = np.random.default_rng(53)
    for _ in range(5):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = M.conj().T @ M + 0.1 * np.eye(4)
        T = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for c in range(2):
                for q in range(2):
                    for b in range(2):
                        T[b, c, p, q] = A[p * 2 + c, q * 2 + b]
        theta = CurvatureMatrix.from_tensor(T)
        assert nakano_test(theta).verdict == "positive"
        assert griffiths_test(theta, samples=128).verdict == "positive"


def test_metric_validation():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(1), 2)
    with pytest.raises(ValueError):
        nakano_test(theta, H=np.array([[1.0, 0], [0, -1.0]]))
    with pytest.raises(ValueError):
        griffiths_test(theta, H=np.array([[0.0, 1], [1, 0]]))


def test_weak_positivity_examples():
    eta = FormValue.monomial(2, (0,), (0,), 1j).wedge(
        FormValue.monomial(2, (1,), (1,), 1j)
    )
    assert weak_positivity_test(eta).verdict == "positive"
    neg = (-1) * eta
    assert weak_positivity_test(neg).verdict == "indefinite"
    # (1,1) case in n=2 exercises the sampling path
    pos11 = omega_standard(2, 1j)
    assert weak_positivity_test(pos11, samples=64).verdict == "positive"
    with pytest.raises(ValueError):
        weak_positivity_test(FormValue.monomial(2, (0,), ()))


def test_weak_positivity_of_c1sq_minus_c2():
    rng = np.random.default_rng(59)
    for _ in range(3):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = M.conj().T @ M + 0.05 * np.eye(4)
        T = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for c in range(2):
                for q in range(2):
                    for b in range(2):
                        T[b, c, p, q] = A[p * 2 + c, q * 2 + b]
        theta = CurvatureMatrix.from_tensor(T)
        c = chern_forms(theta)
        eta = schur_form((2,), c)
        assert weak_positivity_test(eta).verdict == "positive"


# ---------------------------------------------------------------------------
# Kobayashi-Luebke right-hand side
# ---------------------------------------------------------------------------


def test_kl_rhs_line_bundle_vanishes():
    theta = CurvatureMatrix([[omega_standard(2)]])
    rhs = kobayashi_lubke_rhs(chern_forms(theta), 1)
    assert rhs.max_abs() < 1e-15


def test_kl_rhs_identity_twist_equality_case():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 2)
    rhs = kobayashi_lubke_rhs(chern_forms(theta), 2)
    assert rhs.max_abs() < 1e-12


def primitive_hermitian_form(rng, n=2):
    """Random (1,1)-form with Hermitian coefficient matrix, trace-free with
    respect to the standard metric (primitive on the surface)."""
    s = rng.normal()
    b = rng.normal() + 1j * rng.normal()
    return FormValue(
        2,
        {
            ((0,), (0,)): s,
            ((1,), (1,)): -s,
            ((0,), (1,)): b,
            ((1,), (0,)): np.conj(b),
        },
    )


def test_kl_rhs_nonnegative_for_primitive_tracefree_part():
    rng = np.random.default_rng(61)
    for _ in range(5):
        f = float(rng.uniform(0.5, 2.0))
        sig = primitive_hermitian_form(rng)
        tau = primitive_hermitian_form(rng)
        base = omega_standard(2, f)
        theta = CurvatureMatrix(
            [
                [base + sig, tau],
                [hermitian_partner(tau), base - sig],
            ]
        )
        assert theta.hermitian_defect() < 1e-12
        rhs = kobayashi_lubke_rhs(chern_forms(theta), 2)
        assert volume_ratio(rhs).real >= -1e-12


def test_kl_rhs_requires_surface():
    theta = CurvatureMatrix([[omega_standard(3)]])
    with pytest.raises(ValueError):
        kobayashi_lubke_rhs(chern_forms(theta), 1)


# ---------------------------------------------------------------------------
# ddc polynomial stub
# ---------------------------------------------------------------------------


def test_ddc_of_abs_square():
    # phi = |z|^2 on n=1: ddc phi = (i/2pi) dz dzbar everywhere
    val = ddc_polynomial({((1,), (1,)): 1.0}, 1, [0.7 - 0.2j])
    assert val.approx_equal(
        FormValue.monomial(1, (0,), (0,), 1j / (2 * math.pi)), tol=1e-15
    )


def test_ddc_product_potential():
    # phi = |z1|^2 |z2|^2 at a point, against the hand derivative
    pt = np.array([0.5 + 0.1j, -0.3 + 0.8j])
    val = ddc_polynomial({((1, 1), (1, 1)): 1.0}, 2, pt)
    z1, z2 = pt
    expect = FormValue(
        2,
        {
            ((0,), (0,)): abs(z2) ** 2,
            ((1,), (1,)): abs(z1) ** 2,
            ((0,), (1,)): np.conj(z1) * z2,
            ((1,), (0,)): z1 * np.conj(z2),
        },
    )
    assert val.approx_equal((1j / (2 * math.pi)) * expect, tol=1e-14)
    assert val.is_real(tol=1e-15)
