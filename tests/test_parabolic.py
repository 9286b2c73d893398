import copy
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachern import parabolic
from parachern.parabolic import (
    FilterFunction,
    InvalidModelError,
    ParabolicModel,
    PointSetMismatchError,
    ample_degree_test,
    det,
    direct_sum,
    dual,
    is_stable,
    my_filtration,
    par_degree,
    random_model,
    slope,
    tensor,
)

F = Fraction


def line(degree, weight, label="p0"):
    return ParabolicModel(rank=1, degree=degree, points={label: (F(weight),)})


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def step_integral_oracle(model):
    """Integral form of par-deg computed by naive Riemann evaluation of the
    step function on the refined jump grid (independent of FilterFunction's
    own interval bookkeeping)."""
    weights = sorted({w for ws in model.points.values() for w in ws} | {F(0), F(1)})
    total = F(0)
    for a, b in zip(weights, weights[1:]):
        # deg E_t is constant on (a, b]; sample at the right endpoint
        t = b
        d = model.degree - sum(
            1 for ws in model.points.values() for w in ws if w < t
        )
        total += d * (b - a)
    return model.rank * model.num_points + total


def tensor_degree_oracle(a, b, t=F(0)):
    """deg U_t of the tensor filtration by brute force: per point and per
    generator pair, minimize the vanishing order ceil(s - x) + ceil(t - s - y)
    over the finite jump grid of s values."""
    deg = b.rank * a.degree + a.rank * b.degree
    for label in a.points:
        grid = set()
        for x in a.points[label]:
            for k in range(-2, 3):
                grid.add(x + k)
        for y in b.points[label]:
            for k in range(-2, 3):
                grid.add(t - y + k)
        for x in a.points[label]:
            for y in b.points[label]:
                order = min(
                    math.ceil(s - x) + math.ceil(t - s - y) for s in grid
                )
                deg -= order
    return deg


# ---------------------------------------------------------------------------
# par_degree and my_filtration
# ---------------------------------------------------------------------------

def test_pardeg_weightless():
    m = ParabolicModel(rank=2, degree=3)
    assert par_degree(m) == 3


def test_pardeg_half_half():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    assert par_degree(m) == 2


def test_pardeg_two_points():
    m = ParabolicModel(
        rank=3,
        degree=0,
        points={"p": (F(1, 3), F(1, 3), F(2, 3)), "q": (F(1, 4), F(1, 2), F(3, 4))},
    )
    assert par_degree(m) == F(17, 6)


def test_filtration_no_points():
    f = my_filtration(ParabolicModel(rank=2, degree=5))
    assert f.jumps == ()
    assert f.degree_at(F(1, 2)) == 5


def test_filtration_single_jump():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    f = my_filtration(m)
    assert len(f.jumps) == 1
    (j,) = f.jumps
    assert (j.t, j.rank_drop, j.degree_after) == (F(1, 2), 2, -1)
    assert f.degree_at(F(1, 2)) == 1  # left-continuous
    assert f.degree_at(F(3, 4)) == -1


def test_filtration_integral_matches_sum_form():
    m = ParabolicModel(rank=2, degree=0, points={"p": (F(1, 3), F(2, 3))})
    f = my_filtration(m)
    assert {j.t for j in f.jumps} == {F(1, 3), F(2, 3)}
    assert m.rank * m.num_points + f.integral_degree() == par_degree(m)


def test_par_degree_rejects_disagreeing_forms(monkeypatch):
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    monkeypatch.setattr(FilterFunction, "integral_degree", lambda self: F(99))
    with pytest.raises(ArithmeticError, match="integral form"):
        par_degree(m)


PAR_DEGREE_CHECK_SCRIPT = """
import sys
from fractions import Fraction as F
from parachern.parabolic import FilterFunction, ParabolicModel, par_degree
if not sys.flags.optimize:
    sys.exit(2)
FilterFunction.integral_degree = lambda self: F(99)
try:
    par_degree(ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))}))
except ArithmeticError:
    sys.exit(0)
sys.exit(1)
"""


def test_par_degree_check_survives_optimize_flag():
    """The sum/integral comparison is a runtime check, not an assert, so
    ``python -O`` keeps it."""
    src = Path(parabolic.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", PAR_DEGREE_CHECK_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_filtration_period_shift():
    m = ParabolicModel(rank=3, degree=2, points={"p": (F(0), F(1, 2), F(1, 2)),
                                                 "q": (F(1, 4),) * 3})
    assert my_filtration(m).period_degree_shift == -6


@pytest.mark.parametrize("seed", range(8))
def test_integral_form_against_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m = random_model(rng)
        assert par_degree(m) == step_integral_oracle(m)


# ---------------------------------------------------------------------------
# dual / tensor / det / direct sum
# ---------------------------------------------------------------------------

def test_dual_third():
    m = line(0, F(1, 3))
    d = dual(m)
    assert d.points["p0"] == (F(2, 3),)
    assert d.degree == -1
    assert par_degree(d) == F(-1, 3)


def test_dual_weightless():
    m = ParabolicModel(rank=2, degree=3)
    assert dual(m).degree == -3


def test_dual_mixed_zero_weight():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(0), F(1, 2))})
    d = dual(m)
    assert d.points["p"] == (F(0), F(1, 2))
    assert par_degree(d) == F(-3, 2)


def test_tensor_with_trivial_line_is_identity():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 3), F(2, 3))})
    triv = ParabolicModel(rank=1, degree=0, points={"p": (F(0),)})
    t = tensor(m, triv)
    assert (t.rank, t.degree, t.points["p"]) == (m.rank, m.degree, m.points["p"])


def test_tensor_halves_wrap():
    t = tensor(line(0, F(1, 2)), line(0, F(1, 2)))
    assert t.points["p0"] == (F(0),)
    assert t.degree == 1
    assert par_degree(t) == 1
    assert t.degree == tensor_degree_oracle(line(0, F(1, 2)), line(0, F(1, 2)))


def test_tensor_rank2_with_line():
    a = ParabolicModel(rank=2, degree=0, points={"p": (F(1, 3), F(2, 3))})
    b = ParabolicModel(rank=1, degree=0, points={"p": (F(2, 3),)})
    t = tensor(a, b)
    assert t.points["p"] == (F(0), F(1, 3))
    # both pairs wrap (1/3+2/3 = 1 and 2/3+2/3 = 4/3), pinned by bilinearity
    assert t.degree == 2
    assert t.degree == tensor_degree_oracle(a, b)
    assert par_degree(t) == par_degree(a) + 2 * par_degree(b)


def test_tensor_point_mismatch():
    with pytest.raises(PointSetMismatchError):
        tensor(line(0, F(1, 2), "p"), line(0, F(1, 2), "q"))


def test_det_mixed():
    m = ParabolicModel(rank=2, degree=0, points={"p": (F(1, 2), F(2, 3))})
    d = det(m)
    assert d.rank == 1
    assert d.points["p"] == (F(1, 6),)
    assert d.degree == 1


def test_det_weightless():
    m = ParabolicModel(rank=3, degree=4)
    d = det(m)
    assert (d.rank, d.degree) == (1, 4)


def test_direct_sum_additivity():
    a = line(1, F(1, 3))
    b = line(0, F(1, 2))
    s = direct_sum(a, b)
    assert par_degree(s) == F(11, 6) == par_degree(a) + par_degree(b)


@pytest.mark.parametrize("seed", range(4))
def test_tensor_degree_against_filtration_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        a = random_model(rng, max_rank=3, max_cover=6, max_points=2)
        rb = int(rng.integers(1, 4))
        b = ParabolicModel(
            rank=rb,
            degree=int(rng.integers(-3, 4)),
            points={
                label: tuple(
                    Fraction(int(rng.integers(0, 6)), 6) for _ in range(rb)
                )
                for label in a.points
            },
        )
        assert tensor(a, b).degree == tensor_degree_oracle(a, b)


# ---------------------------------------------------------------------------
# slope / stability / ampleness
# ---------------------------------------------------------------------------

def test_stability_vacuous():
    assert is_stable(ParabolicModel(rank=2, degree=1), []).verdict == "stable"


def test_stability_destabilizing_summand():
    l1 = line(2, F(1, 2))
    l2 = line(0, F(0))
    e = direct_sum(l1, l2)
    v = is_stable(e, [l1])
    assert v.verdict == "unstable"
    assert v.witness is l1


def test_stability_stable_case():
    e = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 4), F(3, 4))})
    cand = ParabolicModel(rank=1, degree=0, points={"p": (F(3, 4),)})
    assert slope(e) == 1
    assert slope(cand) == F(3, 4)
    assert is_stable(e, [cand]).verdict == "stable"


def test_stability_rank_guard():
    e = ParabolicModel(rank=2, degree=0)
    with pytest.raises(InvalidModelError):
        is_stable(e, [ParabolicModel(rank=2, degree=-1)])


def test_ample_line_cases():
    assert ample_degree_test(line(0, F(1, 2)))
    assert not ample_degree_test(line(-1, F(1, 2)))
    assert not ample_degree_test(line(0, F(0)))  # par-deg 0 boundary


def test_ample_direct_sum():
    l1 = line(1, F(1, 3))
    l2 = line(0, F(1, 2))
    e = direct_sum(l1, l2)
    assert ample_degree_test(e, [l1, l2])
    l3 = line(-1, F(1, 2))
    e2 = direct_sum(l1, l3)
    assert not ample_degree_test(e2, [l1, l3])


def test_ample_indecomposable_unsupported():
    with pytest.raises(InvalidModelError):
        ample_degree_test(ParabolicModel(rank=2, degree=1))


# ---------------------------------------------------------------------------
# algebraic identities on a random corpus
# ---------------------------------------------------------------------------

def test_identities_random_corpus():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = random_model(rng, max_rank=4, max_cover=8, max_points=3)
        assert par_degree(dual(m)) == -par_degree(m)
        dd = dual(dual(m))
        assert (dd.rank, dd.degree, dict(dd.points)) == (
            m.rank, m.degree, dict(m.points))
        d = det(m)
        assert d.rank == 1 and par_degree(d) == par_degree(m)
        # share a point set for the binary ops
        b = ParabolicModel(
            rank=2,
            degree=int(rng.integers(-3, 4)),
            points={
                label: tuple(
                    Fraction(int(rng.integers(0, 6)), 6) for _ in range(2)
                )
                for label in m.points
            },
        )
        assert par_degree(tensor(m, b)) == b.rank * par_degree(m) + m.rank * par_degree(b)
        assert par_degree(direct_sum(m, b)) == par_degree(m) + par_degree(b)


def test_filtration_jump_locations_are_weights():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_model(rng)
        f = my_filtration(m)
        weight_set = {w for ws in m.points.values() for w in ws}
        assert {j.t for j in f.jumps} == weight_set
        assert sum(j.rank_drop for j in f.jumps) == sum(
            len(ws) for ws in m.points.values()
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    m2 = ParabolicModel.from_json_dict(m.to_json_dict())
    assert (m2.rank, m2.degree, dict(m2.points)) == (m.rank, m.degree, dict(m.points))
    assert m.to_json_dict()["points"]["p"] == ["1/2", "1/2"]
    assert m.to_json_dict()["coverDegree"] == 2


@pytest.mark.parametrize(
    "w", [1, "1", "7/7", 1.0, F(4, 3), F(-1, 3), -0.5, F(-1, 10**30), F(10**30, 10**30 - 1)]
)
def test_weight_outside_unit_interval_rejected(w):
    with pytest.raises(InvalidModelError, match=r"outside \[0, 1\)"):
        ParabolicModel(rank=2, degree=0, points={"p": (F(1, 2), w)})


def test_first_weight_outside_unit_interval_is_named():
    """The first bad weight in input order is reported, as the sorting of
    the weights comes after the range check."""
    with pytest.raises(InvalidModelError, match=r"weight 3/2 outside \[0, 1\)"):
        ParabolicModel(rank=2, degree=0, points={"p": ("3/2", "-1/2")})
    with pytest.raises(InvalidModelError, match=r"weight -1/2 outside \[0, 1\)"):
        ParabolicModel(rank=2, degree=0, points={"p": ("-1/2", "3/2")})


def test_json_rejects_out_of_range_weight():
    bad = {"rank": 1, "degree": 0, "points": {"p": ["3/2"]}}
    with pytest.raises(InvalidModelError):
        ParabolicModel.from_json_dict(bad)


# ---------------------------------------------------------------------------
# reference: the same operations in plain Fraction arithmetic
# ---------------------------------------------------------------------------

def ref_points(points):
    """Each weight as a Fraction, range-checked, sorted by Fraction order."""
    out = {}
    for label, ws in points.items():
        ws = tuple(sorted(F(w) for w in ws))
        assert all(0 <= w < 1 for w in ws)
        out[label] = ws
    return out


def ref_cover_degree(points):
    n = 1
    for ws in points.values():
        for w in ws:
            n = math.lcm(n, w.denominator)
    return n


def ref_sum_form(m):
    return F(m.degree) + sum((w for ws in m.points.values() for w in ws), F(0))


def ref_jumps(m):
    drops = {}
    for ws in m.points.values():
        for w in ws:
            drops[w] = drops.get(w, 0) + 1
    deg = m.degree
    jumps = []
    for t in sorted(drops):
        deg -= drops[t]
        jumps.append((t, drops[t], deg))
    return jumps


def ref_integral(degree_at_zero, jumps):
    total = F(0)
    cuts = [F(0)] + [t for t, _, _ in jumps] + [F(1)]
    vals = [degree_at_zero] + [d for _, _, d in jumps]
    for (a, b), v in zip(zip(cuts, cuts[1:]), vals):
        total += v * (b - a)
    return total


def ref_dual(m):
    zero_count = sum(1 for ws in m.points.values() for w in ws if w == 0)
    points = {
        label: tuple(F(0) if w == 0 else 1 - w for w in ws)
        for label, ws in m.points.items()
    }
    degree = -m.degree + zero_count - m.rank * m.num_points
    return m.rank, degree, ref_points(points)


def ref_det(m):
    points = {}
    shift = 0
    for label, ws in m.points.items():
        s = sum(ws, F(0))
        shift += math.floor(s)
        points[label] = (s - math.floor(s),)
    return 1, m.degree + shift, points


def ref_tensor(a, b):
    points = {}
    wraps = 0
    for label in a.points:
        ws = []
        for x in a.points[label]:
            for y in b.points[label]:
                s = x + y
                if s >= 1:
                    s -= 1
                    wraps += 1
                ws.append(s)
        points[label] = tuple(sorted(ws))
    return a.rank * b.rank, b.rank * a.degree + a.rank * b.degree + wraps, points


def ref_direct_sum(a, b):
    points = {label: tuple(sorted(a.points[label] + b.points[label])) for label in a.points}
    return a.rank + b.rank, a.degree + b.degree, points


# denominators from 1 to 10^30; 10^30, 10^30 + 1, 3^40 and 2^61 - 1 are
# pairwise coprime
DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.integers(1, 10**30),
    st.sampled_from([10**30, 10**30 + 1, 3**40, 2**61 - 1]),
)


@st.composite
def weight_inputs(draw):
    """A weight in [0, 1) as a Fraction, an int, a dyadic float or a string."""
    kind = draw(st.sampled_from(["fraction", "int", "float", "string"]))
    if kind == "int":
        return 0
    if kind == "float":
        bits = draw(st.integers(0, 52))
        return draw(st.integers(0, 2**bits - 1)) / 2**bits
    den = draw(DENOMINATORS)
    k = draw(st.integers(0, den - 1))
    return F(k, den) if kind == "fraction" else f"{k}/{den}"


@st.composite
def model_pairs(draw):
    """Two models on the same marked points, weights given unsorted."""
    labels = [f"p{i}" for i in range(draw(st.integers(0, 4)))]

    def model():
        rank = draw(st.integers(1, 6))
        points = {label: draw(st.lists(weight_inputs(), min_size=rank, max_size=rank))
                  for label in labels}
        return rank, draw(st.integers(-6, 6)), points

    return model(), model()


def assert_matches_reference(m, rank, degree, points):
    assert (m.rank, m.degree, m.points) == (rank, degree, points)
    for ws in m.points.values():
        assert all(type(w) is F for w in ws)
        assert list(ws) == sorted(ws)
    assert m.cover_degree == ref_cover_degree(points)
    f = my_filtration(m)
    jumps = [(j.t, j.rank_drop, j.degree_after) for j in f.jumps]
    assert jumps == ref_jumps(m)
    assert all(type(j.t) is F for j in f.jumps)
    integral = f.integral_degree()
    assert type(integral) is F and integral == ref_integral(m.degree, jumps)
    pd = par_degree(m)
    assert type(pd) is F and pd == ref_sum_form(m)


@settings(max_examples=200, deadline=None)
@given(model_pairs())
def test_integer_arithmetic_matches_fraction_reference(pair):
    (rank, degree, points), (rank_b, degree_b, points_b) = pair
    a = ParabolicModel(rank, degree, points)
    b = ParabolicModel(rank_b, degree_b, points_b)
    assert_matches_reference(a, rank, degree, ref_points(points))
    assert_matches_reference(b, rank_b, degree_b, ref_points(points_b))
    assert_matches_reference(dual(a), *ref_dual(a))
    assert_matches_reference(det(a), *ref_det(a))
    assert_matches_reference(tensor(a, b), *ref_tensor(a, b))
    assert_matches_reference(direct_sum(a, b), *ref_direct_sum(a, b))


def ref_random_model(rng, max_rank=5, max_cover=12, max_points=4, degree_span=6):
    """random_model's draws, with each weight built as a Fraction k/n."""
    rank = int(rng.integers(1, max_rank + 1))
    degree = int(rng.integers(-degree_span, degree_span + 1))
    points = {}
    for p in range(int(rng.integers(0, max_points + 1))):
        n = int(rng.integers(1, max_cover + 1))
        points[f"p{p}"] = tuple(F(int(rng.integers(0, n)), n) for _ in range(rank))
    return rank, degree, ref_points(points)


GENERATOR_ARGS = [{}, {"max_rank": 3, "max_cover": 6, "max_points": 2},
                  {"max_rank": 4, "max_cover": 8, "max_points": 3}, {"max_cover": 30}]


@pytest.mark.parametrize("kwargs", GENERATOR_ARGS)
def test_random_model_stream_is_pinned(kwargs):
    """For a fixed seed random_model returns the models of the Fraction-built
    generator and leaves the stream where it does, so every --seed of `ops`
    sweeps the same models."""
    seeds = [np.random.default_rng(s) for s in range(5)]
    seeds += [np.random.default_rng((s, i)) for s in (0, 61) for i in range(40)]
    for rng in seeds:
        ref_rng = copy.deepcopy(rng)
        for _ in range(5):
            assert_matches_reference(random_model(rng, **kwargs), *ref_random_model(ref_rng, **kwargs))
        assert rng.integers(2**62) == ref_rng.integers(2**62)


@pytest.mark.parametrize("seed", range(6))
def test_operations_match_fraction_reference_on_seeded_corpus(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(40):
        a = random_model(rng, max_rank=4)
        b = random_model(rng, max_rank=4)
        while set(b.points) != set(a.points):
            b = random_model(rng, max_rank=4)
        assert_matches_reference(dual(a), *ref_dual(a))
        assert_matches_reference(dual(dual(a)), a.rank, a.degree, a.points)
        assert_matches_reference(det(a), *ref_det(a))
        assert_matches_reference(tensor(a, b), *ref_tensor(a, b))
        assert_matches_reference(direct_sum(a, b), *ref_direct_sum(a, b))


@pytest.mark.parametrize(
    "op,models,cover",
    [
        # halves tensored to 0: the cover degree falls from 2 to 1
        (tensor, [line(0, F(1, 2)), line(0, F(1, 2))], 1),
        (tensor, [ParabolicModel(2, 0, {"p": (F(1, 4), F(3, 4))}), line(1, F(1, 4), "p")], 2),
        (tensor, [line(0, F(1, 6)), line(0, F(1, 3))], 2),
        # weights that sum to an integer: the det weight is 0 over 1
        (det, [ParabolicModel(2, 0, {"p": (F(1, 3), F(2, 3))})], 1),
        (det, [ParabolicModel(3, -1, {"p": (F(1, 6), F(1, 2), F(1, 3)), "q": (F(1, 4),) * 3})], 4),
        (det, [ParabolicModel(4, 2, {"p": (F(1, 2), F(1, 2), F(3, 4), F(1, 4))})], 1),
    ],
)
def test_cover_degree_shrinks_to_the_weight_lcm(op, models, cover):
    ref = {tensor: ref_tensor, det: ref_det}[op]
    result = op(*models)
    assert result.cover_degree == cover < max(m.cover_degree for m in models)
    assert_matches_reference(result, *ref(*models))


def test_numerators_outside_the_unit_interval_rejected():
    with pytest.raises(InvalidModelError, match=r"weight 4/3 outside \[0, 1\)"):
        ParabolicModel._from_numerators(2, 0, 6, {"p": [3, 8]})
    with pytest.raises(InvalidModelError, match=r"weight -1/6 outside \[0, 1\)"):
        ParabolicModel._from_numerators(2, 0, 6, {"p": [3, -1]})
    with pytest.raises(InvalidModelError, match="1 weights for rank 2"):
        ParabolicModel._from_numerators(2, 0, 6, {"p": [3]})


# ---------------------------------------------------------------------------
# one stored form: integer numerators, with Fraction views
# ---------------------------------------------------------------------------

def test_points_is_a_read_only_view():
    m = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    twin = ParabolicModel(rank=2, degree=1, points={"p": (F(1, 2), F(1, 2))})
    view = m.points
    view["p"] = (F(0), F(1, 3))
    view["q"] = (F(1, 4),) * 2
    assert m.points == {"p": (F(1, 2), F(1, 2))}
    assert m == twin and m.numerators == {"p": (1, 1)}
    assert par_degree(m) == 2


def test_par_degree_builds_no_filtration_jumps(monkeypatch):
    """The integral form sums the filtration's integer steps, so par_degree
    never makes a FilterJump; the jumps are made only when read."""
    def refuse(*args):
        raise AssertionError("FilterJump built")

    monkeypatch.setattr(parabolic, "FilterJump", refuse)
    m = ParabolicModel(rank=3, degree=0,
                       points={"p": (F(1, 3), F(1, 3), F(2, 3)), "q": (F(1, 4), F(1, 2), F(3, 4))})
    assert par_degree(m) == F(17, 6)
    assert my_filtration(m).integral_degree() == F(17, 6) - 6
    with pytest.raises(AssertionError, match="FilterJump built"):
        my_filtration(m).jumps


def test_every_construction_gives_one_model():
    """From Fractions, from JSON declaring a larger cover degree, and from
    numerators over a multiple of the weight lcm: one model, with the lcm as
    its cover degree."""
    weights = {"p": (F(1, 2), F(1, 3)), "q": (F(0), F(5, 6))}
    models = [
        ParabolicModel(rank=2, degree=-1, points=weights),
        ParabolicModel(rank=2, degree=-1, points={"q": ("5/6", 0), "p": (0.5, "1/3")}),
        ParabolicModel.from_json_dict({"rank": 2, "degree": -1, "coverDegree": 24,
                                       "points": {"p": ["1/3", "1/2"], "q": ["0", "5/6"]}}),
        ParabolicModel._from_numerators(2, -1, 24, {"p": [12, 8], "q": [20, 0]}),
    ]
    for m in models:
        assert m == models[0] and m.cover_degree == 6
        assert m.numerators == {"p": (2, 3), "q": (0, 5)} and m.points == ref_points(weights)
    assert models[0] != ParabolicModel(rank=2, degree=0, points=weights)
    assert models[0] != ParabolicModel(rank=2, degree=-1, points={"p": weights["p"]})


def test_equal_models_hash_equal():
    """Models equal under == hash the same, however they were built, so a set
    keeps one of them."""
    weights = {"p": (F(1, 2), F(1, 3)), "q": (F(0), F(5, 6))}
    models = [
        ParabolicModel(rank=2, degree=-1, points=weights),
        ParabolicModel.from_json_dict({"rank": 2, "degree": -1, "coverDegree": 24,
                                       "points": {"q": ["0", "5/6"], "p": ["1/3", "1/2"]}}),
        ParabolicModel._from_numerators(2, -1, 24, {"p": [12, 8], "q": [20, 0]}),
    ]
    assert len({hash(m) for m in models}) == 1
    assert len(set(models)) == 1
    assert hash(ParabolicModel(1, 0)) == hash(ParabolicModel(1, 0, {}))
    others = {models[0], ParabolicModel(rank=2, degree=0, points=weights),
              ParabolicModel(rank=2, degree=-1, points={"p": weights["p"]})}
    assert len(others) == 3
