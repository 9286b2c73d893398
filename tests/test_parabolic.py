import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

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
    m2 = ParabolicModel.from_json(m.to_json())
    assert (m2.rank, m2.degree, dict(m2.points)) == (m.rank, m.degree, dict(m.points))
    assert m.to_json_dict()["points"]["p"] == ["1/2", "1/2"]
    assert m.to_json_dict()["coverDegree"] == 2


def test_json_rejects_out_of_range_weight():
    bad = '{"rank": 1, "degree": 0, "points": {"p": ["3/2"]}}'
    with pytest.raises(InvalidModelError):
        ParabolicModel.from_json(bad)
