"""Exact rational arithmetic for parabolic structures on a curve.

A parabolic model is a vector bundle of given rank and degree together with,
at finitely many marked points, a multiset of rational weights in [0, 1).
All degree/slope computations are exact (fractions.Fraction); no floats enter
this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class PointSetMismatchError(ValueError):
    """Raised when a binary operation mixes models with different marked points."""


class InvalidModelError(ValueError):
    """Raised when a model violates its invariants."""


def _as_weight(x) -> Fraction:
    w = Fraction(x)
    if not (0 <= w < 1):
        raise InvalidModelError(f"weight {w} outside [0, 1)")
    return w


@dataclass(frozen=True)
class ParabolicModel:
    """Rank, underlying degree, and per-point sorted weight multisets.

    ``points`` maps point labels to nondecreasing tuples of Fractions, one
    weight per rank.  ``cover_degree`` is the lcm of all weight denominators
    (1 for weightless models).
    """

    rank: int
    degree: int
    points: Mapping[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidModelError("rank must be positive")
        pts = {}
        for label, ws in dict(self.points).items():
            ws = tuple(sorted(_as_weight(w) for w in ws))
            if len(ws) != self.rank:
                raise InvalidModelError(
                    f"point {label!r}: {len(ws)} weights for rank {self.rank}"
                )
            pts[label] = ws
        object.__setattr__(self, "points", pts)

    @property
    def cover_degree(self) -> int:
        n = 1
        for ws in self.points.values():
            for w in ws:
                n = math.lcm(n, w.denominator)
        return n

    @property
    def num_points(self) -> int:
        return len(self.points)

    def is_parabolic(self) -> bool:
        """False for the trivial structure (every weight zero or no points)."""
        return any(w != 0 for ws in self.points.values() for w in ws)

    # -- serialization (the CLI's canonical input format) --

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "degree": self.degree,
            "points": {
                label: [f"{w.numerator}/{w.denominator}" for w in ws]
                for label, ws in self.points.items()
            },
            "coverDegree": self.cover_degree,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ParabolicModel":
        try:
            rank = int(d["rank"])
            degree = int(d["degree"])
            points = {
                str(label): tuple(Fraction(w) for w in ws)
                for label, ws in dict(d.get("points", {})).items()
            }
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidModelError(f"malformed model object: {e}") from e
        model = cls(rank=rank, degree=degree, points=points)
        declared = d.get("coverDegree")
        if declared is not None and int(declared) % model.cover_degree != 0:
            raise InvalidModelError(
                f"declared coverDegree {declared} not a multiple of "
                f"the weight lcm {model.cover_degree}"
            )
        return model

    @classmethod
    def from_json(cls, s: str) -> "ParabolicModel":
        return cls.from_json_dict(json.loads(s))


@dataclass(frozen=True)
class FilterJump:
    """One jump of the weight filtration: at parameter ``t`` the sheaf loses
    ``rank_drop`` local generators; ``degree_after`` is the degree on the
    interval just after ``t``."""

    t: Fraction
    rank_drop: int
    degree_after: int


@dataclass(frozen=True)
class FilterFunction:
    """Left-continuous step filtration on [0, 1) plus the period datum.

    Twisting by the divisor shifts the parameter by one and the degree by
    ``period_degree_shift`` = -rank * (number of marked points).
    """

    degree_at_zero: int
    jumps: tuple[FilterJump, ...]
    period_degree_shift: int

    def degree_at(self, t: Fraction) -> int:
        """deg E_t for t in [0, 1], left-continuous in t."""
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError("parameter must lie in [0, 1]")
        d = self.degree_at_zero
        for j in self.jumps:
            if j.t < t:
                d = j.degree_after
        return d

    def integral_degree(self) -> Fraction:
        """Exact value of the integral of deg E_t over [0, 1)."""
        total = Fraction(0)
        # step function: value on (t_k, t_{k+1}] is degree_after of jump k
        cuts = [Fraction(0)] + [j.t for j in self.jumps] + [Fraction(1)]
        vals = [self.degree_at_zero] + [j.degree_after for j in self.jumps]
        # a jump at 0 applies immediately (right jump at t=0)
        for (a, b), v in zip(zip(cuts, cuts[1:]), vals):
            total += v * (b - a)
        return total


def my_filtration(model: ParabolicModel) -> FilterFunction:
    """Step filtration of the model: a jump of size (multiplicity of w) at
    each t = w, aggregated over the marked points."""
    drops: dict[Fraction, int] = {}
    for ws in model.points.values():
        for w in ws:
            drops[w] = drops.get(w, 0) + 1
    deg = model.degree
    jumps = []
    for t in sorted(drops):
        deg -= drops[t]
        jumps.append(FilterJump(t=t, rank_drop=drops[t], degree_after=deg))
    return FilterFunction(
        degree_at_zero=model.degree,
        jumps=tuple(jumps),
        period_degree_shift=-model.rank * model.num_points,
    )


def par_degree(model: ParabolicModel) -> Fraction:
    """Parabolic degree: underlying degree plus the sum of all weights.

    Computed twice, by the direct sum and by integrating the step filtration;
    raises ArithmeticError when the two values differ.
    """
    sum_form = Fraction(model.degree) + sum(
        (w for ws in model.points.values() for w in ws), Fraction(0)
    )
    filt = my_filtration(model)
    integral_form = (
        model.rank * model.num_points + filt.integral_degree()
    )
    if sum_form != integral_form:
        raise ArithmeticError(
            f"sum form {sum_form} != integral form {integral_form}"
        )
    return sum_form


def slope(model: ParabolicModel) -> Fraction:
    return par_degree(model) / model.rank


def dual(model: ParabolicModel) -> ParabolicModel:
    """Parabolic dual: weights w -> 1-w (w>0 fixed at 0), underlying degree
    read off the dualized filtration so that par-deg negates exactly."""
    zero_count = sum(1 for ws in model.points.values() for w in ws if w == 0)
    new_points = {
        label: tuple(Fraction(0) if w == 0 else 1 - w for w in ws)
        for label, ws in model.points.items()
    }
    # degree of the dual of the sheaf just past 0, twisted back by the divisor
    new_degree = -model.degree + zero_count - model.rank * model.num_points
    return ParabolicModel(rank=model.rank, degree=new_degree, points=new_points)


def _require_same_points(a: ParabolicModel, b: ParabolicModel):
    if set(a.points) != set(b.points):
        raise PointSetMismatchError(
            f"incompatible parabolic divisors: {sorted(a.points)} vs {sorted(b.points)}"
        )


def tensor(a: ParabolicModel, b: ParabolicModel) -> ParabolicModel:
    """Parabolic tensor product: per point the weight multiset
    {x + y mod 1}; each wrap-around bumps the underlying degree."""
    _require_same_points(a, b)
    new_points = {}
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
        new_points[label] = tuple(sorted(ws))
    new_degree = b.rank * a.degree + a.rank * b.degree + wraps
    return ParabolicModel(rank=a.rank * b.rank, degree=new_degree, points=new_points)


def direct_sum(a: ParabolicModel, b: ParabolicModel) -> ParabolicModel:
    _require_same_points(a, b)
    new_points = {
        label: tuple(sorted(a.points[label] + b.points[label])) for label in a.points
    }
    return ParabolicModel(
        rank=a.rank + b.rank, degree=a.degree + b.degree, points=new_points
    )


def det(model: ParabolicModel) -> ParabolicModel:
    """Determinant line: per point the weight is (sum of weights) mod 1; the
    integer part of the sum moves into the underlying degree."""
    new_points = {}
    shift = 0
    for label, ws in model.points.items():
        s = sum(ws, Fraction(0))
        shift += math.floor(s)
        new_points[label] = (s - math.floor(s),)
    return ParabolicModel(rank=1, degree=model.degree + shift, points=new_points)


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "semistable" | "unstable"
    witness: ParabolicModel | None = None

    def __str__(self):
        if self.witness is None:
            return self.verdict
        return f"{self.verdict} (witness slope {slope(self.witness)})"


def is_stable(
    model: ParabolicModel, candidates: Sequence[ParabolicModel]
) -> StabilityVerdict:
    """Stability of ``model`` relative to a caller-supplied list of sub-model
    candidates.  Uses the standard orientation: stable means every proper
    candidate has slope strictly below slope(model).

    Candidates must have rank strictly less than the model; inclusion as a
    subobject is the caller's responsibility.
    """
    mu = slope(model)
    verdict = "stable"
    witness = None
    for cand in candidates:
        if cand.rank >= model.rank:
            raise InvalidModelError(
                f"candidate rank {cand.rank} not below model rank {model.rank}"
            )
        mu_c = slope(cand)
        if mu_c > mu:
            return StabilityVerdict("unstable", cand)
        if mu_c == mu:
            verdict = "semistable"
            witness = cand
    return StabilityVerdict(verdict, witness)


def ample_degree_test(
    model: ParabolicModel, summands: Sequence[ParabolicModel] | None = None
) -> bool:
    """Ampleness test for a parabolic line, or for a declared direct sum of
    lines (ample iff every summand has positive parabolic degree).

    Indecomposable models of rank >= 2 are not supported here.
    """
    if model.rank == 1:
        return par_degree(model) > 0
    if summands is None:
        raise InvalidModelError(
            "rank >= 2 requires an explicit direct-sum decomposition into lines"
        )
    if any(s.rank != 1 for s in summands):
        raise InvalidModelError("summands must all be lines")
    total = summands[0]
    for s in summands[1:]:
        total = direct_sum(total, s)
    if (total.rank, total.degree, dict(total.points)) != (
        model.rank,
        model.degree,
        dict(model.points),
    ):
        raise InvalidModelError("summands do not reassemble the model")
    return all(par_degree(s) > 0 for s in summands)


def random_model(
    rng,
    max_rank: int = 5,
    max_cover: int = 12,
    max_points: int = 4,
    degree_span: int = 6,
) -> ParabolicModel:
    """Seeded random model generator for property tests."""
    rank = int(rng.integers(1, max_rank + 1))
    degree = int(rng.integers(-degree_span, degree_span + 1))
    npts = int(rng.integers(0, max_points + 1))
    points = {}
    for p in range(npts):
        n = int(rng.integers(1, max_cover + 1))
        ws = tuple(Fraction(int(rng.integers(0, n)), n) for _ in range(rank))
        points[f"p{p}"] = ws
    return ParabolicModel(rank=rank, degree=degree, points=points)
