"""Exact rational arithmetic for parabolic structures on a curve.

A parabolic model is a vector bundle of given rank and degree together with,
at finitely many marked points, a multiset of rational weights in [0, 1).
All degree/slope computations are exact, on integer numerators over the cover
degree (every weight is k/N with N dividing it), which are the one stored form
of the weights; fractions.Fraction appears only at the API: the read-only
views ``ParabolicModel.points`` and ``FilterFunction.jumps``, and returned
values.  No floats enter this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence


class PointSetMismatchError(ValueError):
    """Raised when a binary operation mixes models with different marked points."""


class InvalidModelError(ValueError):
    """Raised when a model violates its invariants."""


def _as_integer(key: str, x) -> int:
    if type(x) is not int:  # a JSON integer: not a float, a string or a bool
        raise InvalidModelError(f"{key} must be an integer, got {x!r:.40}")
    return x


@dataclass(frozen=True)  # __init__ is our own, which dataclass keeps
class ParabolicModel:
    """Rank, underlying degree, and per-point sorted weight multisets.

    The weights at each point label are the nondecreasing integer
    ``numerators`` over ``cover_degree``, the lcm of all weight denominators
    (1 for weightless models).  ``points`` is their view as Fractions.
    """

    rank: int
    degree: int
    cover_degree: int
    numerators: Mapping[str, tuple[int, ...]]

    def __init__(self, rank: int, degree: int, points: Mapping | None = None):
        weights = {label: [Fraction(w) for w in ws] for label, ws in dict(points or {}).items()}
        den = math.lcm(*(w.denominator for ws in weights.values() for w in ws))
        self._settle(rank, degree, den, {label: [w.numerator * (den // w.denominator) for w in ws]
                                         for label, ws in weights.items()})

    @classmethod
    def _from_numerators(cls, rank: int, degree: int, den: int, nums) -> "ParabolicModel":
        """The model whose weights at each label are ``nums[label]`` over
        ``den``, in any order."""
        model = object.__new__(cls)
        model._settle(rank, degree, den, nums)
        return model

    def _settle(self, rank: int, degree: int, den: int, nums):
        """Check the weights ``nums`` over ``den`` and store them sorted,
        reduced to the lcm of their denominators."""
        if rank < 1:
            raise InvalidModelError("rank must be positive")
        g = math.gcd(den, *(k for ks in nums.values() for k in ks))
        numerators = {}
        for label, ks in nums.items():
            if len(ks) != rank:
                raise InvalidModelError(f"point {label!r}: {len(ks)} weights for rank {rank}")
            srt = sorted(ks)
            if srt[0] < 0 or srt[-1] >= den:
                bad = next(k for k in ks if not 0 <= k < den)  # the first, in input order
                raise InvalidModelError(f"weight {Fraction(bad, den)} outside [0, 1)")
            numerators[label] = tuple(srt) if g == 1 else tuple(k // g for k in srt)
        # frozen: the fields are set once, here
        for name, value in (("rank", rank), ("degree", degree),
                            ("cover_degree", den // g), ("numerators", numerators)):
            object.__setattr__(self, name, value)

    def __hash__(self):
        # the generated hash would hash the numerators dict; this one agrees with ==
        return hash((self.rank, self.degree, self.cover_degree, frozenset(self.numerators.items())))

    @property
    def points(self) -> dict[str, tuple[Fraction, ...]]:
        """The weights as nondecreasing tuples of Fractions, made on each read."""
        den = self.cover_degree
        return {label: tuple(Fraction(k, den) for k in ks) for label, ks in self.numerators.items()}

    @property
    def num_points(self) -> int:
        return len(self.numerators)

    def is_parabolic(self) -> bool:
        """False for the trivial structure (every weight zero or no points)."""
        return any(ks[-1] for ks in self.numerators.values())

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "ParabolicModel":
        try:
            rank = _as_integer("rank", d["rank"])
            degree = _as_integer("degree", d["degree"])
            points = {
                str(label): tuple(Fraction(w) for w in ws)
                for label, ws in dict(d.get("points", {})).items()
            }
            declared = d.get("coverDegree")
            if declared is not None and _as_integer("coverDegree", declared) < 1:
                raise InvalidModelError(f"coverDegree must be positive, got {declared}")
        except (KeyError, TypeError, ValueError, ArithmeticError) as e:
            raise InvalidModelError(f"malformed model object: {e}") from e
        model = cls(rank=rank, degree=degree, points=points)
        if declared is not None and declared % model.cover_degree != 0:
            raise InvalidModelError(
                f"declared coverDegree {declared} not a multiple of "
                f"the weight lcm {model.cover_degree}"
            )
        return model


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

    ``steps`` holds the jumps as integers ``(k, rank_drop, degree_after)``,
    the jump at t = k / ``denominator``, in increasing k; ``jumps`` is their
    view as ``FilterJump``s.  Twisting by the divisor shifts the parameter by
    one and the degree by ``period_degree_shift`` = -rank * (number of marked
    points).
    """

    degree_at_zero: int
    denominator: int
    steps: tuple[tuple[int, int, int], ...]
    period_degree_shift: int

    @property
    def jumps(self) -> tuple[FilterJump, ...]:
        return tuple(FilterJump(Fraction(k, self.denominator), drop, after)
                     for k, drop, after in self.steps)

    def degree_at(self, t: Fraction) -> int:
        """deg E_t for t in [0, 1], left-continuous in t."""
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError("parameter must lie in [0, 1]")
        d = self.degree_at_zero
        for k, _, after in self.steps:
            if k * t.denominator < t.numerator * self.denominator:  # k / denominator < t
                d = after
        return d

    def integral_degree(self) -> Fraction:
        """Exact value of the integral of deg E_t over [0, 1)."""
        # step function: value on (t_k, t_{k+1}] is degree_after of jump k;
        # a jump at 0 applies immediately (right jump at t=0)
        cuts = [0] + [k for k, _, _ in self.steps] + [self.denominator]
        vals = [self.degree_at_zero] + [after for _, _, after in self.steps]
        total = sum(v * (b - a) for a, b, v in zip(cuts, cuts[1:], vals))
        return Fraction(total, self.denominator)


def my_filtration(model: ParabolicModel) -> FilterFunction:
    """Step filtration of the model: a jump of size (multiplicity of w) at
    each t = w, aggregated over the marked points."""
    drops: dict[int, int] = {}  # numerator of t over the cover degree -> multiplicity
    for ks in model.numerators.values():
        for k in ks:
            drops[k] = drops.get(k, 0) + 1
    deg = model.degree
    steps = []
    for k in sorted(drops):
        deg -= drops[k]
        steps.append((k, drops[k], deg))
    return FilterFunction(
        degree_at_zero=model.degree,
        denominator=model.cover_degree,
        steps=tuple(steps),
        period_degree_shift=-model.rank * model.num_points,
    )


def par_degree(model: ParabolicModel) -> Fraction:
    """Parabolic degree: underlying degree plus the sum of all weights.

    Computed twice, by the direct sum and by integrating the step filtration;
    raises ArithmeticError when the two values differ.
    """
    den = model.cover_degree
    weights = sum(sum(ks) for ks in model.numerators.values())
    sum_form = Fraction(model.degree * den + weights, den)
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
    den = model.cover_degree
    nums = {label: [den - k if k else 0 for k in ks] for label, ks in model.numerators.items()}
    zero_count = sum(ks.count(0) for ks in model.numerators.values())
    # degree of the dual of the sheaf just past 0, twisted back by the divisor
    new_degree = -model.degree + zero_count - model.rank * model.num_points
    return ParabolicModel._from_numerators(model.rank, new_degree, den, nums)


def _require_same_points(a: ParabolicModel, b: ParabolicModel):
    if a.numerators.keys() != b.numerators.keys():
        raise PointSetMismatchError(
            f"incompatible parabolic divisors: {sorted(a.numerators)} vs {sorted(b.numerators)}"
        )


def tensor(a: ParabolicModel, b: ParabolicModel) -> ParabolicModel:
    """Parabolic tensor product: per point the weight multiset
    {x + y mod 1}; each wrap-around bumps the underlying degree."""
    _require_same_points(a, b)
    den = math.lcm(a.cover_degree, b.cover_degree)
    sa, sb = den // a.cover_degree, den // b.cover_degree
    nums = {}
    wraps = 0
    for label, xs in a.numerators.items():
        ys = [y * sb for y in b.numerators[label]]
        ws = []
        for x in xs:
            x *= sa
            for y in ys:
                s = x + y
                if s >= den:
                    s -= den
                    wraps += 1
                ws.append(s)
        nums[label] = ws
    new_degree = b.rank * a.degree + a.rank * b.degree + wraps
    return ParabolicModel._from_numerators(a.rank * b.rank, new_degree, den, nums)


def direct_sum(a: ParabolicModel, b: ParabolicModel) -> ParabolicModel:
    _require_same_points(a, b)
    den = math.lcm(a.cover_degree, b.cover_degree)
    sa, sb = den // a.cover_degree, den // b.cover_degree
    nums = {
        label: [x * sa for x in xs] + [y * sb for y in b.numerators[label]]
        for label, xs in a.numerators.items()
    }
    return ParabolicModel._from_numerators(a.rank + b.rank, a.degree + b.degree, den, nums)


def det(model: ParabolicModel) -> ParabolicModel:
    """Determinant line: per point the weight is (sum of weights) mod 1; the
    integer part of the sum moves into the underlying degree."""
    den = model.cover_degree
    nums = {}
    shift = 0
    for label, ks in model.numerators.items():
        q, r = divmod(sum(ks), den)
        shift += q
        nums[label] = (r,)
    return ParabolicModel._from_numerators(1, model.degree + shift, den, nums)


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "semistable" | "unstable"
    witness: ParabolicModel | None = None


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
    if total != model:
        raise InvalidModelError("summands do not reassemble the model")
    return all(par_degree(s) > 0 for s in summands)


def integer_exponents(weights, cover_degree):
    """k_j = N * a_{r+1-j}, the integer exponents of the weights on the
    branched chart w_1^N = z_1 (reversed pairing); validates the weight
    vector."""
    ws = [Fraction(w) for w in weights]
    if any(not 0 <= w < 1 for w in ws):
        raise ValueError("weights must lie in [0,1)")
    if sorted(ws) != ws:
        raise ValueError("weights must be nondecreasing")
    for w in reversed(ws):
        if (w * cover_degree).denominator != 1:
            raise ValueError(f"weight {w} has denominator not dividing N={cover_degree}")
    return [int(w * cover_degree) for w in reversed(ws)]


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
    drawn = []  # (n, numerators over n) per point
    for _ in range(npts):
        n = int(rng.integers(1, max_cover + 1))
        drawn.append((n, [int(rng.integers(0, n)) for _ in range(rank)]))
    den = math.lcm(*(n for n, _ in drawn))
    nums = {f"p{p}": [k * (den // n) for k in ks] for p, (n, ks) in enumerate(drawn)}
    return ParabolicModel._from_numerators(rank, degree, den, nums)
