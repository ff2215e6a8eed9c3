"""Interpolation-inequality checks between Hoelder and Lebesgue norms.

Each variant bounds a weaker norm by a product of powers of a stronger norm
and a Lebesgue-type norm, with exponents summing to one:

======== ============================== ===================== =====================
variant   left side                      high factor           low factor
======== ============================== ===================== =====================
2.1       |u|^(l)   (spatial grid)       |u|^(l2)              |u|^(l1)
2.2       |u|^(l)   (space-time grid)    |u|^(l2)              |u|^(l1)
2.3.1     sup |u|                        <u>^(l2) quotient     ||u||_p (space-time)
2.3.3     sup |u|                        <u>^(l2) quotient     sup_t ||u(.,t)||_p
2.10      |u|^(l1)                       |u|^(l2)              ||u||_p (space-time)
2.10.1    |u|^(l1)                       |u|^(l2)              sup_t ||u(.,t)||_p
2.11      |u|^(l1)  (spatial grid)       |u|^(l2)              ||u||_p (spatial)
======== ============================== ===================== =====================

``_ROWS`` holds this table, and every per-variant rule reads its row.  The
sup variants are 2.10 and 2.10.1 at ``l1 = 0``, so two exponent formulas
cover all seven.

The sup-norm variants use the k-th difference quotient seminorm as the high
factor: that is the quantity with exact scaling ``lam^(-l)`` under the
parabolic dilation ``x -> lam x, t -> lam^2 t``, which is what makes the
exponent the unique scale-invariant choice (see the dilation tests).  The
reported ``ratio`` is the empirical constant of the inequality at the given
resolution.  It is a lower bound for the true constant only when every norm
is exact: in mode ``interval`` a norm's value is a floor, and a floor in the
high or low factor can raise the ratio.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

from . import norms as norms_mod
from .grid import GridFunction, ParabolicShift, as_int, kth_difference, shift_eval
from .norms import (
    DiffSeminormSpec,
    HoelderIndex,
    diff_quotient_seminorm,
    holder_norm,
    lp_norm,
    sup_norm,
    sup_t_lp_norm,
)

TRIVIAL_RTOL = 1e-14


class Variant(str, Enum):
    HOLDER_HOLDER_ELLIPTIC = "2.1"
    HOLDER_HOLDER_PARABOLIC = "2.2"
    SUP_VS_LP_PARABOLIC = "2.3.1"
    SUP_VS_SUPLP = "2.3.3"
    GENERAL_PARABOLIC = "2.10"
    GENERAL_SUPLP = "2.10.1"
    ELLIPTIC = "2.11"


# One row per variant: the left side ("sup", or the field "l" or "l1" of its
# Hoelder index), the low factor ("l1" Hoelder, "lp" or "sup_t_lp") and
# whether the grid is purely spatial.  The high factor is the quotient
# seminorm of index l2 when the left side is "sup", else the Hoelder norm.
_Row = namedtuple("_Row", "lhs low elliptic")
_ROWS = {
    Variant.HOLDER_HOLDER_ELLIPTIC: _Row("l", "l1", True),
    Variant.HOLDER_HOLDER_PARABOLIC: _Row("l", "l1", False),
    Variant.SUP_VS_LP_PARABOLIC: _Row("sup", "lp", False),
    Variant.SUP_VS_SUPLP: _Row("sup", "sup_t_lp", False),
    Variant.GENERAL_PARABOLIC: _Row("l1", "lp", False),
    Variant.GENERAL_SUPLP: _Row("l1", "sup_t_lp", False),
    Variant.ELLIPTIC: _Row("l1", "lp", True),
}


@dataclass(frozen=True)
class InterpSpec:
    """Parameters of one inequality check.

    ``l`` is the intermediate index, read only by the 2.1/2.2 variants;
    ``p`` is read by every other variant.  A field the variant does not
    read is a ``ValueError``.  The sup-norm variants fix ``l1 = 0``.
    """

    variant: Variant
    l2: float
    N: int
    l1: float = 0.0
    p: float | None = None
    l: float | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise ValueError(f"variant must be one of {', '.join(v.value for v in _ROWS)}, "
                             f"got {self.variant!r}") from None
        object.__setattr__(self, "l2", float(self.l2))
        object.__setattr__(self, "l1", float(self.l1))
        object.__setattr__(self, "N", as_int(self.N, "N"))
        if self.p is not None:
            object.__setattr__(self, "p", float(self.p))
        if self.l is not None:
            object.__setattr__(self, "l", float(self.l))
        self.validate()

    def validate(self) -> None:
        v, row = self.variant, _ROWS[self.variant]
        if self.N < 1:
            raise ValueError(f"dimension must be >= 1, got {self.N}")
        if not (math.isfinite(self.l2) and self.l2 > 0):
            raise ValueError(f"l2 must be positive, got {self.l2}")
        if HoelderIndex(self.l2).is_integer:
            raise ValueError(f"l2 must be noninteger, got {self.l2}")
        if self.l1 < 0:
            raise ValueError(f"l1 must be nonnegative, got {self.l1}")
        if not self.l1 < self.l2:
            raise ValueError(f"need l1 < l2, got l1={self.l1}, l2={self.l2}")
        holder = row.low == "l1"
        unread = "p" if holder else "l"
        if getattr(self, unread) is not None:
            raise ValueError(f"{unread} has no effect on variant {v.value}, which does not "
                             "read it")
        if row.lhs == "sup" and self.l1 != 0.0:
            raise ValueError(f"variant {v.value} bounds the sup norm; l1 must be 0")
        if holder:
            if self.l is None:
                raise ValueError(f"variant {v.value} needs the intermediate index l")
            if not self.l1 < self.l < self.l2:
                raise ValueError(f"need l1 < l < l2, got {self.l1}, {self.l}, {self.l2}")
        elif self.p is None or not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"variant {v.value} needs a finite Lebesgue exponent p > 1")

    @property
    def is_elliptic(self) -> bool:
        return _ROWS[self.variant].elliptic

    def to_json_dict(self) -> dict:
        return {"variant": self.variant.value, "l1": self.l1, "l": self.l, "l2": self.l2,
                "p": self.p, "N": self.N}


def exponent(spec: InterpSpec) -> float:
    """The interpolation exponent (the power on the high factor):
    ``(l - l1) / (l2 - l1)`` for the Hoelder-Hoelder rows, else
    ``(p l1 + N + two) / (p l2 + N + two)`` with ``two = 2`` for an ``lp`` low
    factor over space-time, 0 otherwise; the sup variants are 2.10 and 2.10.1
    at ``l1 = 0``.  Summing ``N + two`` first would change some last bits."""
    row = _ROWS[spec.variant]
    if row.low == "l1":
        return (spec.l - spec.l1) / (spec.l2 - spec.l1)
    two = 2 if row.low == "lp" and not row.elliptic else 0
    return (spec.p * spec.l1 + spec.N + two) / (spec.p * spec.l2 + spec.N + two)


@dataclass
class CheckReport:
    """Both sides of an inequality check plus the empirical ratio.

    ``status`` is ``"ok"`` when a ratio was formed, ``"trivial"`` when the
    left side vanishes to rounding, ``"seminorm_zero"`` when only the high
    (seminorm) factor vanishes (the bound then forces the left side to vanish
    in the continuum, which a finite box cannot reproduce; no ratio is
    reported), and ``"violation"`` when the whole right side vanishes while
    the left side does not, which is impossible in exact arithmetic.
    """

    spec: InterpSpec
    omega: float
    lhs: float
    factor_high: float
    factor_low: float
    ratio: float | None
    status: str
    norms: dict = field(default_factory=dict)
    resolution: dict = field(default_factory=dict)

    @property
    def violation(self) -> bool:
        return self.status == "violation"

    def to_json_dict(self) -> dict:
        # the spec's fields, then every other field in the order declared
        return {**self.spec.to_json_dict(),
                **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}


def _resolution_of(u: GridFunction) -> dict:
    return {
        "N": u.N,
        "spatial_steps": list(u.spatial_steps),
        "time_steps": u.time_steps,
        "box": [[lo, hi] for lo, hi in zip(u.domain.space_lower, u.domain.space_upper)],
        "T": u.domain.time_horizon,
    }


def _check_compatible(spec: InterpSpec, u: GridFunction) -> None:
    if spec.N != u.N:
        raise ValueError(f"spec has N={spec.N} but the grid has N={u.N}")
    if spec.is_elliptic != u.is_elliptic:
        grid = ("a purely spatial grid (time horizon 0)" if spec.is_elliptic
                else "a space-time grid (time horizon > 0)")
        raise ValueError(f"variant {spec.variant.value} needs {grid}")


def _base_norms(spec: InterpSpec, u: GridFunction):
    """The left side, high and low factor of the variant's row, in that order;
    the norm functions are module attributes looked up at each call."""
    row = _ROWS[spec.variant]
    if row.lhs == "sup":
        lhs, high = sup_norm(u), diff_quotient_seminorm(u, spec.l2)
    else:
        lhs = holder_norm(u, getattr(spec, row.lhs))
        high = holder_norm(u, spec.l2)
    if row.low == "l1":
        low = holder_norm(u, spec.l1)
    else:
        low = (lp_norm if row.low == "lp" else sup_t_lp_norm)(u, spec.p)
    return lhs, high, low


def check(spec: InterpSpec, u: GridFunction, seed: int | None = None) -> CheckReport:
    """Evaluate one inequality on a grid function and report the ratio
    ``lhs / (high^omega * low^(1-omega))``.

    ``seed`` is ignored: nothing in the computation draws random numbers.  It
    is kept only because ``perfbench/workloads.py`` passes it.
    """
    _check_compatible(spec, u)
    omega = exponent(spec)
    lhs_rep, high_rep, low_rep = _base_norms(spec, u)
    lhs, high, low = lhs_rep.value, high_rep.value, low_rep.value

    factor_high = high ** omega if high > 0.0 else 0.0
    factor_low = low ** (1.0 - omega) if low > 0.0 else 0.0
    if lhs <= TRIVIAL_RTOL * max(1.0, high, low):
        status, ratio = "trivial", 0.0
    elif high > 0.0 and low > 0.0:
        status, ratio = "ok", lhs / (factor_high * factor_low)
    elif high == 0.0 and low > 0.0:
        # Zero seminorm with a nonzero sup: the continuum bound degenerates
        # (send the balancing scale to infinity); no finite ratio exists.
        status, ratio = "seminorm_zero", None
    else:
        status, ratio, factor_high = "violation", None, 0.0

    return CheckReport(
        spec=spec,
        omega=omega,
        lhs=lhs,
        factor_high=factor_high,
        factor_low=factor_low,
        ratio=ratio,
        status=status,
        norms={
            "lhs": lhs_rep.to_json_dict(),
            "high": high_rep.to_json_dict(),
            "low": low_rep.to_json_dict(),
        },
        resolution=_resolution_of(u),
    )


def check_holder_interp(u: GridFunction, l1: float, l: float, l2: float) -> CheckReport:
    """Hoelder-against-Hoelder interpolation; the variant follows the grid."""
    variant = Variant.HOLDER_HOLDER_ELLIPTIC if u.is_elliptic else Variant.HOLDER_HOLDER_PARABOLIC
    spec = InterpSpec(variant=variant, l1=l1, l=l, l2=l2, N=u.N)
    return check(spec, u)


# -- two-term bound and balancing ------------------------------------------------


@dataclass(frozen=True)
class TwoTermBound:
    """The bound ``A eps^l + B eps^(-q)`` produced by cylinder averaging:
    ``A`` multiplies the quotient seminorm, ``B`` the Lebesgue-type norm, and
    ``q`` is the decay exponent ((N+2)/p over space-time, N/p otherwise)."""

    A: float
    B: float
    l: float
    q: float

    def __post_init__(self):
        for name in ("A", "B", "l", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.A < 0 or self.B < 0:
            raise ValueError(f"coefficients must be nonnegative, got A={self.A}, B={self.B}")
        if self.l <= 0 or self.q <= 0:
            raise ValueError(f"exponents must be positive, got l={self.l}, q={self.q}")


def two_term_value(bound: TwoTermBound, eps: float) -> float:
    """Evaluate ``A eps^l + B eps^(-q)``."""
    if not eps > 0:
        raise ValueError(f"scale must be positive, got {eps}")
    return bound.A * eps ** bound.l + bound.B * eps ** (-bound.q)


def balancing_epsilon(bound: TwoTermBound, p: float, N: int) -> float:
    """The scale ``(B/A)^(p/(pl+N+2))`` equalizing the two terms of the bound
    (``N+2`` is replaced by ``N`` when the decay exponent is ``N/p``).

    Returns ``inf`` when ``A == 0``: the bound then decays as the scale grows,
    which forces the bounded quantity to vanish.
    """
    p = float(p)
    for two in (2, 0):
        if abs(bound.q - (N + two) / p) <= 1e-9 * bound.q:
            break
    else:
        raise ValueError(f"decay exponent q={bound.q} matches neither "
                         f"(N+2)/p={(N + 2) / p} nor N/p={N / p}")
    if bound.A == 0.0:
        return math.inf
    return (bound.B / bound.A) ** (p / (p * bound.l + N + two))


def pointwise_reconstruction_bound(
    u: GridFunction,
    l,
    k: int,
    index: Sequence[int],
    shift: ParabolicShift,
    seminorm: float | None = None,
) -> float:
    """Bound ``|u| <= <u> * plength^l + sum_i binom(k,i) |u(.+i shift)|`` at a node.

    All ``k`` translates must stay inside the box.  When ``seminorm`` is not
    given, the order-``k`` quotient seminorm of index ``l`` is computed and
    its exact value, or in mode ``interval`` its certified upper end, is
    used: either dominates the local quotient, which makes the bound certain
    at every admissible node.
    """
    idx = norms_mod._as_index(l)
    k = as_int(k, "k")
    if k < 1:
        raise ValueError(f"difference order must be >= 1, got {k}")
    base = u.normalize_index(index)
    if kth_difference(u, base, shift, k) is None:
        raise ValueError(f"translates of node {base} along the shift leave the box")
    if seminorm is None:
        spec = DiffSeminormSpec(k, DiffSeminormSpec.default_for(idx).l_t)
        rep = diff_quotient_seminorm(u, idx, spec=spec)
        seminorm = rep.value if rep.sampling.upper is None else rep.sampling.upper
    total = seminorm * shift.plength ** idx.l
    for i in range(1, k + 1):
        total += math.comb(k, i) * abs(shift_eval(u, base, shift, i))
    return total


def time_seminorm_bound(u: GridFunction, l) -> dict:
    """Compare the time seminorm sum against the space seminorm sum plus the
    top pure-time term; returns both sides and their ratio."""
    idx = norms_mod._as_index(l)
    norms_mod._require_fractional(idx, "parabolic seminorm")
    if u.is_elliptic:
        raise ValueError("parabolic seminorm needs a positive time horizon")
    terms = norms_mod._quotient_terms(u, idx)
    space_sum, time_sum = (
        norms_mod._composite("parabolic", idx.l, {"l": idx.l}, {}, 0,
                             [term for term in terms if term[1] == axis]).value
        for axis in ("space", "time"))
    m, alpha = idx.m, idx.alpha
    top_lt = m // 2
    top_exp = (m - 2 * top_lt + alpha) / 2.0
    top = norms_mod.holder_seminorm_time(u, top_exp, (0,) * u.N, top_lt)
    rhs = space_sum + top.value
    return {
        "lhs_time_sum": time_sum,
        "space_sum": space_sum,
        "top_time_term": top.value,
        "rhs": rhs,
        "ratio": time_sum / rhs if rhs > 0 else (0.0 if time_sum == 0 else math.inf),
        "breakdown": {label: term.value for label, _, term in terms},
    }
