"""Discrete sup, Lebesgue, Hoelder and parabolic-Hoelder norms of grid functions.

Derivatives are discretized with second-order central differences at interior
nodes and one-sided second-order stencils in the boundary layer; higher orders
apply the first-derivative operator repeatedly.  Pair suprema delegate to
:mod:`holonorm.pairs`, which walks offsets best per-offset bound first to the
exact value; past its pair budget a supremum reports a floor from the
coarsened grid and a certified upper bound (mode ``interval``).  Every report
records what was examined, how, and a witness that re-evaluates to the
reported value; the Hoelder and difference quotients share the witness of
:mod:`holonorm.pairs` and one re-evaluation, :func:`witness_value`.

Each pair supremum is computed once per grid and engine and kept in the
grid's memo; every call gets its own copy, and ``pairs_examined`` counts the
pairs decided to obtain the value (evaluated, or certified below the running
best), repeated call or not.  The suprema of one derivative field share its
moduli store, which changes no outcome.  :func:`hint_from_coarser` hands a
grid the witnesses of the same suprema on a grid of half its steps, which
each supremum visits first: that changes ``pairs_examined``, not a value or
a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import pairs
from .grid import GridFunction, MultiIndex, as_int, kth_difference
from .pairs import SupOutcome


class StencilError(ValueError):
    """The grid is too coarse for a requested derivative stencil."""


@dataclass(frozen=True)
class HoelderIndex:
    """Regularity index ``l = m + alpha`` with ``m`` integer, ``alpha = l - m``."""

    l: float

    def __post_init__(self):
        object.__setattr__(self, "l", float(self.l))
        if not (math.isfinite(self.l) and self.l >= 0.0):
            raise ValueError(f"regularity index must be finite and >= 0, got {self.l}")

    @property
    def m(self) -> int:
        return int(math.floor(self.l))

    @property
    def alpha(self) -> float:
        return self.l - self.m

    @property
    def is_integer(self) -> bool:
        return self.alpha == 0.0


def _as_index(l) -> HoelderIndex:
    return l if isinstance(l, HoelderIndex) else HoelderIndex(float(l))


def _require_fractional(idx: HoelderIndex, what: str) -> None:
    if idx.is_integer:
        raise ValueError(
            f"{what} needs a noninteger regularity index; got {idx.l} "
            "(integer indices carry no fractional seminorm)"
        )


@dataclass(frozen=True)
class DiffSeminormSpec:
    """Difference orders for quotient seminorms: spatial/joint ``k`` and
    temporal ``l_t``, constrained by ``k > l`` and ``l_t > l/2``."""

    k: int
    l_t: int

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "k"))
        object.__setattr__(self, "l_t", as_int(self.l_t, "l_t"))

    @classmethod
    def default_for(cls, l) -> "DiffSeminormSpec":
        idx = _as_index(l)
        return cls(idx.m + 1, int(math.floor(idx.l / 2.0)) + 1)

    def validate(self, l) -> None:
        idx = _as_index(l)
        if self.k <= idx.l:
            raise ValueError(f"difference order k={self.k} must exceed the index {idx.l}")
        if self.l_t <= idx.l / 2.0:
            raise ValueError(
                f"temporal difference order l_t={self.l_t} must exceed half the index {idx.l}"
            )


@dataclass(frozen=True)
class SamplingInfo:
    mode: str  # "exhaustive" | "interval"
    upper: float | None = None  # a single supremum's certified bound, in mode "interval"

    def to_json_dict(self) -> dict:
        if self.upper is None:
            return {"mode": self.mode}
        return {"mode": self.mode, "upper": self.upper}


@dataclass
class NormReport:
    """Result of a norm or seminorm computation."""

    kind: str
    value: float
    index: float | None
    pairs_examined: int
    sampling: SamplingInfo
    witness: dict | None = None
    params: dict = field(default_factory=dict)
    breakdown: dict[str, float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "index": self.index,
            "pairs_examined": self.pairs_examined,
            "sampling": self.sampling.to_json_dict(),
            "witness": self.witness,
            "params": self.params,
            "breakdown": self.breakdown,
        }


def _report_from_outcome(kind, out: SupOutcome, index, params) -> NormReport:
    return NormReport(kind, out.value, index, out.examined, SamplingInfo(out.mode, out.upper),
                      out.witness, params)


def _field_sup(u: GridFunction, engine, beta: tuple[int, ...], l_t: int, *args) -> SupOutcome:
    """``engine(w, h_x, h_t, *args)`` on the field ``w = D_t^l_t D_x^beta u``,
    computed once per grid, engine and arguments and kept in the grid's memo
    with the moduli store that every supremum of that field shares, and
    with the hints of :func:`hint_from_coarser` when the grid has them.
    Keying by the engine function lets an engine put in place of a
    ``pairs`` dispatcher compute afresh.  Each call gets its own copy of the
    witness (numbers and flat lists of numbers), so no two reports share
    one."""
    key = (engine, beta, l_t) + args
    if key not in u._memo:
        store = u._memo.setdefault(("moduli", beta, l_t), {})
        # hints only when there are some: an engine put in place of a
        # dispatcher need not take them
        hints = u._memo.get("hints", {}).get(key)
        u._memo[key] = engine(derivative_field(u, beta, l_t), u.h_x, u.h_t, *args, store,
                              **({"hints": hints} if hints else {}))
    out = u._memo[key]
    witness = None if out.witness is None else {
        name: list(v) if isinstance(v, list) else v for name, v in out.witness.items()}
    return replace(out, witness=witness)


def hint_from_coarser(u: GridFunction, coarse: GridFunction) -> None:
    """Give each supremum that ``u`` computes from now on, as its hint, the
    witness offset of the same supremum on ``coarse``, doubled; see
    :mod:`holonorm.pairs`.  A doubled offset spans the same box distance
    only when ``u`` has twice the steps of ``coarse`` along every axis, time
    included, over the same box; otherwise ``u`` gets no hints.  Hints are
    extra visits: no value or witness changes, ``pairs_examined`` can."""
    if (u.domain != coarse.domain or u.time_steps != 2 * coarse.time_steps
            or u.spatial_steps != tuple(2 * s for s in coarse.spatial_steps)):
        return
    u._memo["hints"] = {
        key: [tuple(2 * v for v in out.witness["steps"] + [out.witness["time_step"]])]
        for key, out in coarse._memo.items() if isinstance(out, SupOutcome)}


# -- discrete derivatives --------------------------------------------------------


def _first_derivative(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    n = arr.shape[axis]
    if n < 3:
        raise StencilError(
            f"axis {axis} has {n} nodes; derivative stencils need at least 3 "
            "(use at least 2 steps along every differentiated axis)"
        )
    moved = np.moveaxis(arr, axis, 0)
    out = np.empty_like(moved)
    out[1:-1] = (moved[2:] - moved[:-2]) / (2.0 * h)
    out[0] = (-3.0 * moved[0] + 4.0 * moved[1] - moved[2]) / (2.0 * h)
    out[-1] = (3.0 * moved[-1] - 4.0 * moved[-2] + moved[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _orders(u: GridFunction, beta, l_t) -> tuple[tuple[int, ...], int]:
    """``beta`` as a tuple of ints and ``l_t`` as an int, checked against the
    grid.  ``beta`` is ``None`` (the zero multi-index), a :class:`MultiIndex`,
    a sequence or an array."""
    if beta is None:
        beta = (0,) * u.N
    elif isinstance(beta, MultiIndex):
        beta = beta.beta
    beta = tuple(as_int(b, "multi-index component") for b in beta)
    l_t = as_int(l_t, "l_t")
    if len(beta) != u.N:
        raise ValueError(f"multi-index {beta} has wrong length for dimension {u.N}")
    if l_t < 0 or any(b < 0 for b in beta):
        raise ValueError("derivative orders must be nonnegative")
    if l_t > 0 and u.time_steps == 0:
        raise ValueError("time derivative requested on a purely spatial grid")
    return beta, l_t


def derivative_field(u: GridFunction, beta: Sequence[int] | MultiIndex | None,
                     l_t: int = 0) -> np.ndarray:
    """Samples of ``D_t^{l_t} D_x^beta u`` on the full grid."""
    beta, l_t = _orders(u, beta, l_t)
    arr = u.values
    for axis, order in enumerate(beta):
        for _ in range(order):
            arr = _first_derivative(arr, axis, u.h_x[axis])
    for _ in range(l_t):
        arr = _first_derivative(arr, u.N, u.h_t)
    return arr


def multiindices(n_dim: int, order: int) -> Iterable[tuple[int, ...]]:
    """All multi-indices of the given total order, lexicographically."""
    if n_dim == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in multiindices(n_dim - 1, order - first):
            yield (first,) + rest


# -- plain norms -------------------------------------------------------------------


def sup_norm(u: GridFunction) -> NormReport:
    """Maximum of |u| over all grid nodes."""
    flat = int(np.abs(u.values).argmax())
    at = np.unravel_index(flat, u.values.shape)
    value = float(abs(u.values[at]))
    x, t = u.node_coords(at)
    witness = {"node": [int(v) for v in at], "x": list(x), "t": t}
    return NormReport("sup", value, 0.0, u.values.size, SamplingInfo("exhaustive"), witness)


def _trapezoid_pattern(n: int) -> np.ndarray:
    w = np.ones(n)
    if n > 1:
        w[0] = w[-1] = 0.5
    return w


# natural logs of the smallest normal float and of the largest float
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)


def _weighted_powers(
    values: np.ndarray, p: float, axes_n: Sequence[int]
) -> tuple[np.ndarray, float]:
    """``|values / top|^p`` times the trapezoid weights along the leading axes,
    and ``top``, by which the caller multiplies the ``p``-th root.

    ``top`` is 1 unless the power ``max|values|^p`` would leave the normal
    range (underflow below the smallest normal number, or a sum of ``size``
    such powers past the largest float); then it is ``max|values|``, so the
    largest power is 1.
    """
    top = float(np.max(np.abs(values)))
    if top > 0.0 and not (_LOG_TINY <= p * math.log(top) <= _LOG_HUGE - math.log(values.size)):
        values = values / top
    else:
        top = 1.0
    w = np.abs(values) ** p
    for axis, n in enumerate(axes_n):
        pattern = _trapezoid_pattern(n).reshape(
            (1,) * axis + (n,) + (1,) * (values.ndim - axis - 1)
        )
        w = w * pattern
    return w, top


def _lebesgue_exponent(p) -> float:
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"Lebesgue exponent must be finite with p > 1, got {p}")
    return p


def _level_lp(u: GridFunction, p: float) -> list[float]:
    """Tensor-trapezoidal spatial Lp norm of every time level: each level's
    weighted powers are summed as one contiguous row."""
    w, top = _weighted_powers(u.values, p, u.n_spatial)
    sums = np.ascontiguousarray(w.reshape(-1, w.shape[-1]).T).sum(axis=1)
    scale = math.prod(u.h_x)
    return [top * (scale * s) ** (1.0 / p) for s in sums.tolist()]


def lp_norm(u: GridFunction, p: float) -> NormReport:
    """Tensor-trapezoidal ``(integral of |u|^p)^(1/p)`` over the box (and over
    time as well when the time horizon is positive)."""
    p = _lebesgue_exponent(p)
    if u.is_elliptic:
        value = _level_lp(u, p)[0]
    else:
        w, top = _weighted_powers(u.values, p, u.n_spatial + (u.n_time,))
        value = top * (math.prod(u.h_x) * u.h_t * float(np.sum(w))) ** (1.0 / p)
    return NormReport("lp", value, p, u.values.size, SamplingInfo("exhaustive"), None, {"p": p})


def sup_t_lp_norm(u: GridFunction, p: float) -> NormReport:
    """Maximum over time levels of the spatial Lp norm of the slice."""
    p = _lebesgue_exponent(p)
    if u.is_elliptic:
        raise ValueError("sup-in-time norm needs a positive time horizon")
    levels = _level_lp(u, p)
    best_j = max(range(u.n_time), key=levels.__getitem__)  # the first maximum
    best = levels[best_j]
    witness = {"time_level": best_j, "t": float(u.time_coords()[best_j])}
    return NormReport("sup_t_lp", best, p, u.values.size, SamplingInfo("exhaustive"), witness,
                      {"p": p})


# -- Hoelder seminorms ---------------------------------------------------------------


def holder_seminorm_space(
    u: GridFunction,
    alpha: float,
    beta: Sequence[int] | MultiIndex | None = None,
    l_t: int = 0,
) -> NormReport:
    """Sup over same-time node pairs of ``|w(x,t)-w(y,t)| / |x-y|^alpha`` where
    ``w`` is the requested discrete derivative of ``u``."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"spatial Hoelder exponent must lie in (0,1), got {alpha}")
    return _pair_seminorm(u, "space", "alpha", alpha, beta, l_t)


def holder_seminorm_time(
    u: GridFunction,
    exponent: float,
    beta: Sequence[int] | MultiIndex | None = None,
    l_t: int = 0,
) -> NormReport:
    """Sup over same-place node pairs of ``|w(x,t)-w(x,s)| / |t-s|^exponent``."""
    exponent = float(exponent)
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"temporal Hoelder exponent must lie in (0,1], got {exponent}")
    if u.is_elliptic:
        raise ValueError("time seminorm needs a positive time horizon")
    return _pair_seminorm(u, "time", "exponent", exponent, beta, l_t)


def _pair_seminorm(u: GridFunction, axes: str, name: str, exponent: float, beta,
                   l_t: int) -> NormReport:
    """Pair supremum of the requested derivative field along ``axes``."""
    beta, l_t = _orders(u, beta, l_t)
    out = _field_sup(u, pairs.pair_quotient_sup, beta, l_t, exponent, axes)
    params = {name: exponent, "beta": list(beta), "l_t": l_t}
    return _report_from_outcome(f"holder_{axes}", out, exponent, params)


# -- full Hoelder norms ----------------------------------------------------------------


def _beta_label(beta: tuple[int, ...], l_t: int) -> str:
    return f"dt^{l_t} dx^{beta}"


def _fields(m: int, n_dim: int, parabolic: bool):
    """Every ``(beta, l_t, in_band)`` with ``|beta| + 2 l_t <= m`` (``l_t = 0``
    on purely spatial grids), ``l_t`` then ``|beta|`` ascending.  ``in_band``
    marks the fields that carry quotient seminorms: ``0 <= m - |beta| - 2 l_t
    <= 1`` on space-time grids, ``|beta| = m`` on purely spatial ones."""
    for l_t in (range(m // 2 + 1) if parabolic else (0,)):
        top = m - 2 * l_t
        for r in range(top + 1):
            for beta in multiindices(n_dim, r):
                yield beta, l_t, r >= (top - 1 if parabolic else top)


def _quotient_terms(u: GridFunction, idx: HoelderIndex) -> list:
    """``(label, axis, report)`` of the quotient seminorms of a noninteger
    index: the space seminorm of each band field, followed on space-time grids
    by its time seminorm."""
    m, alpha = idx.m, idx.alpha
    terms = []
    for beta, l_t, in_band in _fields(m, u.N, not u.is_elliptic):
        if not in_band:
            continue
        label = _beta_label(beta, l_t)
        terms.append((f"<{label} u>_x^({alpha})", "space",
                      holder_seminorm_space(u, alpha, beta, l_t)))
        if not u.is_elliptic:
            t_exp = (m - sum(beta) - 2 * l_t + alpha) / 2.0
            terms.append((f"<{label} u>_t^({t_exp})", "time",
                          holder_seminorm_time(u, t_exp, beta, l_t)))
    return terms


def _composite(kind: str, index: float, params: dict, maxima: dict[str, float],
               values_read: int, terms: list) -> NormReport:
    """The report of a norm that sums exact derivative ``maxima``, which read
    ``values_read`` values, and quotient ``terms``, an ordered list of
    ``(label, axis, report)`` with ``axis`` ``"space"`` or ``"time"``.

    The value is ``fsum(maxima)``, plus the space terms summed in order, plus
    the time terms summed in order; the breakdown lists the maxima, then the
    terms.  The norm is an interval when any term is; its ``upper`` is left
    unset, since only a single supremum carries one."""
    sums = {"space": 0.0, "time": 0.0}
    for _, axis, term in terms:
        sums[axis] += term.value
    interval = any(term.sampling.mode == "interval" for _, _, term in terms)
    return NormReport(kind, math.fsum(maxima.values()) + sums["space"] + sums["time"], index,
                      values_read + sum(term.pairs_examined for _, _, term in terms),
                      SamplingInfo("interval" if interval else "exhaustive"), None, params,
                      {**maxima, **{label: term.value for label, _, term in terms}})


def holder_norm(u: GridFunction, l) -> NormReport:
    """The Hoelder norm of index ``l`` appropriate to the grid.

    The derivative maxima ``|Dt^l_t Dx^beta u|`` with ``|beta| + 2 l_t <= m``
    (``l_t = 0`` on purely spatial grids), plus, for a noninteger index, the
    quotient seminorms of exponent ``alpha`` over the band of :func:`_fields`.
    Integer indices (including 0) give the plain sum of derivative maxima.
    """
    idx = _as_index(l)
    parabolic = not u.is_elliptic
    maxima = {f"max |{_beta_label(beta, l_t)} u|":
              float(np.max(np.abs(derivative_field(u, beta, l_t))))
              for beta, l_t, _ in _fields(idx.m, u.N, parabolic)}
    terms = [] if idx.is_integer else _quotient_terms(u, idx)
    return _composite("parabolic" if parabolic else "elliptic", idx.l, {"l": idx.l}, maxima,
                      len(maxima) * u.values.size, terms)


def parabolic_norm(u: GridFunction, l) -> NormReport:
    """Anisotropic Hoelder norm: lower-order derivative maxima plus the space
    and time quotient seminorms over the band ``0 <= m - |beta| - 2 l_t <= 1``."""
    idx = _as_index(l)
    _require_fractional(idx, "parabolic norm")
    if u.is_elliptic:
        raise ValueError("parabolic norm needs a positive time horizon; "
                         "use elliptic_norm for purely spatial grids")
    return holder_norm(u, idx)


def elliptic_norm(u: GridFunction, l) -> NormReport:
    """Isotropic Hoelder norm: derivative maxima up to order ``m`` plus the
    order-``m`` spatial quotient seminorms."""
    idx = _as_index(l)
    _require_fractional(idx, "elliptic norm")
    if not u.is_elliptic:
        raise ValueError("elliptic norm is defined on purely spatial grids (time horizon 0); "
                         "use parabolic_norm instead")
    return holder_norm(u, idx)


# -- difference-quotient seminorms --------------------------------------------------------


def diff_quotient_seminorm(
    u: GridFunction,
    l,
    spec: DiffSeminormSpec | None = None,
    form: str = "joint",
) -> NormReport:
    """Quotient seminorm from k-th differences.

    ``form="joint"`` takes the supremum of ``|diff_k u| / plength^l`` over
    space-time shifts (purely spatial shifts when the grid is elliptic).
    ``form="split"`` sums a spatial part ``|diff_k u| / |h|^l`` and a temporal
    part ``|diff_{l_t} u| / |dt|^(l/2)``.
    """
    idx = _as_index(l)
    _require_fractional(idx, "difference-quotient seminorm")
    if spec is None:
        spec = DiffSeminormSpec.default_for(idx)
    spec.validate(idx)
    if form not in ("joint", "split"):
        raise ValueError(f"form must be 'joint' or 'split', got {form!r}")

    zero = (0,) * u.N  # the field is u itself
    if form == "joint":
        out = _field_sup(u, pairs.kdiff_quotient_sup, zero, 0, idx.l, spec.k,
                         not u.is_elliptic)
        params = {"l": idx.l, "k": spec.k, "form": "joint"}
        return _report_from_outcome("diff_quotient", out, idx.l, params)

    if u.is_elliptic:
        raise ValueError("split form needs a positive time horizon; "
                         "use the joint form on purely spatial grids")
    params = {"l": idx.l, "k": spec.k, "l_t": spec.l_t, "form": "split"}
    space = _field_sup(u, pairs.kdiff_quotient_sup, zero, 0, idx.l, spec.k, False)
    time = _field_sup(u, pairs.kdiff_time_quotient_sup, zero, 0, idx.l / 2.0, spec.l_t)
    terms = [(axis, axis, _report_from_outcome("diff_quotient_split", out, idx.l, params))
             for axis, out in (("space", space), ("time", time))]
    return _composite("diff_quotient_split", idx.l, params, {}, 0, terms)


# -- witness re-evaluation ------------------------------------------------------------


def witness_value(u: GridFunction, report: NormReport) -> float:
    """Recompute the quotient or value named by a report's witness."""
    w = report.witness
    if w is None:
        raise ValueError(f"report of kind {report.kind!r} carries no witness")
    if report.kind == "sup":
        return float(abs(u.values[tuple(w["node"])]))
    if report.kind == "sup_t_lp":
        return _level_lp(u, report.params["p"])[w["time_level"]]
    if report.kind in ("holder_space", "holder_time", "diff_quotient"):
        # "joint" separates an offset with no time step as "space" does
        kind = {"holder_space": "space", "holder_time": "time"}.get(report.kind, "joint")
        p, steps, j = report.params, w["steps"], w["time_step"]
        field_u = u.with_values(derivative_field(u, p.get("beta"), p.get("l_t", 0)))
        diff = kth_difference(field_u, w["base"], u.shift_from_steps(steps, j), w["order"])
        return abs(diff) / pairs.separation(kind, steps, j, u.h_x, u.h_t) ** report.index
    raise ValueError(f"no witness re-evaluation for kind {report.kind!r}")
