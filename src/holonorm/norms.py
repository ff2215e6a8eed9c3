"""Discrete sup, Lebesgue, Hoelder and parabolic-Hoelder norms of grid functions.

Derivatives are discretized with second-order central differences at interior
nodes and one-sided second-order stencils in the boundary layer; higher orders
apply the first-derivative operator repeatedly.  Pair suprema delegate to
:mod:`holonorm.pairs`, which switches between exhaustive enumeration and
stratified sampling.  Every report records what was examined, how, and a
witness that re-evaluates to the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import pairs
from .grid import GridFunction, MultiIndex, kth_difference
from .pairs import DEFAULT_SEED, SupOutcome


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
    mode: str  # "exhaustive" | "sampled" | "none"
    seed: int | None = None
    count: int = 0

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "seed": self.seed, "count": self.count}


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
    info = SamplingInfo(
        out.mode, out.seed, out.sample_count if out.mode == "sampled" else out.examined
    )
    return NormReport(kind, out.value, index, out.examined, info, out.witness, params)


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


def derivative_field(u: GridFunction, beta: Sequence[int] | MultiIndex, l_t: int = 0) -> np.ndarray:
    """Samples of ``D_t^{l_t} D_x^beta u`` on the full grid."""
    if isinstance(beta, MultiIndex):
        beta = beta.beta
    beta = tuple(int(b) for b in beta)
    if len(beta) != u.N:
        raise ValueError(f"multi-index {beta} has wrong length for dimension {u.N}")
    l_t = int(l_t)
    if l_t < 0 or any(b < 0 for b in beta):
        raise ValueError("derivative orders must be nonnegative")
    if l_t > 0 and u.time_steps == 0:
        raise ValueError("time derivative requested on a purely spatial grid")
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
    info = SamplingInfo("exhaustive", None, u.values.size)
    return NormReport("sup", value, 0.0, u.values.size, info, witness)


def _trapezoid_pattern(n: int) -> np.ndarray:
    w = np.ones(n)
    if n > 1:
        w[0] = w[-1] = 0.5
    return w


def _weighted_power_sum(values: np.ndarray, p: float, axes_n: Sequence[int]) -> float:
    w = np.abs(values) ** p
    for axis, n in enumerate(axes_n):
        pattern = _trapezoid_pattern(n).reshape(
            (1,) * axis + (n,) + (1,) * (values.ndim - axis - 1)
        )
        w = w * pattern
    return float(np.sum(w))


def lp_norm(u: GridFunction, p: float) -> NormReport:
    """Tensor-trapezoidal ``(integral of |u|^p)^(1/p)`` over the box (and over
    time as well when the time horizon is positive)."""
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"Lebesgue exponent must satisfy p > 1, got {p}")
    if u.is_elliptic:
        cell = math.prod(u.h_x)
        s = _weighted_power_sum(u.values[..., 0], p, u.n_spatial)
    else:
        cell = math.prod(u.h_x) * u.h_t
        s = _weighted_power_sum(u.values, p, u.n_spatial + (u.n_time,))
    value = (cell * s) ** (1.0 / p)
    info = SamplingInfo("exhaustive", None, u.values.size)
    return NormReport("lp", value, p, u.values.size, info, None, {"p": p})


def sup_t_lp_norm(u: GridFunction, p: float) -> NormReport:
    """Maximum over time levels of the spatial Lp norm of the slice."""
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"Lebesgue exponent must satisfy p > 1, got {p}")
    if u.is_elliptic:
        raise ValueError("sup-in-time norm needs a positive time horizon")
    cell = math.prod(u.h_x)
    best, best_j = -math.inf, 0
    for j in range(u.n_time):
        s = _weighted_power_sum(u.values[..., j], p, u.n_spatial)
        v = (cell * s) ** (1.0 / p)
        if v > best:
            best, best_j = v, j
    witness = {"time_level": best_j, "t": float(u.time_coords()[best_j])}
    info = SamplingInfo("exhaustive", None, u.values.size)
    return NormReport("sup_t_lp", best, p, u.values.size, info, witness, {"p": p})


# -- Hoelder seminorms ---------------------------------------------------------------


def holder_seminorm_space(
    u: GridFunction,
    alpha: float,
    beta: Sequence[int] | MultiIndex | None = None,
    l_t: int = 0,
    seed: int = DEFAULT_SEED,
) -> NormReport:
    """Sup over same-time node pairs of ``|w(x,t)-w(y,t)| / |x-y|^alpha`` where
    ``w`` is the requested discrete derivative of ``u``."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"spatial Hoelder exponent must lie in (0,1), got {alpha}")
    beta = tuple(beta.beta if isinstance(beta, MultiIndex) else (beta or (0,) * u.N))
    w = derivative_field(u, beta, l_t)
    out = pairs.pair_quotient_sup(w, u.h_x, u.h_t, alpha, "space", seed)
    params = {"alpha": alpha, "beta": list(beta), "l_t": l_t}
    return _report_from_outcome("holder_space", out, alpha, params)


def holder_seminorm_time(
    u: GridFunction,
    exponent: float,
    beta: Sequence[int] | MultiIndex | None = None,
    l_t: int = 0,
    seed: int = DEFAULT_SEED,
) -> NormReport:
    """Sup over same-place node pairs of ``|w(x,t)-w(x,s)| / |t-s|^exponent``."""
    exponent = float(exponent)
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"temporal Hoelder exponent must lie in (0,1], got {exponent}")
    if u.is_elliptic:
        raise ValueError("time seminorm needs a positive time horizon")
    beta = tuple(beta.beta if isinstance(beta, MultiIndex) else (beta or (0,) * u.N))
    w = derivative_field(u, beta, l_t)
    out = pairs.pair_quotient_sup(w, u.h_x, u.h_t, exponent, "time", seed)
    params = {"exponent": exponent, "beta": list(beta), "l_t": l_t}
    return _report_from_outcome("holder_time", out, exponent, params)


# -- full Hoelder norms ----------------------------------------------------------------


def _beta_label(beta: tuple[int, ...], l_t: int) -> str:
    return f"dt^{l_t} dx^{beta}"


def _lower_order_terms(u: GridFunction, m: int, parabolic: bool):
    """Max-of-derivative terms |Dt^l Dx^beta u| for |beta| + 2l <= m."""
    terms = {}
    count = 0
    lt_range = range(m // 2 + 1) if parabolic else (0,)
    for l_t in lt_range:
        for r in range(m - 2 * l_t + 1):
            for beta in multiindices(u.N, r):
                w = derivative_field(u, beta, l_t)
                terms[f"max |{_beta_label(beta, l_t)} u|"] = float(np.max(np.abs(w)))
                count += w.size
    return terms, count


def _seminorm_band(m: int, n_dim: int, parabolic: bool):
    """(beta, l_t) with 0 <= m - |beta| - 2 l_t <= 1."""
    lt_range = range(m // 2 + 1) if parabolic else (0,)
    for l_t in lt_range:
        for r in range(max(0, m - 2 * l_t - 1), m - 2 * l_t + 1):
            if r < 0:
                continue
            for beta in multiindices(n_dim, r):
                yield beta, l_t


def parabolic_seminorm_parts(u: GridFunction, l, seed: int = DEFAULT_SEED):
    """Space and time seminorm sums of the anisotropic Hoelder norm, with the
    per-term breakdown.  Requires a noninteger index and a space-time grid."""
    idx = _as_index(l)
    _require_fractional(idx, "parabolic seminorm")
    if u.is_elliptic:
        raise ValueError("parabolic seminorm needs a positive time horizon")
    m, alpha = idx.m, idx.alpha
    space_sum, time_sum = 0.0, 0.0
    breakdown: dict[str, float] = {}
    examined = 0
    any_sampled = False
    for beta, l_t in _seminorm_band(m, u.N, True):
        rep = holder_seminorm_space(u, alpha, beta, l_t, seed)
        space_sum += rep.value
        breakdown[f"<{_beta_label(beta, l_t)} u>_x^({alpha})"] = rep.value
        examined += rep.pairs_examined
        any_sampled |= rep.sampling.mode == "sampled"

        t_exp = (m - sum(beta) - 2 * l_t + alpha) / 2.0
        rep_t = holder_seminorm_time(u, t_exp, beta, l_t, seed)
        time_sum += rep_t.value
        breakdown[f"<{_beta_label(beta, l_t)} u>_t^({t_exp})"] = rep_t.value
        examined += rep_t.pairs_examined
        any_sampled |= rep_t.sampling.mode == "sampled"
    return space_sum, time_sum, breakdown, examined, any_sampled


def parabolic_norm(u: GridFunction, l, seed: int = DEFAULT_SEED) -> NormReport:
    """Anisotropic Hoelder norm: lower-order derivative maxima plus the space
    and time quotient seminorms over the band ``0 <= m - |beta| - 2 l_t <= 1``."""
    idx = _as_index(l)
    _require_fractional(idx, "parabolic norm")
    if u.is_elliptic:
        raise ValueError("parabolic norm needs a positive time horizon; "
                         "use elliptic_norm for purely spatial grids")
    lower, count = _lower_order_terms(u, idx.m, parabolic=True)
    space_sum, time_sum, breakdown, examined, sampled = parabolic_seminorm_parts(u, idx, seed)
    breakdown = {**lower, **breakdown}
    value = math.fsum(lower.values()) + space_sum + time_sum
    info = SamplingInfo("sampled" if sampled else "exhaustive", seed if sampled else None,
                        examined + count)
    return NormReport("parabolic", value, idx.l, examined + count, info, None,
                      {"l": idx.l}, breakdown)


def elliptic_norm(u: GridFunction, l, seed: int = DEFAULT_SEED) -> NormReport:
    """Isotropic Hoelder norm: derivative maxima up to order ``m`` plus the
    order-``m`` spatial quotient seminorms."""
    idx = _as_index(l)
    _require_fractional(idx, "elliptic norm")
    if not u.is_elliptic:
        raise ValueError("elliptic norm is defined on purely spatial grids (time horizon 0); "
                         "use parabolic_norm instead")
    lower, count = _lower_order_terms(u, idx.m, parabolic=False)
    breakdown = dict(lower)
    examined = count
    sem_sum = 0.0
    sampled = False
    for beta in multiindices(u.N, idx.m):
        rep = holder_seminorm_space(u, idx.alpha, beta, 0, seed)
        sem_sum += rep.value
        breakdown[f"<{_beta_label(beta, 0)} u>_x^({idx.alpha})"] = rep.value
        examined += rep.pairs_examined
        sampled |= rep.sampling.mode == "sampled"
    value = math.fsum(lower.values()) + sem_sum
    info = SamplingInfo("sampled" if sampled else "exhaustive", seed if sampled else None,
                        examined)
    return NormReport("elliptic", value, idx.l, examined, info, None, {"l": idx.l}, breakdown)


def holder_norm(u: GridFunction, l, seed: int = DEFAULT_SEED) -> NormReport:
    """The Hoelder norm of index ``l`` appropriate to the grid.

    Integer indices (including 0) give the plain sum of derivative maxima
    without a seminorm part; noninteger indices give the full norm.
    """
    idx = _as_index(l)
    if not idx.is_integer:
        return parabolic_norm(u, idx, seed) if not u.is_elliptic else elliptic_norm(u, idx, seed)
    lower, count = _lower_order_terms(u, idx.m, parabolic=not u.is_elliptic)
    value = math.fsum(lower.values())
    info = SamplingInfo("exhaustive", None, count)
    kind = "parabolic" if not u.is_elliptic else "elliptic"
    return NormReport(kind, value, idx.l, count, info, None, {"l": idx.l}, dict(lower))


# -- difference-quotient seminorms --------------------------------------------------------


def diff_quotient_seminorm(
    u: GridFunction,
    l,
    spec: DiffSeminormSpec | None = None,
    form: str = "joint",
    seed: int = DEFAULT_SEED,
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

    if form == "joint":
        out = pairs.kdiff_quotient_sup(
            u.values, u.h_x, u.h_t, idx.l, spec.k, allow_time=not u.is_elliptic, seed=seed
        )
        params = {"l": idx.l, "k": spec.k, "form": "joint"}
        return _report_from_outcome("diff_quotient", out, idx.l, params)

    if u.is_elliptic:
        raise ValueError("split form needs a positive time horizon; "
                         "use the joint form on purely spatial grids")
    out_x = pairs.kdiff_quotient_sup(
        u.values, u.h_x, u.h_t, idx.l, spec.k, allow_time=False, seed=seed
    )
    out_t = pairs.kdiff_time_quotient_sup(
        u.values, u.h_x, u.h_t, idx.l / 2.0, spec.l_t, seed=seed
    )
    value = out_x.value + out_t.value
    sampled = "sampled" in (out_x.mode, out_t.mode)
    info = SamplingInfo(
        "sampled" if sampled else "exhaustive",
        seed if sampled else None,
        out_x.sample_count + out_t.sample_count if sampled
        else out_x.examined + out_t.examined,
    )
    return NormReport(
        "diff_quotient_split",
        value,
        idx.l,
        out_x.examined + out_t.examined,
        info,
        None,
        {"l": idx.l, "k": spec.k, "l_t": spec.l_t, "form": "split"},
        {"space": out_x.value, "time": out_t.value},
    )


# -- witness re-evaluation ------------------------------------------------------------


def witness_value(u: GridFunction, report: NormReport) -> float:
    """Recompute the quotient or value named by a report's witness."""
    w = report.witness
    if w is None:
        raise ValueError(f"report of kind {report.kind!r} carries no witness")
    if report.kind == "sup":
        return float(abs(u.values[tuple(w["node"])]))
    if report.kind == "sup_t_lp":
        cell = math.prod(u.h_x)
        s = _weighted_power_sum(u.values[..., w["time_level"]], report.params["p"], u.n_spatial)
        return (cell * s) ** (1.0 / report.params["p"])
    if report.kind in ("holder_space", "holder_time"):
        field_arr = derivative_field(u, report.params["beta"], report.params["l_t"])
        a, b = tuple(w["a"]), tuple(w["b"])
        exponent = report.params.get("alpha", report.params.get("exponent"))
        da = tuple(ai - bi for ai, bi in zip(a[:-1], b[:-1]))
        if report.kind == "holder_space":
            sep = pairs.euclid_steps(da, u.h_x)
        else:
            sep = (a[-1] - b[-1]) * u.h_t
        return abs(float(field_arr[a]) - float(field_arr[b])) / sep ** exponent
    if report.kind == "diff_quotient":
        steps, j = w["steps"], w["time_step"]
        diff = kth_difference(u, w["base"], u.shift_from_steps(steps, j), w["order"])
        pl = pairs.plength_steps(steps, j, u.h_x, u.h_t)
        return abs(diff) / pl ** report.params["l"]
    raise ValueError(f"no witness re-evaluation for kind {report.kind!r}")
