"""Supremum engines over node pairs and grid-aligned space-time shifts.

Every seminorm here is a maximum of quotients ``|k-th difference| / sep^e``
over an admissible set of offsets ``(d, j)`` (spatial steps, time steps).
Space pairs, time pairs, joint shifts and the split forms differ only in that
set and in the separation: Euclidean ``|d h|``, ``j h_t``, or the parabolic
length ``|d h| + (j h_t)^(1/2)``.  One engine serves them all:

1. Every nearest-neighbour offset is swept; the best quotient seeds the search.
2. No k-th difference exceeds ``amp = 2^(k-1) (max w - min w)``, so an offset
   at separation ``r`` bounds its quotients by ``amp / r^e``, which falls as
   ``r`` grows.  The offsets whose bound still reaches the seed are the
   certified work.
3. If the certified offsets hold at most ``PAIR_LIMIT`` pairs, they are
   visited nearest first, and the walk stops at the first offset whose bound
   is below the running best: every offset skipped is certified to lie below
   it, so the value is exact (mode ``"exhaustive"``).
4. Otherwise the supremum is sampled: the nearest-neighbour sweep plus
   ``SAMPLE_TARGET`` seeded draws stratified by separation scale in powers of
   two (rough quotients peak at small separations, smooth ones at box scale,
   so both ends need coverage).  Each draw is a (base node, offset) row,
   measured with the table's separations and reported with the same witness;
   rows are folded in order, so the seed alone fixes the result.

Offsets range over the canonical half-space: positive time offset, or zero
time offset with the first nonzero spatial component positive.  Reversing a
shift reproduces the same quotient from a translated base node, so nothing is
lost.  Among tied maxima the witness is the first in enumeration order: time
offset outermost, then the spatial offsets lexicographically, then the base
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import difference_coefficients

PAIR_LIMIT = 100_000_000
SAMPLE_TARGET = 1_000_000
DEFAULT_SEED = 1729
_CHUNK = 262_144
_MAX_BATCHES = 64
_TABLE_CHUNK = 262_144  # offsets per chunk of the offset table
_EPS = np.finfo(float).eps


@dataclass
class SupOutcome:
    value: float
    witness: dict | None
    examined: int
    mode: str  # "exhaustive" | "sampled"
    seed: int | None
    sample_count: int = 0


def plength_steps(d: tuple[int, ...], j: int, h_x: tuple[float, ...], h_t: float) -> float:
    return math.sqrt(sum((di * hi) ** 2 for di, hi in zip(d, h_x))) + math.sqrt(abs(j * h_t))


def euclid_steps(d: tuple[int, ...], h_x: tuple[float, ...]) -> float:
    return math.sqrt(sum((di * hi) ** 2 for di, hi in zip(d, h_x)))


def _separation(kind: str, d, j: int, h_x, h_t: float) -> float:
    if kind == "space":
        return euclid_steps(d, h_x)
    if kind == "time":
        return j * h_t
    return plength_steps(d, j, h_x, h_t)


def _offset_witness(kind: str, base, d, j, k, h_x, h_t) -> dict:
    if kind == "kdiff" or k > 1:
        return {
            "base": list(base),
            "steps": list(d),
            "time_step": int(j),
            "order": int(k),
            "plength": plength_steps(d, j, h_x, h_t),
        }
    return {
        "a": [b + o for b, o in zip(base, tuple(d) + (j,))],
        "b": list(base),
        "separation": _separation(kind, d, j, h_x, h_t),
    }


# -- slabs ----------------------------------------------------------------------------


def _base_slices(offset: tuple[int, ...], dims: tuple[int, ...], k: int):
    """Base-region bounds such that all translates i = 0..k stay inside."""
    lows, highs = [], []
    for d, n in zip(offset, dims):
        if d >= 0:
            lows.append(0)
            highs.append(n - k * d)
        else:
            lows.append(-k * d)
            highs.append(n)
    return lows, highs


def _translate_view(arr: np.ndarray, lows, highs, offset, i: int):
    sl = tuple(slice(lo + i * d, hi + i * d) for lo, hi, d in zip(lows, highs, offset))
    return arr[sl]


def _kdiff_slab(arr: np.ndarray, lows, highs, offset, k: int, coeffs) -> np.ndarray:
    u0 = _translate_view(arr, lows, highs, offset, 0)
    s = coeffs[0] * _translate_view(arr, lows, highs, offset, 1)
    for i in range(2, k + 1):
        s += coeffs[i - 1] * _translate_view(arr, lows, highs, offset, i)
    return np.abs(u0 - s)


# -- the offset table -------------------------------------------------------------------


@dataclass
class _Problem:
    """One supremum: the values, the quotient and its admissible offsets.

    Offsets ``(d, j)`` range over ``j`` in ``j_lo..j_hi`` and ``d_a`` in
    ``-m_a..m_a``; the canonical ones have a positive first nonzero entry of
    ``(j, d)``, and ``(j, d)`` in lexicographic order is the enumeration
    order.
    """

    values: np.ndarray
    h_x: tuple[float, ...]
    h_t: float
    exponent: float
    k: int
    kind: str  # "space" | "time" | "kdiff"
    allow_time: bool

    def __post_init__(self):
        n_sp, n_t = self.values.shape[:-1], self.values.shape[-1]
        k = self.k
        if self.kind == "time":
            self.limits = (0,) * len(n_sp)
            self.j_lo, self.j_hi = 1, (n_t - 1) // k
        else:
            self.limits = tuple((n - 1) // k for n in n_sp)
            self.j_lo = 0
            self.j_hi = (n_t - 1) // k if self.kind == "kdiff" and self.allow_time else 0
        self.coeffs = difference_coefficients(k)
        self.amp = self._amplitude()

    def _amplitude(self) -> float:
        """An upper bound on every computed ``|k-th difference|`` of ``values``.

        The positive and the negative coefficients of a k-th difference each
        sum to ``2^(k-1)`` in magnitude, so the exact difference is at most
        ``2^(k-1) (hi - lo)``.  Rounding (unit roundoff ``u = eps / 2``):
        ``hi - lo`` is computed to within a factor ``1 + u``; the sum
        ``s = sum_i c_i u_i`` takes at most ``k`` roundings per term, so it is
        off by at most ``gamma_k sum |c_i u_i| <= 2 k u 2^k W`` with
        ``W = max |w|``; ``u0 - s`` adds a factor ``1 + u``.  This gives the
        absolute term below and a relative ``2u``.  The quotient ``m / D``
        with the scalar denominator ``D`` is compared with ``amp / D'`` where
        ``D'`` is the table's vectorised ``sep^e``: each of the separations
        is within ``(N + 4) u`` of the exact one, so ``D / D'`` is within
        ``2 (e (N + 4) + 2) u``; the two divisions and a one-ulp
        non-monotonicity of ``pow`` add ``4u``.  The factor below is twice
        the sum of these relative terms.
        """
        v = self.values
        hi, lo = float(v.max()), float(v.min())
        w = max(abs(hi), abs(lo))
        k, n = self.k, v.ndim - 1
        margin = 1.0 + 2.0 * (self.exponent * (n + 4) + 5) * _EPS
        return (2.0 ** (k - 1) * (hi - lo) + 2.0 ** k * k * _EPS * w) * margin

    def separations(self, off: np.ndarray) -> np.ndarray:
        """Separations of offset rows ``(d, j)`` with ``j >= 0``."""
        if self.kind == "time":
            return off[:, -1] * self.h_t
        sep = np.sqrt(np.sum((off[:, :-1] * np.asarray(self.h_x)) ** 2, axis=1))
        if self.kind == "kdiff":
            sep = sep + np.sqrt(off[:, -1] * self.h_t)
        return sep

    # -- one offset ---------------------------------------------------------------

    def evaluate(self, off: tuple[int, ...]):
        """(quotient, where: flat argmax, slab shape, base lows, pairs) of one
        offset's slab."""
        lows, highs = _base_slices(off, self.values.shape, self.k)
        arr = _kdiff_slab(self.values, lows, highs, off, self.k, self.coeffs)
        at = int(arr.argmax())
        denom = _separation(self.kind, off[:-1], off[-1], self.h_x, self.h_t) ** self.exponent
        return float(arr.flat[at]) / denom, (at, arr.shape, lows), arr.size

    def witness(self, off: tuple[int, ...], where) -> dict:
        at, shape, lows = where
        base = tuple(int(a + lo) for a, lo in zip(np.unravel_index(at, shape), lows))
        return _offset_witness(self.kind, base, off[:-1], off[-1], self.k, self.h_x, self.h_t)

    def nearest_offsets(self) -> list[tuple[int, ...]]:
        """Unit offsets along each spatial axis, then along time."""
        n = len(self.limits)
        out = [tuple(int(i == a) for i in range(n)) + (0,)
               for a, m in enumerate(self.limits) if m >= 1]
        if self.j_lo <= 1 <= self.j_hi:
            out.append((0,) * n + (1,))
        return out

    # -- the table ----------------------------------------------------------------

    def certified(self, floor: float, limit: int | None):
        """Offsets whose quotient bound reaches ``floor``, as arrays
        (offsets, bounds) sorted by separation with ties in enumeration order;
        ``None`` once their pairs exceed ``limit``.

        Only offsets within the separation ``r`` where the bound, raised by
        a relative 1e-12 that dwarfs its rounding, meets ``floor`` are
        enumerated (an axis component alone is at most the separation), in
        chunks of ``_TABLE_CHUNK``, time offset outermost.
        """
        limits, j_hi = self.limits, self.j_hi
        if floor > 0.0 and self.exponent > 0.0:
            with np.errstate(over="ignore"):
                r = float(np.float64(self.amp * (1.0 + 1e-12) / floor) ** (1.0 / self.exponent))
            limits = tuple(int(min(m, r / h + 1.0)) for m, h in zip(limits, self.h_x))
            if j_hi > 0:
                reach = r * r if self.kind == "kdiff" else r
                j_hi = int(min(j_hi, reach / self.h_t + 1.0))
        box = (j_hi - self.j_lo + 1,) + tuple(2 * m + 1 for m in limits)
        total = math.prod(box)
        dims = np.asarray(self.values.shape, dtype=np.int64)
        parts, pairs = [], 0
        for start in range(0, total, _TABLE_CHUNK):
            idx = np.unravel_index(np.arange(start, min(start + _TABLE_CHUNK, total)), box)
            lead = np.stack([idx[0] + self.j_lo]
                            + [i - m for i, m in zip(idx[1:], limits)], axis=1)  # (j, d)
            first = lead[np.arange(len(lead)), np.argmax(lead != 0, axis=1)]
            off = np.roll(lead, -1, axis=1)  # (d, j)
            sep = self.separations(off)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = self.amp / sep ** self.exponent
            keep = (first > 0) & (bound >= floor)
            pairs += int(np.prod(dims - self.k * np.abs(off[keep]), axis=1).sum())
            if limit is not None and pairs > limit:
                return None
            parts.append((off[keep], sep[keep], bound[keep]))
        off, sep, bound = (np.concatenate(p) for p in zip(*parts))
        perm = np.argsort(sep, kind="stable")
        return off[perm], bound[perm]


class _Best:
    """Running maximum; ties go to the earliest offset in enumeration order."""

    def __init__(self):
        self.q, self.key, self.off, self.where = -math.inf, (), None, None

    def offer(self, q: float, off: tuple[int, ...], where):
        key = off[-1:] + off[:-1]
        if q > self.q or (q == self.q and key < self.key):
            self.q, self.key, self.off, self.where = q, key, off, where


def _sup(prob: _Problem, seed: int | None, limit: int | None, empty: str) -> SupOutcome:
    """Pruned exact supremum, or the sampled one when the certified work
    exceeds ``limit`` (``None``: always exact)."""
    nearest = [(off, *prob.evaluate(off)) for off in prob.nearest_offsets()]
    if not nearest:
        raise ValueError(empty)
    examined = sum(n for *_, n in nearest)
    best = _Best()
    for off, q, where, _ in nearest:
        best.offer(q, off, where)
    table = prob.certified(best.q, limit)
    if table is None:
        return _sampled_sup(prob, seed, nearest, examined)
    seen = {off for off, *_ in nearest}
    for row, bound in zip(*table):
        if bound < best.q:
            break
        off = tuple(int(v) for v in row)
        if off in seen:
            continue
        q, where, n = prob.evaluate(off)
        examined += n
        best.offer(q, off, where)
    return SupOutcome(best.q, prob.witness(best.off, best.where), examined, "exhaustive", None)


# -- exhaustive engines ---------------------------------------------------------


def pair_quotient_sup_exhaustive(
    w: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    axes: str,
    k: int = 1,
) -> SupOutcome:
    """Max of the k-th difference quotient over same-time ("space") or
    same-place ("time") displacements."""
    prob = _Problem(w, h_x, h_t, exponent, k, axes, axes == "time")
    return _sup(prob, None, None, f"no admissible displacement of order {k} along {axes} on "
                                  f"grid {tuple(n - 1 for n in w.shape)}")


def _kdiff_empty(values: np.ndarray, k: int) -> str:
    return (f"no admissible shift for order-{k} differences: some axis needs at least {k} "
            f"steps (grid has {tuple(n - 1 for n in values.shape)})")


def kdiff_quotient_sup_exhaustive(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    allow_time: bool,
) -> SupOutcome:
    prob = _Problem(values, h_x, h_t, exponent, k, "kdiff", allow_time)
    return _sup(prob, None, None, _kdiff_empty(values, k))


# -- sampled engine ---------------------------------------------------------------


def _row_quotients(prob: _Problem, bases, steps) -> np.ndarray:
    values, coeffs = prob.values, prob.coeffs
    dims = values.ndim
    u0 = values[tuple(bases[:, a] for a in range(dims))]
    s = coeffs[0] * values[tuple(bases[:, a] + steps[:, a] for a in range(dims))]
    for i in range(2, prob.k + 1):
        s += coeffs[i - 1] * values[tuple(bases[:, a] + i * steps[:, a] for a in range(dims))]
    return np.abs(u0 - s) / prob.separations(steps) ** prob.exponent


def _rows_update(prob: _Problem, best: list, bases, steps) -> int:
    """Fold the quotients of sampled rows (base node, offset) into ``best``,
    a ``[value, witness]`` pair.  Rows go in chunks of ``_CHUNK``, which
    bounds the temporaries, in order; a later row replaces the best only
    with a strictly larger quotient."""
    for lo in range(0, len(bases), _CHUNK):
        b, st = bases[lo:lo + _CHUNK], steps[lo:lo + _CHUNK]
        q = _row_quotients(prob, b, st)
        at = int(q.argmax())
        if q[at] > best[0]:
            base, off = (tuple(int(v) for v in r[at]) for r in (b, st))
            best[0] = float(q[at])
            best[1] = _offset_witness(prob.kind, base, off[:-1], off[-1], prob.k, prob.h_x,
                                      prob.h_t)
    return len(bases)


def _unit_directions(rng: np.random.Generator, count: int, n_dim: int) -> np.ndarray:
    d = rng.normal(size=(count, n_dim))
    norms = np.sqrt(np.sum(d * d, axis=1))
    bad = norms == 0.0
    if np.any(bad):
        d[bad, 0] = 1.0
        norms[bad] = 1.0
    return d / norms[:, None]


def _draw_bases(rng, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    r = rng.random(lo.shape)
    return lo + np.floor(r * (hi - lo + 1)).astype(np.int64)


def _bucket_count(ratio: float) -> int:
    return max(1, math.ceil(math.log2(ratio))) if ratio > 1.0 else 1


def _sampled_sup(prob: _Problem, seed: int, nearest: list, examined: int) -> SupOutcome:
    """The nearest-neighbour sweep (already evaluated, folded in its own
    order) plus stratified seeded draws."""
    values, h_x, h_t, k = prob.values, prob.h_x, prob.h_t, prob.k
    kind, allow_time = prob.kind, prob.allow_time
    n_sp = values.shape[:-1]
    n_t = values.shape[-1]
    n_dim = len(n_sp)
    steps_sp = tuple(n - 1 for n in n_sp)
    t_steps = n_t - 1
    best: list = [-math.inf, None]
    h_arr = np.asarray(h_x)
    for off, q, where, _ in nearest:
        if q > best[0]:
            best[0], best[1] = q, prob.witness(off, where)

    # Stratified seeded draws.
    rng = np.random.default_rng(seed)
    if kind == "time":
        n_buckets = _bucket_count(float(max(1, t_steps // k)))
    else:
        lmin = min(h_x)
        lmax = euclid_steps(steps_sp, h_x)
        if kind == "kdiff" and allow_time and t_steps:
            lmin = min(lmin, math.sqrt(h_t))
            lmax = lmax + math.sqrt(t_steps * h_t)
        n_buckets = _bucket_count(lmax / lmin)

    drawn = 0
    batches = 0
    while drawn < SAMPLE_TARGET and batches < _MAX_BATCHES:
        batches += 1
        want = SAMPLE_TARGET - drawn
        size = min(int(want * 1.3) + 1024, 2 * SAMPLE_TARGET)

        buckets = rng.integers(0, n_buckets, size)
        rho = rng.uniform(1.0, 2.0, size)
        scale = rho * np.exp2(buckets.astype(float))
        steps_rows = np.zeros((size, n_dim + 1), dtype=np.int64)
        if kind == "time":
            j = np.rint(scale).astype(np.int64)
            np.clip(j, 1, max(1, t_steps // k), out=j)
            steps_rows[:, -1] = j
        else:
            lam = lmin * scale
            dirs = _unit_directions(rng, size, n_dim)
            if kind == "kdiff" and allow_time and t_steps:
                phi = rng.uniform(0.0, 1.0, size)
                s_len = phi * lam
                t_len = (1.0 - phi) * lam
                steps_rows[:, -1] = np.rint((t_len * t_len) / h_t).astype(np.int64)
            else:
                s_len = lam
            steps_rows[:, :n_dim] = np.rint((s_len[:, None] * dirs) / h_arr).astype(np.int64)

        dims_arr = np.asarray(values.shape, dtype=np.int64)
        lo = np.where(steps_rows >= 0, 0, -k * steps_rows)
        hi = np.where(steps_rows >= 0, dims_arr - 1 - k * steps_rows, dims_arr - 1)
        bases = _draw_bases(rng, lo, hi)

        valid = np.any(steps_rows != 0, axis=1) & np.all(hi >= lo, axis=1)
        if not np.any(valid):
            continue
        bases, steps_rows = bases[valid], steps_rows[valid]
        if len(bases) > want:
            bases, steps_rows = bases[:want], steps_rows[:want]
        n_done = _rows_update(prob, best, bases, steps_rows)
        drawn += n_done
        examined += n_done

    return SupOutcome(best[0], best[1], examined, "sampled", seed, sample_count=drawn)


# -- public drivers ---------------------------------------------------------------


def pair_quotient_sup(
    w: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    axes: str,
    seed: int = DEFAULT_SEED,
) -> SupOutcome:
    """First-difference quotient supremum over space or time pairs."""
    prob = _Problem(w, h_x, h_t, exponent, 1, axes, axes == "time")
    empty = ("time-pair seminorm needs at least two time levels" if axes == "time" else
             f"no admissible displacement of order 1 along space on grid "
             f"{tuple(n - 1 for n in w.shape)}")
    return _sup(prob, seed, PAIR_LIMIT, empty)


def kdiff_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    allow_time: bool,
    seed: int = DEFAULT_SEED,
) -> SupOutcome:
    """Joint space-time k-th difference quotient supremum."""
    prob = _Problem(values, h_x, h_t, exponent, k, "kdiff", allow_time)
    return _sup(prob, seed, PAIR_LIMIT, _kdiff_empty(values, k))


def kdiff_time_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    seed: int = DEFAULT_SEED,
) -> SupOutcome:
    """Pure-time k-th difference quotient supremum (split-form time part)."""
    prob = _Problem(values, h_x, h_t, exponent, k, "time", True)
    return _sup(prob, seed, PAIR_LIMIT,
                f"no admissible pure-time shift of order {k}: need at least {k} time steps")
