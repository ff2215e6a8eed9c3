"""Supremum engines over node pairs and grid-aligned space-time shifts.

Every seminorm here is a maximum of quotients ``|k-th difference| / sep^e``
over an admissible set of offsets ``(d, j)`` (spatial steps, time steps).
Space pairs, time pairs, joint shifts and the split forms differ only in that
set and in the separation: Euclidean ``|d h|``, ``j h_t``, or the parabolic
length ``|d h| + (j h_t)^(1/2)``.  One engine serves them all:

1. Every nearest-neighbour offset is swept; the best quotient seeds the search.
2. No k-th difference exceeds ``amp = 2^(k-1) (max w - min w)``, so an offset
   at separation ``r`` bounds its quotients by ``amp / r^e``.  This global
   bound fixes the radius beyond which no offset can reach the seed.
3. Within that radius each offset ``H = (d, j)`` gets its own bound from the
   moduli ``omega_a(s) = max |w(y + s e_a) - w(y)|`` of each axis (time
   included): a staircase path from ``y`` to ``y + H`` stays in the box, and
   ``Delta^k = Delta^(k-1) Delta``, so no quotient at ``H`` exceeds
   ``min(amp, 2^(k-1) (sum_a omega_a(|d_a|) + omega_t(j))) / sep^e``.
   The moduli depend on the values alone, so the dispatchers take a
   caller-owned ``store`` of them that the suprema of one field share.
4. The offsets whose bound reaches the seed are walked best bound first, and
   the walk stops at the first bound below the running best: every offset
   skipped is certified to lie below it, so the value is exact (mode
   ``"exhaustive"``).
5. The dispatchers give the walk a budget of ``PAIR_LIMIT`` evaluated pairs.
   Past it, or when the moduli alone would cost more than the budget or more
   than ``_TABLE_ROWS`` offsets reach the seed, the value is a floor and the
   outcome a certified interval (mode ``"interval"``): the floor comes from
   the same problem on the grid coarsened by two along each axis that carries
   offsets, whose quotients are full-grid quotients at twice the offset; its
   witness offset, doubled, and that offset's neighbours along each such axis
   are evaluated on the full grid.  ``upper`` is the bound at the cut, or with
   no table ``amp / (nearest separation)^e``.  A walk that has seen every
   admissible offset is exact, whichever way it got there.  ``examined``
   counts the pairs evaluated, coarse levels included, store or not.

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

PAIR_LIMIT = 50_000_000  # pairs the exact walk of a dispatcher may evaluate
DEFAULT_SEED = 1729  # nothing draws from it; kept only for perfbench/refs.py, which imports it
_TABLE_ROWS = 262_144  # offsets per chunk of the offset table; a dispatcher keeps no more
_EPS = np.finfo(float).eps


@dataclass
class SupOutcome:
    value: float
    witness: dict | None
    examined: int
    mode: str  # "exhaustive" | "interval"
    upper: float | None = None  # in mode "interval", a certified bound on the exact value


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
    store: dict | None = None  # moduli already computed from ``values``, see ``moduli``

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
        plane = math.prod(2 * m + 1 for m in self.limits)
        # canonical admissible offsets: all of the box but half the j = 0 plane
        self.count = (self.j_hi - self.j_lo + 1) * plane - (plane + 1) // 2 * (self.j_lo == 0)
        self.amp, self.slack = self._amplitude()

    def _amplitude(self) -> tuple[float, float]:
        """An upper bound on every computed ``|k-th difference|`` of
        ``values``, and the absolute rounding term in it.

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
        k, n = self.k, v.ndim - 1
        slack = 2.0 ** k * k * _EPS * max(abs(hi), abs(lo))
        margin = 1.0 + 2.0 * (self.exponent * (n + 4) + 5) * _EPS
        return (2.0 ** (k - 1) * (hi - lo) + slack) * margin, slack

    def moduli(self, reach: tuple[int, ...]) -> list[np.ndarray]:
        """``omega_a(s) = max |w(y + s e_a) - w(y)|`` for ``s = 0..reach_a``,
        one array per axis, time last; only those not yet in ``store``
        (axis -> omega of these values) are computed, and kept there."""
        store = {} if self.store is None else self.store
        out = []
        for axis, top in enumerate(reach):
            omega = store.get(axis, np.zeros(1))
            if top >= len(omega):
                have, omega = omega, np.zeros(top + 1)
                omega[:len(have)] = have
                v = np.ascontiguousarray(np.moveaxis(self.values, axis, 0))
                diff = np.empty_like(v)
                for s in range(len(have), top + 1):
                    d = np.subtract(v[s:], v[:-s], out=diff[s:])
                    omega[s] = np.abs(d, out=d).max()
                store[axis] = omega
            out.append(omega[:top + 1])
        return out

    def staircase(self, off: np.ndarray, moduli: list[np.ndarray]) -> np.ndarray:
        """Upper bounds on every computed ``|k-th difference|`` at each offset
        row ``(d, j)``: ``min(amp, 2^(k-1) S)`` with
        ``S = omega_t(j) + sum_a omega_a(|d_a|)``, summed in that order.

        Exactly, a staircase path from ``y`` to ``y + H`` moves along one axis
        at a time and keeps every corner inside the box, so
        ``|Delta_H w(y)| <= S``; and ``Delta^k_H w(y)`` is a ``(k-1)``-th
        difference of ``Delta_H w`` at ``y, ..., y + (k-1) H``, whose
        coefficients sum to ``2^(k-1)`` in magnitude.  Rounding, as in
        ``_amplitude`` (``u = eps / 2``): a computed modulus is at least
        ``1 - u`` times the exact one and the ``N`` additions of ``S`` lose
        at most a factor ``(1 - u)^N``; the computed difference keeps
        ``_amplitude``'s absolute term and its factor ``1 + u``; adding that
        term and applying the margin round twice more.  This is a relative
        ``(N + 4) u``; with the ``(2 e (N + 4) + 8) u`` of ``_amplitude``'s
        comparison of ``D`` with ``D'``, twice the sum gives the factor below.
        """
        stair = moduli[-1][off[:, -1]]
        for axis, omega in enumerate(moduli[:-1]):
            stair = stair + omega[np.abs(off[:, axis])]
        n = len(moduli) - 1
        margin = 1.0 + (2.0 * self.exponent * (n + 4) + n + 12) * _EPS
        return np.minimum(self.amp, (2.0 ** (self.k - 1) * stair + self.slack) * margin)

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
        flat = arr.reshape(-1)
        at = int(flat.argmax())
        denom = _separation(self.kind, off[:-1], off[-1], self.h_x, self.h_t) ** self.exponent
        q = float(flat[at]) / denom
        # a smaller difference earlier in the slab may round to the same
        # quotient; the witness is the first base that attains it.  Division
        # rounds monotonically, so no earlier base ties unless the next
        # smaller float does.
        if at and float(np.nextafter(flat[at], 0.0)) / denom == q:
            at = int(np.argmax(flat[:at + 1] / denom == q))
        return q, (at, arr.shape, lows), arr.size

    def witness(self, off: tuple[int, ...], where) -> dict:
        at, shape, lows = where
        base = [int(a + lo) for a, lo in zip(np.unravel_index(at, shape), lows)]
        d, j = off[:-1], off[-1]
        if self.kind == "kdiff" or self.k > 1:
            return {"base": base, "steps": list(d), "time_step": int(j), "order": int(self.k),
                    "plength": plength_steps(d, j, self.h_x, self.h_t)}
        return {"a": [b + o for b, o in zip(base, off)], "b": base,
                "separation": _separation(self.kind, d, j, self.h_x, self.h_t)}

    def nearest_offsets(self) -> list[tuple[int, ...]]:
        """Unit offsets along each spatial axis, then along time."""
        n = len(self.limits)
        out = [tuple(int(i == a) for i in range(n)) + (0,)
               for a, m in enumerate(self.limits) if m >= 1]
        if self.j_lo <= 1 <= self.j_hi:
            out.append((0,) * n + (1,))
        return out

    def coarsened(self) -> "_Problem":
        """The same supremum on every other node along each axis that carries
        offsets, those steps doubled exactly: its quotients are bit-equal to
        full-grid quotients at twice the offset from even base nodes."""
        step = tuple(2 if m else 1 for m in self.limits + (self.j_hi,))
        values = np.ascontiguousarray(self.values[tuple(slice(None, None, s) for s in step)])
        return _Problem(values, tuple(s * h for s, h in zip(step, self.h_x)),
                        step[-1] * self.h_t, self.exponent, self.k, self.kind, self.allow_time)

    def around(self, off: tuple[int, ...]) -> list[tuple[int, ...]]:
        """``off``, then its admissible neighbours ``off -+ e_a`` along each
        axis, time last, in the canonical half-space.  ``off`` is twice an
        offset of the coarsened problem, so no neighbour is zero."""
        box, out = self.limits + (self.j_hi,), [off]
        for a in range(len(off)):
            for s in (-1, 1):
                o = off[:a] + (off[a] + s,) + off[a + 1:]
                if o[-1:] + o[:-1] < (0,) * len(o):
                    o = tuple(-v for v in o)
                if all(abs(v) <= m for v, m in zip(o, box)):
                    out.append(o)
        return out

    # -- the table ----------------------------------------------------------------

    def certified(self, floor: float, limit: int | None):
        """Offsets whose quotient bound reaches ``floor``, as arrays
        (offsets, bounds) sorted by bound, descending, ties in enumeration
        order.  With a ``limit``, ``None`` when the moduli would cost more
        than ``limit`` pairs or more than ``_TABLE_ROWS`` offsets are kept.

        Only offsets within the separation ``r`` where the global bound,
        raised by a relative 1e-12 that dwarfs its rounding, meets ``floor``
        are enumerated (an axis component alone is at most the separation),
        in chunks of ``_TABLE_ROWS``, time offset outermost; the moduli reach
        as far.
        """
        limits, j_hi = self.limits, self.j_hi
        if floor > 0.0 and self.exponent > 0.0:
            with np.errstate(over="ignore"):
                r = float(np.float64(self.amp * (1.0 + 1e-12) / floor) ** (1.0 / self.exponent))
            limits = tuple(int(min(m, r / h + 1.0)) for m, h in zip(limits, self.h_x))
            if j_hi > 0:
                reach = r * r if self.kind == "kdiff" else r
                j_hi = int(min(j_hi, reach / self.h_t + 1.0))
        if limit is not None and (sum(limits) + j_hi) * self.values.size > limit:
            return None
        moduli = self.moduli(limits + (j_hi,))
        box = (j_hi - self.j_lo + 1,) + tuple(2 * m + 1 for m in limits)
        total = math.prod(box)
        parts, kept = [], 0
        # at j = 0 the canonical offsets follow the zero offset, mid-plane
        for start in range((total // box[0] + 1) // 2 if self.j_lo == 0 else 0, total,
                           _TABLE_ROWS):
            idx = np.unravel_index(np.arange(start, min(start + _TABLE_ROWS, total)), box)
            off = np.stack([i - m for i, m in zip(idx[1:], limits)] + [idx[0] + self.j_lo],
                           axis=1)  # (d, j)
            bound = self.staircase(off, moduli) / self.separations(off) ** self.exponent
            keep = bound >= floor
            kept += int(keep.sum())
            if limit is not None and kept > _TABLE_ROWS:
                return None
            parts.append((off[keep], bound[keep]))
        off, bound = (np.concatenate(p) for p in zip(*parts))
        perm = np.argsort(-bound, kind="stable")
        return off[perm], bound[perm]


class _Best:
    """Running maximum; ties go to the earliest offset in enumeration order."""

    def __init__(self):
        self.q, self.key, self.off, self.where = -math.inf, (), None, None

    def offer(self, q: float, off: tuple[int, ...], where):
        key = off[-1:] + off[:-1]
        if q > self.q or (q == self.q and key < self.key):
            self.q, self.key, self.off, self.where = q, key, off, where


def _sup(prob: _Problem, limit: int | None, empty: str) -> SupOutcome:
    """The outcome of :func:`_solve`; ``empty`` is the error raised when no
    offset is admissible."""
    if not prob.nearest_offsets():
        raise ValueError(empty)
    best, examined, upper = _solve(prob, limit)
    return SupOutcome(best.q, prob.witness(best.off, best.where), examined,
                      "exhaustive" if upper is None else "interval", upper)


def _solve(prob: _Problem, limit: int | None) -> tuple[_Best, int, float | None]:
    """(best, pairs evaluated, upper bound or ``None`` when exact).

    The nearest-neighbour sweep, then one walk over the certified table best
    bound first, stopping at the first bound below the running best (exact).
    Once the walk has evaluated ``limit`` pairs (``None``: never), or when
    there is no table, the coarsened problem is solved the same way, with the
    same budget, down to a level that is exact or has no admissible offset;
    its witness offset, doubled, and its neighbours (:meth:`_Problem.around`)
    are evaluated here.  Seeing every admissible offset makes any walk
    exact."""
    nearest = prob.nearest_offsets()
    best, seen, examined = _Best(), set(), 0

    def visit(off: tuple[int, ...]):
        nonlocal examined
        seen.add(off)
        q, where, n = prob.evaluate(off)
        examined += n
        best.offer(q, off, where)

    for off in nearest:
        visit(off)
    table = prob.certified(best.q, limit)
    if table is None:
        cut = float(np.max(prob.amp / prob.separations(np.asarray(nearest)) ** prob.exponent))
    else:
        cut, budget = None, math.inf if limit is None else limit
        for row, bound in zip(*table):
            if bound < best.q or len(seen) == prob.count:
                break
            if examined >= budget:
                cut = float(bound)
                break
            off = tuple(int(v) for v in row)
            if off not in seen:
                visit(off)
    if cut is None or len(seen) == prob.count:
        return best, examined, None
    coarse = prob.coarsened()
    if coarse.nearest_offsets():
        floor, n, _ = _solve(coarse, limit)
        examined += n
        for off in prob.around(tuple(2 * v for v in floor.off)):
            if off not in seen:
                visit(off)
    return best, examined, max(best.q, cut)


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
    return _sup(prob, None, f"no admissible displacement of order {k} along {axes} on "
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
    return _sup(prob, None, _kdiff_empty(values, k))


# -- public drivers ---------------------------------------------------------------


def pair_quotient_sup(
    w: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    axes: str,
    store: dict | None = None,
) -> SupOutcome:
    """First-difference quotient supremum over space or time pairs."""
    prob = _Problem(w, h_x, h_t, exponent, 1, axes, axes == "time", store)
    empty = ("time-pair seminorm needs at least two time levels" if axes == "time" else
             f"no admissible displacement of order 1 along space on grid "
             f"{tuple(n - 1 for n in w.shape)}")
    return _sup(prob, PAIR_LIMIT, empty)


def kdiff_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    allow_time: bool,
    store: dict | None = None,
) -> SupOutcome:
    """Joint space-time k-th difference quotient supremum."""
    prob = _Problem(values, h_x, h_t, exponent, k, "kdiff", allow_time, store)
    return _sup(prob, PAIR_LIMIT, _kdiff_empty(values, k))


def kdiff_time_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    store: dict | None = None,
) -> SupOutcome:
    """Pure-time k-th difference quotient supremum (split-form time part)."""
    prob = _Problem(values, h_x, h_t, exponent, k, "time", True, store)
    return _sup(prob, PAIR_LIMIT,
                f"no admissible pure-time shift of order {k}: need at least {k} time steps")
