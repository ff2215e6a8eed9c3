"""Supremum engines over node pairs and grid-aligned space-time shifts.

Every seminorm here is a maximum of quotients ``|k-th difference| / sep^e``
over an admissible set of offsets ``(d, j)`` (spatial steps, time steps).  Its
kind fixes that set and the separation (:func:`separation`): ``"space"``
shifts keep the time and use the Euclidean ``|d h|``, ``"time"`` shifts keep
the place and use ``j h_t``, ``"joint"`` shifts use the parabolic length
``|d h| + (j h_t)^(1/2)``.  Node pairs are the order-1 case.  One engine
serves them all:

1. Every nearest-neighbour offset is swept; the best quotient seeds the search.
   On a field whose computed differences are all 0 (``all_zero``) the
   sweep's best is already exact, and the engine stops there.
2. No k-th difference exceeds ``amp = 2^(k-1) (max w - min w)``, so an offset
   at separation ``r`` bounds its quotients by ``amp / r^e``.  This global
   bound fixes the radius beyond which no offset can reach the seed.
3. Within that radius each offset ``H = (d, j)`` gets its own bound from the
   moduli ``omega_v(s) = max |w(y + s v) - w(y)|`` of lattice directions
   ``v``: each axis ``e_a`` (time included) and, for each pair of spatial
   axes ``a < b``, the diagonals ``e_a + e_b`` and ``e_a - e_b``.  A path
   from ``y`` to ``y + H`` whose corners stay in the box bounds
   ``|Delta_H w(y)|`` by the moduli of its legs, and
   ``Delta^k = Delta^(k-1) Delta``, so no quotient at ``H`` exceeds
   ``min(amp, 2^(k-1) S) / sep^e`` for the sum ``S`` of any such path.  The
   staircase, one axis at a time, gives ``omega_t(j) + sum_a
   omega_a(|d_a|)``.  Where ``d_a`` and ``d_b`` are both nonzero, a second
   path first takes ``m = min(|d_a|, |d_b|)`` steps along the diagonal
   ``e_a + e_b`` or ``e_a - e_b`` that the signs of ``d_a`` and ``d_b`` pick,
   then ``||d_a| - |d_b||`` steps along the longer of the two axes, then the
   staircase over time and the other axes: ``omega_t(j) + omega_ab(m) +
   omega_long(||d_a| - |d_b||) + sum_c omega_c(|d_c|)``.  Each corner lies
   between ``y`` and ``y + H`` along every axis, so it stays in the box; the
   bound takes the smallest sum.  On ``sin(2 pi x1) sin(2 pi x2)`` an offset
   on a diagonal gets half its staircase bound.  Both sums have ``N + 1``
   terms, ``N`` additions, so one rounding margin covers them (see
   ``box_bounds``).  One routine, ``refine``, computes the moduli exactly,
   one pass over the values per lag and direction; ``certified`` grows them
   by rising lag, in batches of ``_BATCH`` lags from lag 1.  At k = 1 the
   modulus at lag ``s`` along ``v`` is, bit for bit, the largest difference
   of the slab of the admissible offset ``s v``, so its quotient is one the
   walk will find: each batch that leaves lags within the radius raises the
   floor to its largest quotient, and the radius of this direction and of
   the ones after it shrinks to that floor's.  The moduli depend on the values alone, so
   the dispatchers take a caller-owned ``store`` of them that the suprema
   of one field share and extend: no lag of any direction is computed
   twice.  The batches start at lag 1 whatever the store holds, so the
   raised floor, and with it the radius and the table, are the same
   whatever it holds.
4. The offsets whose bound reaches the floor are walked best bound first,
   and the walk stops at the first bound below the running best: every
   offset skipped is certified to lie below it, so the value is exact (mode
   ``"exhaustive"``).  An offset below a raised floor lies below a quotient
   that the walk, in its total order, visits before it, so dropping it
   changes no visit.  The table keeps each offset whose bound reaches the
   floor as that bound and the offset's flat index in the box of offsets,
   16 bytes; the bounds are broadcast over slabs of the box from one vector
   of moduli and one of offset components per axis, the offsets themselves
   never built.  One vectorised ``sep^e`` (``denominators``) serves these
   bounds and the windows below; the scalar :func:`separation` is the
   denominator of every reported quotient.  The table is sorted once, when
   it is built, by bound, descending, ties in enumeration order; the walk
   unravels into offsets only the rows it reads that reach the running best.
   Past the first 8 offsets a walk reads, each is evaluated only on a window
   of its slab: the base rows of axis 0 and the base time levels whose pairs
   can still reach the running best, by the max and the min of the values
   on the hyperplanes they touch.  The window is a slice along each axis,
   evaluated in place into one scratch buffer, and only a maximum that can
   reach the best pays for the scalar ``sep^e`` and the tie scan.
5. The dispatchers give the walk a budget of ``PAIR_LIMIT`` decided pairs.
   Past it, or when the moduli along the axes out to the seed's radius
   would cost more than the budget (see ``certified``) or more than
   ``_TABLE_ROWS`` offsets reach the floor, the value is a lower bound and
   the outcome a certified interval (mode ``"interval"``): the lower bound
   comes from the same problem on the grid coarsened by two along each axis
   that carries offsets, whose quotients are full-grid quotients at twice
   the offset; its witness offset, doubled, and that offset's neighbours
   along each such axis are evaluated on the full grid.  ``upper`` is the
   bound at the cut, or with no table ``amp / (nearest separation)^e``.  A
   walk that has seen every admissible offset is exact, whichever way it
   got there.  ``examined`` counts the pairs decided, coarse levels
   included, store or not: every pair of each visited offset's slab,
   whether evaluated or certified below the running best by its window.

Offsets range over the canonical half-space: positive time offset, or zero
time offset with the first nonzero spatial component positive.  Reversing a
shift reproduces the same quotient from a translated base node, so nothing is
lost.  Every witness has one shape, ``base`` (node index), ``steps``,
``time_step``, ``order`` and ``separation``: the quotient is the order-k
difference at ``base`` along ``(steps, time_step)`` over ``separation^e``.
Among tied maxima the witness is the first in enumeration order: time offset
outermost, then the spatial offsets lexicographically, then the base node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import difference_coefficients

PAIR_LIMIT = 50_000_000  # pairs the exact walk of a dispatcher may decide
DEFAULT_SEED = 1729  # nothing draws from it; kept only for perfbench/refs.py, which imports it
_TABLE_ROWS = 262_144  # offsets per slab of the offset table; a dispatcher keeps no more
_BATCH = 32  # lags of a direction's moduli between two raises of the floor
_EPS = np.finfo(float).eps


@dataclass
class SupOutcome:
    value: float
    witness: dict | None
    examined: int
    mode: str  # "exhaustive" | "interval"
    upper: float | None = None  # in mode "interval", a certified bound on the exact value


def separation(kind: str, d, j: int, h_x, h_t: float) -> float:
    """Separation of the offset ``(d, j)``: Euclidean ``|d h|`` for ``"space"``,
    ``j h_t`` for ``"time"``, the parabolic length ``|d h| + (j h_t)^(1/2)``
    for ``"joint"``."""
    if kind == "time":
        return j * h_t
    sep = math.sqrt(sum((di * hi) ** 2 for di, hi in zip(d, h_x)))
    return sep + math.sqrt(j * h_t) if kind == "joint" else sep


# -- slabs ----------------------------------------------------------------------------


def _base_slices(offset: tuple[int, ...], dims: tuple[int, ...], k: int):
    """Base-region bounds such that all translates i = 0..k stay inside."""
    return [k * max(-d, 0) for d in offset], [n - k * max(d, 0) for d, n in zip(offset, dims)]


def _axis_pairs(limits: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs of spatial axes ``a < b`` that both carry offsets: each gets
    the diagonals ``e_a + e_b`` and ``e_a - e_b``."""
    return [(a, b) for a, b in itertools.combinations(range(len(limits)), 2)
            if limits[a] and limits[b]]


def _direction(ndim: int, a: int, b: int | None = None, sign: int = 1) -> tuple[int, ...]:
    """The lattice step ``e_a``, or with ``b`` the diagonal ``e_a + sign e_b``:
    a key of the moduli store."""
    return tuple(int(i == a) + sign * int(i == b) for i in range(ndim))


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
    kind: str  # "space" | "time" | "joint"
    store: dict | None = None  # moduli of ``values``, see ``refine``

    def __post_init__(self):
        n_sp, n_t = self.values.shape[:-1], self.values.shape[-1]
        k = self.k
        self.limits = tuple(0 if self.kind == "time" else (n - 1) // k for n in n_sp)
        self.j_lo = int(self.kind == "time")
        self.j_hi = 0 if self.kind == "space" else (n_t - 1) // k
        self.coeffs = difference_coefficients(k)
        plane = math.prod(2 * m + 1 for m in self.limits)
        # canonical admissible offsets: all of the box but half the j = 0 plane
        self.count = (self.j_hi - self.j_lo + 1) * plane - (plane + 1) // 2 * (self.j_lo == 0)
        self.amp, self.slack = self._amplitude()
        n = len(n_sp)
        self.margin = 1.0 + (2.0 * self.exponent * (n + 4) + n + 12) * _EPS  # see ``box_bounds``
        self.scratch = None  # see ``evaluate``
        self.profiles = None  # see ``windows``
        self.flat = None  # see ``refine``
        if self.store is None:
            self.store = {}

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

    def all_zero(self) -> bool:
        """Whether every difference ``evaluate`` computes is exactly 0: the
        values are constant along each axis that carries offsets (each time
        level for ``"space"``, each place for ``"time"``), ``k <= 3`` and
        ``c_1 w`` is finite for every value ``w``.

        An offset moves only along those axes, so each of its differences
        reads one constant ``w``.  k = 1: ``w - w = 0``.  k = 2
        (``c = 2, -1``): ``2w`` is exact, ``2w - w = w`` and ``w - w = 0``.
        k = 3 (``c = 3, -3, 1``): ``fl(3w) + fl(-3w) = 0``, as rounding is
        symmetric in sign, then ``0 + w = w`` and ``w - w = 0``.  With
        ``c_1 w`` infinite the sums give ``inf`` or ``nan``, and at k = 4
        ``fl(4w) + fl(-6w)`` can keep the rounding error of ``fl(6w)``."""
        v = self.values
        axes = tuple(a for a, m in enumerate(self.limits + (self.j_hi,)) if m)
        return (self.k <= 3 and bool(np.all(v.max(axis=axes) == v.min(axis=axes)))
                and math.isfinite(self.coeffs[0] * float(np.abs(v).max())))

    def refine(self, direction: tuple[int, ...], top: int) -> None:
        """Compute ``omega_v(s) = max |w(y + s v) - w(y)|`` at each lag
        ``s <= top`` of the lattice step ``v = direction`` (time last; see
        ``reaches``) that ``store`` lacks.

        ``store`` maps a direction to its moduli over every lag that keeps a
        node in the grid, shared by the suprema of one field and grown in
        place; its entry is made on first use with lag 0 at 0 and every
        other lag at ``inf``, the mark of a lag that no supremum has reached
        yet.  Each such lag is one pass into ``scratch``: along an axis over
        a copy of the values with that axis first, kept in ``flat`` for the
        next batch of the same axis, along a diagonal from two slices of the
        values.  The maximum and the minimum of the signed differences give
        it with one pass fewer than their absolute values, and bit for bit:
        negation is exact.  So ``omega_v(s)`` is also the largest
        ``|w(y) - w(y + s v)|`` that :meth:`evaluate` finds at k = 1 on the
        slab of the offset ``s v``."""
        v = self.values
        if direction not in self.store:
            omega = np.full(min(n for n, c in zip(v.shape, direction) if c), np.inf)
            omega[0] = 0.0
            self.store[direction] = omega
        omega = self.store[direction]
        lags = np.flatnonzero(omega[:top + 1] == np.inf).tolist()
        if not lags:
            return
        scratch = self.buffer()
        if sum(map(abs, direction)) == 1:
            # a flat offset in the axis-first copy: no slices to build per
            # lag, and contiguous along time, where two slices are strided
            if self.flat is None or self.flat[0] != direction:
                self.flat = direction, np.ascontiguousarray(
                    np.moveaxis(v, direction.index(1), 0)).reshape(-1)
            flat = self.flat[1]
            width = flat.size // len(omega)

            def differences(s):  # w(y + s e_a) - w(y) over every y
                n = flat.size - s * width
                return np.subtract(flat[s * width:], flat[:n], out=scratch[:n])
        else:
            def differences(s):  # w(y + s v) - w(y) over every y whose both ends are nodes
                lows, highs = _base_slices(tuple(s * c for c in direction), v.shape, 1)
                behind = v[tuple(map(slice, lows, highs))]
                ahead = v[tuple(slice(lo + s * c, hi + s * c)
                                for lo, hi, c in zip(lows, highs, direction))]
                out = scratch[:behind.size].reshape(behind.shape)
                return np.subtract(ahead, behind, out=out).reshape(-1)
        for s in lags:
            d = differences(s)
            omega[s] = max(d[d.argmax()], -d[d.argmin()])

    def reaches(self, limits: tuple[int, ...], j_hi: int) -> list[tuple[tuple[int, ...], int]]:
        """``(direction, top)`` of every modulus the bounds of the box
        ``limits``, ``j_hi`` read: each axis out to its limit, time last,
        then for each pair of spatial axes ``a < b`` that both carry offsets
        the diagonals ``e_a + e_b`` and ``e_a - e_b`` out to the smaller of
        their limits."""
        n = len(limits)
        out = [(_direction(n + 1, a), top) for a, top in enumerate(limits + (j_hi,))]
        for a, b in _axis_pairs(limits):
            out += [(_direction(n + 1, a, b, s), min(limits[a], limits[b])) for s in (1, -1)]
        return out

    def denominators(self, d, j, out: np.ndarray | None = None) -> np.ndarray:
        """The vectorised ``sep^e`` of the offsets with spatial components
        ``d``, one array per axis, and time components ``j >= 0``, which
        broadcast together.  The squared steps of each axis are added in
        axis order, then come the square root, the time term of ``"joint"``
        and the power: one order for a slab of the table, a row and a
        window, which thus give an offset the same float.  Every step is
        taken in place in one array of their broadcast shape, ``out`` when
        given: a slab of the table holds two arrays of its size, no more."""
        sep = np.empty(np.broadcast_shapes(np.shape(j), *map(np.shape, d))) if out is None else out
        sep[...] = 0.0
        if self.kind == "time":
            sep += j * self.h_t
        else:
            for da, h in zip(d, self.h_x):
                sep += (da * h) ** 2
            np.sqrt(sep, out=sep)
            if self.kind == "joint":
                sep += np.sqrt(j * self.h_t)
        return np.power(sep, self.exponent, out=sep)

    # -- windows --------------------------------------------------------------------

    def windows(self, off: np.ndarray, floor: float) -> list:
        """``(lows, highs, denom, pairs)`` for each offset row ``(d, j)``: its
        base box, cut along axis 0 and along time to the indices whose pairs
        can reach ``floor``, the row's vectorised ``sep^e``, and the pairs of
        its whole slab.

        Along an axis whose offset component is ``d``, a pair based at index
        ``i`` touches the hyperplanes ``i, i + d, ..., i + k d`` only, so its
        exact ``|k-th difference|`` is at most ``2^(k-1) (hi - lo)``, with
        ``hi`` and ``lo`` the max and the min of the values on those
        hyperplanes (see ``_amplitude``).  Rounding, as in ``box_bounds`` with
        one subtraction in place of its sum of moduli: the computed
        ``(2^(k-1) (hi - lo) + slack) margin / D'``, with ``D'`` the
        vectorised ``sep^e``, is at least every computed quotient there.
        Indices from the first to the last whose bound reaches ``floor`` are
        kept, so ties with ``floor`` survive and the window stays one slice
        per axis; an empty slice means the offset needs no slab.
        """
        if self.profiles is None:  # max and min over each row of axis 0 and each time level
            v = self.values
            rest = tuple(range(1, v.ndim)), tuple(range(v.ndim - 1))
            self.profiles = [(v.max(axis=a), v.min(axis=a)) for a in rest]
        denom = self.denominators(off[:, :-1].T, off[:, -1])
        lows = -self.k * np.minimum(off, 0)
        highs = np.asarray(self.values.shape) - self.k * np.maximum(off, 0)
        pairs = np.prod(highs - lows, axis=1)
        for axis, (top, bottom) in zip((0, -1), self.profiles):
            lows[:, axis], highs[:, axis] = self._span(
                top, bottom, off[:, axis], lows[:, axis], highs[:, axis], denom, floor)
        return list(zip(lows.tolist(), highs.tolist(), denom.tolist(), pairs.tolist()))

    def _span(self, top, bottom, d, first, stop, denom, floor):
        """(start, stop) of the base indices in ``first..stop`` along one
        axis whose bound, from the per-index ``top`` and ``bottom`` of the
        values, reaches ``floor`` at offset components ``d``."""
        n, k = len(top), self.k
        base = np.arange(n)
        hi, lo = top, bottom
        for m in range(1, k + 1):
            at = np.clip(base + m * d[:, None], 0, n - 1)
            hi, lo = np.maximum(hi, top[at]), np.minimum(lo, bottom[at])
        reach = (2.0 ** (k - 1) * (hi - lo) + self.slack) * self.margin / denom[:, None] >= floor
        reach &= (base >= first[:, None]) & (base < stop[:, None])
        start = reach.argmax(axis=1)
        return start, np.where(reach.any(axis=1), n - reach[:, ::-1].argmax(axis=1), start)

    # -- one offset ---------------------------------------------------------------

    def evaluate(self, off: tuple[int, ...], window=None, floor: float = -math.inf):
        """(quotient, where: flat argmax, slab shape, base lows, pairs decided)
        of one offset's slab, computed in ``scratch``.

        With a ``window`` (see ``windows``) only its base box is evaluated,
        the pairs decided are those of the whole slab, and the quotient and
        ``where`` are ``None`` when nothing in the window can reach
        ``floor``: the box is empty, or its largest difference, raised by
        ``margin``, over the vectorised ``sep^e`` is below ``floor``, which
        the comparison terms of ``_amplitude`` make a bound on the quotient.
        Only a window that can reach ``floor`` pays for the scalar ``sep^e``
        and the tie scan.  A largest difference that is ``inf`` or ``nan``,
        from a sum that overflowed, is a ``ValueError`` naming the kind and
        the order."""
        if window is None:
            lows, highs = _base_slices(off, self.values.shape, self.k)
        else:
            lows, highs, table_denom, pairs = window
        shape = [hi - lo for lo, hi in zip(lows, highs)]
        size = math.prod(shape)
        if window is None:
            pairs = size
        elif size <= 0:
            return None, None, pairs
        flat = self.buffer()[:size]
        out = flat.reshape(shape)
        view = [self.values[tuple([slice(lo + i * d, hi + i * d)
                                   for lo, hi, d in zip(lows, highs, off)])]
                for i in range(self.k + 1)]
        if self.k == 1:  # c_1 = 1.0
            np.subtract(view[0], view[1], out=out)
        else:  # u_0 - sum_i c_i u_i, summed in that order; c_i u_i is exact at c_i = -+1
            np.multiply(view[1], self.coeffs[0], out=out)
            for c, v in zip(self.coeffs[1:], view[2:]):
                if abs(c) == 1.0:
                    (np.add if c > 0 else np.subtract)(out, v, out=out)
                else:
                    part = self.scratch[size:2 * size].reshape(shape)
                    np.add(out, np.multiply(v, c, out=part), out=out)
            np.subtract(view[0], out, out=out)
        at = int(np.abs(flat, out=flat).argmax())  # argmax costs less than max here
        top = float(flat[at])
        if not math.isfinite(top):  # argmax stops at the first nan
            raise ValueError(f"{self.kind} differences of order {self.k} overflow: a slab's "
                             f"largest is {top}")
        if window is not None and top * self.margin / table_denom < floor:
            return None, None, pairs
        denom = separation(self.kind, off[:-1], off[-1], self.h_x, self.h_t) ** self.exponent
        q = top / denom
        # a smaller difference earlier in the slab may round to the same
        # quotient; the witness is the first base that attains it.  Division
        # rounds monotonically, so no earlier base ties unless the next
        # smaller float does.
        if at and float(np.nextafter(top, 0.0)) / denom == q:
            at = int(np.argmax(flat[:at + 1] / denom == q))
        return q, (at, tuple(shape), lows), pairs

    def buffer(self) -> np.ndarray:
        """``scratch``: the output of ``evaluate`` and ``refine``, and for
        k >= 3 the partial products of ``evaluate``."""
        if self.scratch is None:
            self.scratch = np.empty(self.values.size * (1 if self.k <= 2 else 2))
        return self.scratch

    def witness(self, off: tuple[int, ...], where) -> dict:
        at, shape, lows = where
        d, j = off[:-1], off[-1]
        return {"base": [int(a + lo) for a, lo in zip(np.unravel_index(at, shape), lows)],
                "steps": list(d), "time_step": int(j), "order": int(self.k),
                "separation": separation(self.kind, d, j, self.h_x, self.h_t)}

    def nearest_offsets(self) -> list[tuple[int, ...]]:
        """Unit offsets along each spatial axis, then along time."""
        n = len(self.limits)
        out = [_direction(n + 1, a) for a, m in enumerate(self.limits) if m >= 1]
        if self.j_lo <= 1 <= self.j_hi:
            out.append(_direction(n + 1, n))
        return out

    def coarsened(self) -> "_Problem":
        """The same supremum on every other node along each axis that carries
        offsets, those steps doubled exactly: its quotients are bit-equal to
        full-grid quotients at twice the offset from even base nodes."""
        step = tuple(2 if m else 1 for m in self.limits + (self.j_hi,))
        values = np.ascontiguousarray(self.values[tuple(slice(None, None, s) for s in step)])
        return _Problem(values, tuple(s * h for s, h in zip(step, self.h_x)),
                        step[-1] * self.h_t, self.exponent, self.k, self.kind)

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
        """The offsets whose quotient bound reaches ``floor``, or the floor
        the moduli raise, as ``(box, bounds, index)``: each offset's bound
        and flat index into ``box`` (see :meth:`_table`), sorted by bound,
        descending, ties in enumeration order.  With a ``limit``, ``None``
        when the moduli along the axes out to the radius of ``floor`` would
        cost more than ``limit`` pairs, one pass over the values per lag, or
        when more than ``_TABLE_ROWS`` offsets are kept.  The diagonals'
        passes are not counted (at most as many as the axes' in 2-D, twice
        as many in 3-D): counted, they would make some exact 2-D res-64
        suprema of the acceptance suite intervals.

        Each direction of :meth:`reaches` is refined by rising lag, in
        batches of ``_BATCH`` lags from lag 1, out to the radius of the floor
        (see :meth:`_box`).  At k = 1 each batch that leaves lags within it
        raises the floor to the batch's largest quotient (``_batch_best``),
        which is what :meth:`evaluate` returns at that offset, and the radius
        shrinks with it.  Every offset within the final radius is bounded,
        in slabs of about ``_TABLE_ROWS`` offsets, time offset outermost, and
        the rows whose bound reaches the final floor are kept.  The batches
        do not depend on the store, so neither do the floor, the box and the
        table.
        """
        limits, j_hi = self._box(floor)
        if limit is not None and (sum(limits) + j_hi) * self.values.size > limit:
            return None
        box = None  # the box of the raised floor, once raised
        for direction, top in self.reaches(limits, j_hi):
            s = 0
            while True:
                if box:  # the raised floor cuts this direction and the later ones
                    top = min(m for m, c in zip(box, direction) if c)
                s = min(s + _BATCH, top)
                self.refine(direction, s)
                if s == top:
                    break
                if self.k == 1:
                    floor = max(floor, self._batch_best(direction, s)[0])
                    limits, j_hi = self._box(floor)
                    box = limits + (j_hi,)
        return self._table(floor, limit, limits, j_hi)

    def _box(self, floor: float) -> tuple[tuple[int, ...], int]:
        """``(limits, j_hi)`` of the offsets within the separation ``r`` where
        the global bound, raised by a relative 1e-12 that dwarfs its
        rounding, meets ``floor``: an axis component alone is at most the
        separation."""
        limits, j_hi = self.limits, self.j_hi
        if floor > 0.0 and self.exponent > 0.0:
            with np.errstate(over="ignore"):
                r = float(np.float64(self.amp * (1.0 + 1e-12) / floor) ** (1.0 / self.exponent))
            limits = tuple(int(min(m, r / h + 1.0)) for m, h in zip(limits, self.h_x))
            if j_hi > 0:
                reach = r * r if self.kind == "joint" else r
                j_hi = int(min(j_hi, reach / self.h_t + 1.0))
        return limits, j_hi

    def _batch_best(self, direction: tuple[int, ...], s: int):
        """(quotient, offset) at the largest quotient of the ``_BATCH`` lags up
        to ``s`` along ``direction``, k = 1: the lag is the argmax of
        ``omega_v / sep^e`` with the vectorised ``sep^e``, and the quotient
        the scalar one at that lag, which is what :meth:`evaluate` returns
        for the offset ``lag v``."""
        lags = np.arange(s - _BATCH + 1, s + 1)
        denom = self.denominators([lags * c for c in direction[:-1]], lags * direction[-1])
        lag = int(lags[np.argmax(self.store[direction][lags] / denom)])
        off = tuple(lag * c for c in direction)
        sep = separation(self.kind, off[:-1], off[-1], self.h_x, self.h_t)
        return float(self.store[direction][lag]) / sep ** self.exponent, off

    def _table(self, floor: float, limit: int | None, limits: tuple[int, ...], j_hi: int):
        """The table of :meth:`certified` over the box ``limits``, ``j_hi``
        at the moduli in ``store``, or ``None`` past the row guard.

        The box has the axes ``(j - j_lo, d + limits)``, time first; its
        flat index is the enumeration order.  Each slab is a run of flat
        indices over its leading axes, the fewest whose other axes hold at
        most ``_TABLE_ROWS`` offsets, by every index along the others.  A
        kept row is its bound and its flat index, 16 bytes; the rows are
        sorted once, here, by bound, descending."""
        # not held while the table is built and sorted, the peak of memory
        self.scratch = self.flat = None
        box = (j_hi - self.j_lo + 1,) + tuple(2 * m + 1 for m in limits)
        lead = next(a for a in range(1, len(box)) if math.prod(box[a:]) <= _TABLE_ROWS
                    or a == len(box) - 1)
        inner, rows = math.prod(box[lead:]), math.prod(box[:lead])
        # at j = 0 the canonical offsets follow the zero offset, mid-plane
        first = (math.prod(box[1:]) + 1) // 2 if self.j_lo == 0 else 0
        step = max(1, _TABLE_ROWS // inner)
        bounds, index, kept = [], [], 0
        for start in range(first // inner, rows, step):
            skip = max(first - start * inner, 0)
            bound = self.box_bounds(box, lead, np.arange(start, min(start + step, rows)))
            bound = bound.reshape(-1)[skip:]
            at = np.flatnonzero(bound >= floor)
            kept += len(at)
            if limit is not None and kept > _TABLE_ROWS:
                return None
            bounds.append(bound[at])
            at += start * inner + skip
            index.append(at)
        bounds, index = (np.concatenate(p) if len(p) > 1 else p[0] for p in (bounds, index))
        # the kept flat indices ascend, so a stable sort keeps ties in
        # enumeration order; the unsorted bounds go before the indices are
        # sorted, which holds one array of the table fewer
        order = np.argsort(-bounds, kind="stable")
        bounds = bounds[order]
        return box, bounds, index[order]

    def box_bounds(self, box: tuple[int, ...], lead: int, rows: np.ndarray) -> np.ndarray:
        """Upper bounds on every computed quotient over a slab of the box of
        :meth:`_table`: the offsets whose flat index over the first ``lead``
        axes of ``box`` is in ``rows``, by every index along the others, in
        an array of shape ``(len(rows),) + box[lead:]``; with
        ``lead = len(box)``, one bound per flat index in ``rows``.

        The bound at ``H = (d, j)`` is ``min(amp, 2^(k-1) S) / D'`` with
        ``D'`` the vectorised ``sep^e`` and ``S`` the smallest path sum of
        the module docstring, step 3, from the moduli in ``store``: the
        staircase ``omega_t(j) + sum_a omega_a(|d_a|)``, and for each pair
        of axes ``a < b`` the diagonal path ``omega_ab(m) + omega_long(r) +
        omega_t(j) + sum_c omega_c(|d_c|)``, ``m = min(|d_a|, |d_b|)``,
        ``r = ||d_a| - |d_b||`` and ``c`` the other axes; where ``d_a`` or
        ``d_b`` is 0, ``m = 0`` and ``omega_ab(0) = 0`` make it a staircase.
        Exactly, each path moves from ``y`` to ``y + H`` along one lattice
        direction at a time and keeps every corner inside the box, so
        ``|Delta_H w(y)| <= S``; and ``Delta^k_H w(y)`` is a ``(k-1)``-th
        difference of ``Delta_H w`` at ``y, ..., y + (k-1) H``, whose
        coefficients sum to ``2^(k-1)`` in magnitude.  Rounding, as in
        ``_amplitude`` (``u = eps / 2``): a computed modulus, along a
        diagonal as along an axis, is at least ``1 - u`` times the exact
        one; each sum has ``N + 1`` terms, so its ``N`` additions lose at
        most a factor ``(1 - u)^N``, and the minimum of two computed sums is
        one of them.  The computed difference keeps ``_amplitude``'s
        absolute term and its factor ``1 + u``; adding that term and
        applying the margin round twice more.  This is a relative
        ``(N + 4) u``; with the ``(2 e (N + 4) + 8) u`` of ``_amplitude``'s
        comparison of ``D`` with ``D'``, twice the sum gives ``margin``.

        Each axis gives one vector of moduli and one of offset components,
        broadcast over the slab; each pair of axes gives its part
        ``omega_ab(m) + omega_long(r)`` over the slab's extent along the two
        axes.  The moduli are added in one order whatever ``lead`` is: the
        staircase's time first, then each axis; a diagonal path's part
        first, then time, then the other axes.  ``D'`` is
        :meth:`denominators`.  So a slab and a row give an offset the same
        float.  A slab holds two arrays of its size: the bounds, and one that
        holds each diagonal path in turn, then ``D'``.  A pair's part is
        built in that second array where the pair's two axes span the whole
        slab, else in an array smaller than the slab by its extent along the
        other axes; its lookup indices are computed in chunks of numpy's
        buffer size (``np.nditer``), so no index array spans the slab."""
        n = len(box) - 1
        j = np.arange(self.j_lo, self.j_lo + box[0])
        d = [np.arange(-(m // 2), m // 2 + 1) for m in box[1:]]
        idx = np.unravel_index(rows, box[:lead])
        shape = (len(rows),) + box[lead:]
        omega = [self.store[_direction(n + 1, a)] for a in range(n + 1)]  # each axis, time last

        def spread(vec, axis):  # one axis's vector, broadcast over the slab
            if axis < lead:
                return vec[idx[axis]].reshape((-1,) + (1,) * (n + 1 - lead))
            return vec.reshape([1] + [m if a == axis else 1 for a, m in enumerate(box) if a >= lead])

        def legs(path, skip=()):  # add each axis's moduli but those of ``skip``, in axis order
            for axis in range(n):
                if axis not in skip:
                    path += spread(omega[axis][np.abs(d[axis])], axis + 1)
            return path

        stair = np.empty(shape)
        stair[...] = spread(omega[n][j], 0)
        legs(stair)
        path = np.empty(shape)
        for a, b in _axis_pairs(tuple(m // 2 for m in box[1:])):
            # omega_ab(m) from the moduli of e_a + e_b, then of e_a - e_b, read
            # past the first where d_a and d_b differ in sign; omega_long(r)
            # from omega_b reversed, then omega_a past its lag 0, read at
            # |d_a| - |d_b| from the lag 0 of both
            plus, minus = (self.store[_direction(n + 1, a, b, s)] for s in (1, -1))
            diag = np.concatenate([plus, minus])
            long = np.concatenate([omega[b][::-1], omega[a][1:]])
            da, db = spread(d[a], a + 1), spread(d[b], b + 1)
            part = np.broadcast_shapes(da.shape, db.shape)
            part = path if part == shape else np.empty(part)
            ops = [np.abs(da), np.abs(db), da < 0, db < 0, part]
            with np.nditer(ops, ["external_loop", "buffered"],  # chunks of numpy's buffer size
                           [["readonly"]] * 4 + [["writeonly"]]) as chunks:
                for fa, fb, sa, sb, out in chunks:
                    at = np.minimum(fa, fb)
                    np.add(at, len(plus), out=at, where=sa != sb)
                    out[...] = diag[at]
                    np.subtract(fa, fb, out=at)
                    at += len(omega[b]) - 1
                    out += long[at]
            np.add(part, spread(omega[n][j], 0), out=path)
            np.minimum(stair, legs(path, (a, b)), out=stair)
        stair *= 2.0 ** (self.k - 1)
        stair += self.slack
        stair *= self.margin
        np.minimum(self.amp, stair, out=stair)
        denom = self.denominators([spread(v, a + 1) for a, v in enumerate(d)], spread(j, 0), path)
        with np.errstate(divide="ignore", invalid="ignore"):  # the zero offset, dropped
            return np.divide(stair, denom, out=stair)


class _Best:
    """Running maximum; ties go to the earliest offset in enumeration order."""

    def __init__(self):
        self.q, self.key, self.off, self.where = -math.inf, (), None, None

    def offer(self, q: float, off: tuple[int, ...], where):
        key = _key(off)
        if q > self.q or (q == self.q and key < self.key):
            self.q, self.key, self.off, self.where = q, key, off, where


def _sup(prob: _Problem, limit: int | None) -> SupOutcome:
    """The outcome of :func:`_solve`, or a ``ValueError`` when no offset is
    admissible or a difference overflows.  :meth:`_Problem.evaluate` names
    an overflow, so numpy's overflow warnings are silenced: elsewhere an
    overflow only makes a bound ``inf``, which keeps it sound."""
    if not prob.nearest_offsets():
        raise ValueError(f"no admissible shift for {prob.kind} differences of order {prob.k}: "
                         f"every axis they use has fewer than {prob.k} steps (grid has "
                         f"{tuple(n - 1 for n in prob.values.shape)})")
    with np.errstate(over="ignore", invalid="ignore"):
        best, examined, upper = _solve(prob, limit)
    return SupOutcome(best.q, prob.witness(best.off, best.where), examined,
                      "exhaustive" if upper is None else "interval", upper)


def _solve(prob: _Problem, limit: int | None) -> tuple[_Best, int, float | None]:
    """(best, pairs decided, upper bound or ``None`` when exact).

    The nearest-neighbour sweep, then one walk over the certified table best
    bound first, stopping at the first bound below the running best (exact).
    Past the walk's first chunk, each offset it visits is evaluated on its
    window at the running best (:func:`_walk`).  Once the walk has decided ``limit`` pairs
    (``None``: never), or when there is no table, the coarsened problem is
    solved the same way, with the same budget, down to a level that is exact
    or has no admissible offset; its witness offset, doubled, and its
    neighbours (:meth:`_Problem.around`) are evaluated here.  Seeing every
    admissible offset makes any walk exact."""
    nearest = prob.nearest_offsets()
    best, seen, examined = _Best(), set(), 0

    def visit(off: tuple[int, ...], window=None):
        nonlocal examined
        seen.add(off)
        q, where, n = prob.evaluate(off, window, best.q)
        examined += n
        if where is not None:
            best.offer(q, off, where)

    for off in nearest:
        visit(off)
    # where every difference is 0, the sweep's best, base 0 of the first
    # offset in enumeration order (a nearest one), is exact; only a sweep
    # that reads 0 scans the values for it
    if best.q == 0.0 and prob.all_zero():
        return best, examined, None
    prob.scratch = None  # not held while the table is built or the coarse levels solved
    table = prob.certified(best.q, limit)
    if table is None:
        off = np.asarray(nearest)
        cut = float(np.max(prob.amp / prob.denominators(off[:, :-1].T, off[:, -1])))
    else:
        cut, budget = None, math.inf if limit is None else limit
        for off, bound, window in _walk(prob, table, best):
            if bound < best.q or len(seen) == prob.count:
                break
            if examined >= budget:
                cut = float(bound)
                break
            if off not in seen:
                visit(off, window)
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


def _walk(prob: _Problem, table, best: _Best):
    """The rows of the sorted ``table`` of :meth:`_Problem.certified` as
    (offset, bound, window), up to the first bound below the running best.

    The rows come in chunks of 8 up to 128, each cut at the first bound
    below the running best of its start, where the walk ends, and only then
    unravelled into offsets ``(d, j)``, with their windows
    (:meth:`_Problem.windows`) at that best; the best only rises, so they
    hold for the whole chunk.  The first chunk evaluates whole slabs: most
    walks end within 8 rows (those of ``matrix-1d`` read about 5), and there
    the windows cost more than they save."""
    box, bounds, index = table
    shift = np.array([m // 2 for m in box[1:]] + [-prob.j_lo])  # box index - (d, j)
    start, size = 0, 8
    while start < len(bounds) and bounds[start] >= best.q:
        chunk = bounds[start:start + size]
        chunk = chunk[:np.count_nonzero(chunk >= best.q)]
        idx = np.unravel_index(index[start:start + len(chunk)], box)
        rows = np.array(idx[1:] + idx[:1]).T - shift
        windows = prob.windows(rows, best.q) if size > 8 else [None] * len(rows)
        yield from zip(map(tuple, rows.tolist()), chunk, windows)
        start, size = start + len(rows), min(2 * size, 128)


def _key(off) -> tuple[int, ...]:
    """Enumeration order of an offset ``(d, j)``: time offset, then ``d``."""
    return tuple(off[-1:]) + tuple(off[:-1])


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
    return _sup(_Problem(w, h_x, h_t, exponent, k, axes), None)


def kdiff_quotient_sup_exhaustive(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    allow_time: bool,
) -> SupOutcome:
    return _sup(_Problem(values, h_x, h_t, exponent, k, "joint" if allow_time else "space"), None)


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
    return _sup(_Problem(w, h_x, h_t, exponent, 1, axes, store), PAIR_LIMIT)


def kdiff_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    allow_time: bool,
    store: dict | None = None,
) -> SupOutcome:
    """Joint space-time k-th difference quotient supremum (space shifts only
    unless ``allow_time``)."""
    kind = "joint" if allow_time else "space"
    return _sup(_Problem(values, h_x, h_t, exponent, k, kind, store), PAIR_LIMIT)


def kdiff_time_quotient_sup(
    values: np.ndarray,
    h_x: tuple[float, ...],
    h_t: float,
    exponent: float,
    k: int,
    store: dict | None = None,
) -> SupOutcome:
    """Pure-time k-th difference quotient supremum (split-form time part)."""
    return _sup(_Problem(values, h_x, h_t, exponent, k, "time", store), PAIR_LIMIT)
