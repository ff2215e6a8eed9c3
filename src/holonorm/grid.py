"""Uniform space-time grids over axis-aligned boxes, and their parabolic geometry.

A :class:`GridFunction` stores samples of ``u(x, t)`` on the tensor lattice of a
box ``[lower, upper] x [0, T]``.  The purely spatial ("elliptic") case is
``T = 0``, represented with a single trivial time level so every array keeps
the same layout.  Node-to-node displacements are measured with the anisotropic
parabolic length ``|h| + |dt|^(1/2)``, under which the scaling
``x -> lam*x, t -> lam^2*t`` multiplies lengths by ``lam``.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MAX_VALUES = 100_000_000
ALIGN_RTOL = 1e-9
LATTICE_RTOL = 1e-9


def as_int(value, name: str) -> int:
    """``value`` as a Python int when it is integral, whatever its numeric type
    (``8``, ``8.0``, ``np.int64(8)``); a ``ValueError`` naming ``name``
    otherwise, instead of truncating."""
    try:
        return operator.index(value)  # int, numpy integers
    except TypeError:
        pass
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == math.floor(value):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


class GridAlignmentError(ValueError):
    """A shift is not an integer multiple of the grid spacing."""


class GridSizeError(ValueError):
    """A requested grid exceeds the dense-storage cap."""


class CsvFormatError(ValueError):
    """A CSV file does not describe a complete uniform lattice."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box ``[lower_i, upper_i]`` times the time interval ``[0, T]``.

    ``time_horizon == 0`` marks a purely spatial domain.
    """

    space_lower: tuple[float, ...]
    space_upper: tuple[float, ...]
    time_horizon: float = 0.0

    def __post_init__(self):
        lower = tuple(float(v) for v in self.space_lower)
        upper = tuple(float(v) for v in self.space_upper)
        object.__setattr__(self, "space_lower", lower)
        object.__setattr__(self, "space_upper", upper)
        object.__setattr__(self, "time_horizon", float(self.time_horizon))
        if len(lower) == 0 or len(lower) != len(upper):
            raise ValueError(
                f"need matching nonempty bounds, got {len(lower)} lower / {len(upper)} upper"
            )
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"axis {i + 1}: require lower < upper, got [{lo}, {hi}]")
        if not (math.isfinite(self.time_horizon) and self.time_horizon >= 0.0):
            raise ValueError(f"time horizon must be finite and >= 0, got {self.time_horizon}")

    @property
    def N(self) -> int:
        return len(self.space_lower)

    @property
    def is_elliptic(self) -> bool:
        return self.time_horizon == 0.0

    def extent(self, axis: int) -> float:
        return self.space_upper[axis] - self.space_lower[axis]

    def dilated(self, lam: float) -> "Domain":
        return Domain(
            tuple(lam * v for v in self.space_lower),
            tuple(lam * v for v in self.space_upper),
            lam * lam * self.time_horizon,
        )


@dataclass(frozen=True)
class MultiIndex:
    """Spatial derivative multi-index ``beta`` with order ``|beta|``."""

    beta: tuple[int, ...]

    def __post_init__(self):
        beta = tuple(as_int(b, "multi-index component") for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if any(b < 0 for b in beta):
            raise ValueError(f"multi-index components must be nonnegative, got {beta}")

    @property
    def order(self) -> int:
        return sum(self.beta)


@dataclass(frozen=True)
class ParabolicShift:
    """Space-time displacement ``(h, dt)`` with length ``|h| + |dt|^(1/2)``."""

    h: tuple[float, ...]
    dt: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        object.__setattr__(self, "dt", float(self.dt))
        for a, v in enumerate(self.h + (self.dt,)):
            if not math.isfinite(v):
                what = "time shift" if a == len(self.h) else f"shift component on axis {a + 1}"
                raise ValueError(f"{what} must be finite, got {v}")

    @property
    def plength(self) -> float:
        return math.sqrt(sum(v * v for v in self.h)) + math.sqrt(abs(self.dt))

    def dilated(self, lam: float) -> "ParabolicShift":
        # The image of the shift under x -> lam*x, t -> lam^2*t.
        return ParabolicShift(tuple(lam * v for v in self.h), lam * lam * self.dt)


def _lattice_shape(domain: Domain, spatial_steps: Sequence[int], time_steps: int):
    """Validated ``(spatial_steps, time_steps, values shape)`` of a lattice on
    ``domain``; rejects shapes above the ``MAX_VALUES`` cap."""
    spatial_steps = tuple(as_int(s, "spatial step count") for s in spatial_steps)
    time_steps = as_int(time_steps, "time_steps")
    if len(spatial_steps) != domain.N:
        raise ValueError(
            f"got {len(spatial_steps)} step counts for a {domain.N}-dimensional box"
        )
    if any(s < 1 for s in spatial_steps):
        raise ValueError(f"spatial step counts must be positive, got {spatial_steps}")
    if domain.is_elliptic:
        if time_steps != 0:
            raise ValueError("time_steps must be 0 when the time horizon is 0")
    elif time_steps < 1:
        raise ValueError("a positive time horizon needs time_steps >= 1")
    shape = tuple(s + 1 for s in spatial_steps) + (time_steps + 1,)
    n_total = math.prod(shape)
    if n_total > MAX_VALUES:
        raise GridSizeError(
            f"grid with {n_total} values exceeds the dense-storage cap of {MAX_VALUES}"
        )
    return spatial_steps, time_steps, shape


def _lattice_coords(domain: Domain, spatial_steps: tuple[int, ...], time_steps: int):
    """Node coordinates along each spatial axis, then the time levels."""
    lower = domain.space_lower + (0.0,)
    upper = domain.space_upper + (domain.time_horizon,)
    steps = spatial_steps + (time_steps,)
    return tuple(np.linspace(lo, hi, s + 1) for lo, hi, s in zip(lower, upper, steps))


def _coords_at(coords, idx) -> tuple[tuple[float, ...], float]:
    """``(x, t)`` of the node ``idx``, read from the per-axis ``coords``."""
    *x, t = (float(c[i]) for c, i in zip(coords, idx))
    return tuple(x), t


def _whole_steps(v: float, h: float, axis: int | None) -> int:
    """``v`` in whole steps ``h`` along spatial ``axis`` (counted from 0), or
    along time when ``axis`` is None; a ``GridAlignmentError`` otherwise."""
    if h == 0.0:  # the single time level of a purely spatial grid
        if v != 0.0:
            raise GridAlignmentError("nonzero time shift on a purely spatial grid")
        return 0
    r = v / h
    k = round(r)
    if abs(r - k) > ALIGN_RTOL * max(1.0, abs(r)):
        what = f"time shift {v}" if axis is None else f"shift component {v} on axis {axis + 1}"
        unit = "time step" if axis is None else "spacing"
        raise GridAlignmentError(f"{what} is not a whole multiple of the {unit} {h}")
    return k


class GridFunction:
    """Immutable samples of a function on the tensor lattice of a box.

    ``values`` has shape ``(*spatial_points, time_points)``; the elliptic case
    keeps a single time level.  Node coordinates come from per-axis linspace
    arrays, time last, so box endpoints are hit exactly.  ``_memo`` keeps what
    :mod:`holonorm.norms` computed on this grid; each new grid starts empty.
    """

    __slots__ = ("domain", "spatial_steps", "time_steps", "values", "_coords", "_memo")

    def __init__(self, domain: Domain, spatial_steps: Sequence[int], time_steps: int, values):
        spatial_steps, time_steps, shape = _lattice_shape(domain, spatial_steps, time_steps)
        vals = np.ascontiguousarray(values, dtype=float)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match grid shape {shape}")
        coords = _lattice_coords(domain, spatial_steps, time_steps)
        if not np.isfinite(vals).all():
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            x, t = _coords_at(coords, idx)
            raise ValueError(f"non-finite value {float(vals[idx])!r} at node {idx}, x={x}, t={t}")
        vals.setflags(write=False)

        self.domain = domain
        self.spatial_steps = spatial_steps
        self.time_steps = time_steps
        self.values = vals
        self._coords = coords
        self._memo = {}

    # -- geometry ----------------------------------------------------------

    @property
    def N(self) -> int:
        return self.domain.N

    @property
    def is_elliptic(self) -> bool:
        return self.domain.is_elliptic

    @property
    def h_x(self) -> tuple[float, ...]:
        return tuple(self.domain.extent(i) / self.spatial_steps[i] for i in range(self.N))

    @property
    def h_t(self) -> float:
        if self.time_steps == 0:
            return 0.0
        return self.domain.time_horizon / self.time_steps

    @property
    def n_spatial(self) -> tuple[int, ...]:
        return tuple(s + 1 for s in self.spatial_steps)

    @property
    def n_time(self) -> int:
        return self.time_steps + 1

    def axis_coords(self, axis: int) -> np.ndarray:
        return self._coords[axis]

    def time_coords(self) -> np.ndarray:
        return self._coords[-1]

    def normalize_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """Accept an (N+1)-index, or an N-index on elliptic grids (time 0)."""
        idx = tuple(as_int(i, "index component") for i in index)
        if len(idx) == self.N and self.is_elliptic:
            idx = idx + (0,)
        if len(idx) != self.N + 1:
            raise ValueError(f"index {idx} has wrong length for a {self.N}+time grid")
        for a, (i, n) in enumerate(zip(idx, self.values.shape)):
            if not 0 <= i < n:
                raise IndexError(f"index component {i} out of range [0, {n - 1}] on axis {a}")
        return idx

    def node_coords(self, index: Sequence[int]) -> tuple[tuple[float, ...], float]:
        return _coords_at(self._coords, self.normalize_index(index))

    def value_at(self, index: Sequence[int]) -> float:
        return float(self.values[self.normalize_index(index)])

    def steps_of_shift(self, shift: ParabolicShift) -> tuple[tuple[int, ...], int]:
        """Express a shift in whole grid steps; reject misaligned shifts."""
        if len(shift.h) != self.N:
            raise GridAlignmentError(
                f"shift has {len(shift.h)} spatial components, grid has {self.N}"
            )
        *steps, j = map(
            _whole_steps, shift.h + (shift.dt,), self.h_x + (self.h_t,), [*range(self.N), None]
        )
        return tuple(steps), j

    def shift_from_steps(self, steps: Sequence[int], j: int = 0) -> ParabolicShift:
        h = self.h_x
        return ParabolicShift(tuple(d * h[a] for a, d in enumerate(steps)), j * self.h_t)

    # -- derived functions --------------------------------------------------

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.domain, self.spatial_steps, self.time_steps, self.values * s)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.domain, self.spatial_steps, self.time_steps, values)


def make_grid_function(
    domain: Domain,
    spatial_steps: int | Sequence[int],
    time_steps: int,
    f: Callable,
) -> GridFunction:
    """Sample ``f(x, t)`` on the lattice; ``x`` is the tuple of coordinates.

    ``f`` is first offered coordinate arrays (vectorized evaluation); if that
    fails or produces the wrong shape, it is called node by node with floats.
    Non-finite samples are rejected by :class:`GridFunction`, with the
    offending node named.  The lattice is validated before ``f`` is called.
    """
    if isinstance(spatial_steps, numbers.Real):
        spatial_steps = (spatial_steps,) * domain.N
    spatial_steps, time_steps, shape = _lattice_shape(domain, spatial_steps, time_steps)
    coords = _lattice_coords(domain, spatial_steps, time_steps)

    vals = None
    try:
        mesh = np.meshgrid(*coords, indexing="ij")
        raw = f(tuple(mesh[:-1]), mesh[-1])
        vals = np.array(np.broadcast_to(np.asarray(raw, dtype=float), shape), order="C")
    except (TypeError, ValueError, IndexError):
        # f is not vectorizable (or returned an incompatible shape): sample
        # node by node instead.  Arithmetic errors propagate unchanged.
        pass
    if vals is None:
        vals = np.empty(shape)
        for idx in np.ndindex(shape):
            vals[idx] = float(f(*_coords_at(coords, idx)))
    return GridFunction(domain, spatial_steps, time_steps, vals)


def parabolic_dilate(u: GridFunction, lam: float) -> GridFunction:
    """Reinterpret the same samples on the box scaled by ``x->lam*x, t->lam^2*t``."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return GridFunction(u.domain.dilated(lam), u.spatial_steps, u.time_steps, u.values)


def _translates(
    u: GridFunction, index: Sequence[int], shift: ParabolicShift, i: int
) -> list[tuple[int, ...]] | None:
    """The nodes ``index + m * (steps, j)`` of the grid-aligned ``shift`` for
    ``m = 0..i`` (counting down when ``i < 0``), or ``None`` when they leave
    the box.  ``normalize_index`` checks the first node and the box is convex,
    so checking the last is enough."""
    base = u.normalize_index(index)
    steps, j = u.steps_of_shift(shift)
    full, step = steps + (j,), 1 if i >= 0 else -1
    nodes = [tuple(b + m * d for b, d in zip(base, full)) for m in range(0, i + step, step)]
    if all(0 <= p < n for p, n in zip(nodes[-1], u.values.shape)):
        return nodes
    return None


def shift_eval(
    u: GridFunction, index: Sequence[int], shift: ParabolicShift, multiplier: int = 1
) -> float | None:
    """Value of ``u`` at the node displaced by ``multiplier`` copies of ``shift``.

    Returns ``None`` when the displaced node leaves the box.  The shift must be
    grid aligned.
    """
    nodes = _translates(u, index, shift, as_int(multiplier, "multiplier"))
    return None if nodes is None else float(u.values[nodes[-1]])


def difference_coefficients(k: int) -> tuple[float, ...]:
    """Coefficients ``c_i = (-1)^(i+1) * binom(k, i)`` for ``i = 1..k``.

    These make ``u(x) = (-1)^k D + sum_i c_i u(x + i*H)`` an identity when
    ``D`` is the k-th difference of ``u`` along ``H``.
    """
    return tuple(float((-1) ** (i + 1) * math.comb(k, i)) for i in range(1, k + 1))


def kth_difference(
    u: GridFunction, index: Sequence[int], shift: ParabolicShift, k: int
) -> float | None:
    """Iterated difference of order ``k`` along ``shift``, or ``None`` if any
    translate leaves the box.

    Computed in the factored form ``(-1)^k * (u0 - sum_i c_i u_i)`` so the
    reconstruction identity holds to a few ulps.
    """
    k = as_int(k, "k")
    if k < 1:
        raise ValueError(f"difference order must be >= 1, got {k}")
    nodes = _translates(u, index, shift, k)
    if nodes is None:
        return None
    s = 0.0
    for c, node in zip(difference_coefficients(k), nodes[1:]):
        s += c * float(u.values[node])
    return (-1.0) ** k * (float(u.values[nodes[0]]) - s)


def coarsen(u: GridFunction, factor: int = 2) -> GridFunction:
    """Subgrid keeping every ``factor``-th node along every axis."""
    factor = as_int(factor, "factor")
    if factor < 1:
        raise ValueError(f"coarsening factor must be >= 1, got {factor}")
    full = u.spatial_steps + (u.time_steps,)
    if any(s % factor for s in full):
        raise ValueError(
            f"step counts {u.spatial_steps} x {u.time_steps} are not divisible by {factor}"
        )
    *steps, tsteps = (s // factor for s in full)
    # the single time level of a purely spatial grid survives the same slice
    every = (slice(None, None, factor),) * len(full)
    return GridFunction(u.domain, steps, tsteps, u.values[every])


# -- CSV ingestion -----------------------------------------------------------


def grid_from_csv(path) -> GridFunction:
    """Load a complete uniform lattice from ``x1,...,xN[,t],u`` rows.

    The file is UTF-8, with or without a byte-order mark.  The time column is
    absent for purely spatial data.  Spacing must be uniform to relative
    tolerance 1e-9; incomplete or irregular lattices are rejected with the
    offending row named (lines counted from 1 at the header).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        header = [c.strip() for c in header]
        if len(header) < 2 or header[-1] != "u":
            raise CsvFormatError(f"header must end with 'u', got {header}")
        labels = header[:-1]
        has_time = labels[-1] == "t"
        n_dim = len(labels) - has_time
        if n_dim == 0 or labels[:n_dim] != [f"x{i + 1}" for i in range(n_dim)]:
            raise CsvFormatError(
                f"header must read x1,...,xN{',t' if has_time else ''},u; got {header}"
            )

        rows, row_nos = [], []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"row {row_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                parsed = [float(c) for c in row]
            except ValueError as exc:
                raise CsvFormatError(f"row {row_no}: {exc}") from None
            if not all(math.isfinite(v) for v in parsed):
                raise CsvFormatError(f"row {row_no}: non-finite value")
            rows.append(parsed)
            row_nos.append(row_no)

    if not rows:
        raise CsvFormatError("no data rows")
    data = np.asarray(rows).T
    # (lower, step, step count) and the node index of every row, per axis
    lattice, indices = [], []
    for label, vals in zip(labels, data[:-1]):
        uniq = np.unique(vals)
        # a coordinate written two ways, a rounding apart, is one node
        uniq = uniq[np.r_[True, np.diff(uniq) > LATTICE_RTOL * (uniq[-1] - uniq[0])]]
        if len(uniq) < 2:
            raise CsvFormatError(f"column {label} needs at least two distinct values")
        h = (uniq[-1] - uniq[0]) / (len(uniq) - 1)
        if h <= 0 or np.max(np.abs(np.diff(uniq) - h)) > LATTICE_RTOL * h:
            raise CsvFormatError(f"column {label} is not uniformly spaced (tolerance 1e-9)")
        lo = float(uniq[0])
        if label == "t" and abs(lo) > LATTICE_RTOL * h:
            raise CsvFormatError(f"time column must start at 0, got {lo}")
        off = (vals - lo) / h
        idx = np.rint(off).astype(int)
        bad = np.abs(off - idx) > LATTICE_RTOL * np.maximum(1.0, np.abs(off))
        if np.any(bad):
            row = row_nos[np.argmax(bad)]
            raise CsvFormatError(f"row {row}: {label} value off the inferred lattice")
        # a time column within tolerance of 0 starts at 0
        lattice.append((0.0 if label == "t" else lo, float(h), len(uniq) - 1))
        indices.append(idx)
    if not has_time:
        lattice.append((0.0, 0.0, 0))
        indices.append(np.zeros(len(rows), dtype=int))

    shape = tuple(s + 1 for _, _, s in lattice)
    if len(rows) != math.prod(shape):
        raise CsvFormatError(
            f"expected {math.prod(shape)} lattice rows, got {len(rows)}: lattice incomplete"
        )
    # Every index lies in its axis' range and there are as many rows as nodes,
    # so without a duplicate the rows fill the lattice one to one.
    lin = np.ravel_multi_index(tuple(indices), shape)
    uniq, counts = np.unique(lin, return_counts=True)
    if np.any(counts > 1):
        dup = np.nonzero(lin == uniq[counts > 1][0])[0][1]
        raise CsvFormatError(f"row {row_nos[dup]}: duplicate lattice node")
    values = np.full(shape, np.nan)
    values[tuple(indices)] = data[-1]

    *space, (_, t_h, t_steps) = lattice
    domain = Domain(
        tuple(lo for lo, _, _ in space), tuple(lo + h * s for lo, h, s in space), t_h * t_steps
    )
    return GridFunction(domain, tuple(s for _, _, s in space), t_steps, values)
