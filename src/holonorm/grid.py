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


def _lattice_axes(domain: Domain, spatial_steps: tuple[int, ...], time_steps: int):
    """Node coordinates per spatial axis, and the time levels."""
    axes = tuple(
        np.linspace(domain.space_lower[i], domain.space_upper[i], spatial_steps[i] + 1)
        for i in range(domain.N)
    )
    return axes, np.linspace(0.0, domain.time_horizon, time_steps + 1)


class GridFunction:
    """Immutable samples of a function on the tensor lattice of a box.

    ``values`` has shape ``(*spatial_points, time_points)``; the elliptic case
    keeps a single time level.  Node coordinates come from per-axis linspace
    arrays, so box endpoints are hit exactly.  ``_memo`` keeps what
    :mod:`holonorm.norms` computed on this grid; each new grid starts empty.
    """

    __slots__ = ("domain", "spatial_steps", "time_steps", "values", "_axes", "_taxis", "_memo")

    def __init__(self, domain: Domain, spatial_steps: Sequence[int], time_steps: int, values):
        spatial_steps, time_steps, shape = _lattice_shape(domain, spatial_steps, time_steps)
        vals = np.ascontiguousarray(values, dtype=float)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match grid shape {shape}")
        if not np.all(np.isfinite(vals)):
            idx = tuple(int(v) for v in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value {vals[idx]!r} at node index {idx}")
        vals.setflags(write=False)

        self.domain = domain
        self.spatial_steps = spatial_steps
        self.time_steps = time_steps
        self.values = vals
        self._axes, self._taxis = _lattice_axes(domain, spatial_steps, time_steps)
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
        return self._axes[axis]

    def time_coords(self) -> np.ndarray:
        return self._taxis

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
        idx = self.normalize_index(index)
        x = tuple(float(self._axes[a][idx[a]]) for a in range(self.N))
        return x, float(self._taxis[idx[-1]])

    def value_at(self, index: Sequence[int]) -> float:
        return float(self.values[self.normalize_index(index)])

    def steps_of_shift(self, shift: ParabolicShift) -> tuple[tuple[int, ...], int]:
        """Express a shift in whole grid steps; reject misaligned shifts."""
        if len(shift.h) != self.N:
            raise GridAlignmentError(
                f"shift has {len(shift.h)} spatial components, grid has {self.N}"
            )
        steps = []
        for a, (v, h) in enumerate(zip(shift.h, self.h_x)):
            r = v / h
            k = round(r)
            if abs(r - k) > ALIGN_RTOL * max(1.0, abs(r)):
                raise GridAlignmentError(
                    f"shift component {v} on axis {a + 1} is not a whole multiple "
                    f"of the spacing {h}"
                )
            steps.append(int(k))
        if self.time_steps == 0:
            if shift.dt != 0.0:
                raise GridAlignmentError("nonzero time shift on a purely spatial grid")
            j = 0
        else:
            r = shift.dt / self.h_t
            j = round(r)
            if abs(r - j) > ALIGN_RTOL * max(1.0, abs(r)):
                raise GridAlignmentError(
                    f"time shift {shift.dt} is not a whole multiple of the time step {self.h_t}"
                )
            j = int(j)
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
    Non-finite samples are rejected with the offending node named.  The
    lattice is validated before ``f`` is called.
    """
    if isinstance(spatial_steps, numbers.Real):
        spatial_steps = (spatial_steps,) * domain.N
    spatial_steps, time_steps, shape = _lattice_shape(domain, spatial_steps, time_steps)
    axes, taxis = _lattice_axes(domain, spatial_steps, time_steps)

    vals = None
    try:
        mesh = np.meshgrid(*axes, taxis, indexing="ij")
        raw = f(tuple(mesh[:-1]), mesh[-1])
        arr = np.asarray(raw, dtype=float)
        vals = np.ascontiguousarray(np.broadcast_to(arr, shape)).copy()
    except (TypeError, ValueError, IndexError):
        # f is not vectorizable (or returned an incompatible shape): sample
        # node by node instead.  Arithmetic errors propagate unchanged.
        vals = None
    if vals is None:
        vals = np.empty(shape)
        for idx in np.ndindex(shape):
            x = tuple(float(axes[a][idx[a]]) for a in range(domain.N))
            vals[idx] = float(f(x, float(taxis[idx[-1]])))

    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        idx = tuple(int(v) for v in bad[0])
        x = tuple(float(axes[a][idx[a]]) for a in range(domain.N))
        raise ValueError(
            f"f produced non-finite sample {vals[idx]!r} at node {idx}, "
            f"x={x}, t={float(taxis[idx[-1]])}"
        )
    return GridFunction(domain, spatial_steps, time_steps, vals)


def parabolic_dilate(u: GridFunction, lam: float) -> GridFunction:
    """Reinterpret the same samples on the box scaled by ``x->lam*x, t->lam^2*t``."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return GridFunction(u.domain.dilated(lam), u.spatial_steps, u.time_steps, u.values)


def shift_eval(
    u: GridFunction, index: Sequence[int], shift: ParabolicShift, multiplier: int = 1
) -> float | None:
    """Value of ``u`` at the node displaced by ``multiplier`` copies of ``shift``.

    Returns ``None`` when the displaced node leaves the box.  The shift must be
    grid aligned.
    """
    idx = u.normalize_index(index)
    steps, j = u.steps_of_shift(shift)
    i = as_int(multiplier, "multiplier")
    target = tuple(b + i * d for b, d in zip(idx, steps + (j,)))
    for pos, n in zip(target, u.values.shape):
        if not 0 <= pos < n:
            return None
    return float(u.values[target])


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
    idx = u.normalize_index(index)
    steps, j = u.steps_of_shift(shift)
    full = steps + (j,)
    shape = u.values.shape
    for i in range(k + 1):
        for b, d, n in zip(idx, full, shape):
            if not 0 <= b + i * d < n:
                return None
    coeffs = difference_coefficients(k)
    u0 = float(u.values[idx])
    s = 0.0
    for i in range(1, k + 1):
        target = tuple(b + i * d for b, d in zip(idx, full))
        s += coeffs[i - 1] * float(u.values[target])
    return (-1.0) ** k * (u0 - s)


def coarsen(u: GridFunction, factor: int = 2) -> GridFunction:
    """Subgrid keeping every ``factor``-th node along every axis."""
    factor = as_int(factor, "factor")
    if factor < 1:
        raise ValueError(f"coarsening factor must be >= 1, got {factor}")
    if any(s % factor for s in u.spatial_steps) or (u.time_steps % factor and u.time_steps):
        raise ValueError(
            f"step counts {u.spatial_steps} x {u.time_steps} are not divisible by {factor}"
        )
    sl = (slice(None, None, factor),) * u.N + (
        slice(None, None, factor) if u.time_steps else slice(None),
    )
    steps = tuple(s // factor for s in u.spatial_steps)
    tsteps = u.time_steps // factor if u.time_steps else 0
    return GridFunction(u.domain, steps, tsteps, u.values[sl])


# -- CSV ingestion -----------------------------------------------------------


def grid_from_csv(path) -> GridFunction:
    """Load a complete uniform lattice from ``x1,...,xN[,t],u`` rows.

    The time column is absent for purely spatial data.  Spacing must be
    uniform to relative tolerance 1e-9; incomplete or irregular lattices are
    rejected with the offending row named (rows counted including the header).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        header = [c.strip() for c in header]
        if len(header) < 2 or header[-1] != "u":
            raise CsvFormatError(f"header must end with 'u', got {header}")
        coord_names = header[:-1]
        has_time = coord_names and coord_names[-1] == "t"
        if has_time:
            coord_names = coord_names[:-1]
        n_dim = len(coord_names)
        expected = [f"x{i + 1}" for i in range(n_dim)]
        if n_dim == 0 or coord_names != expected:
            raise CsvFormatError(
                f"header must read x1,...,xN{',t' if has_time else ''},u; got {header}"
            )

        cols: list[list[float]] = [[] for _ in range(n_dim + (1 if has_time else 0) + 1)]
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(cols):
                raise CsvFormatError(f"row {row_no}: expected {len(cols)} fields, got {len(row)}")
            try:
                parsed = [float(c) for c in row]
            except ValueError as exc:
                raise CsvFormatError(f"row {row_no}: {exc}") from None
            if not all(math.isfinite(v) for v in parsed):
                raise CsvFormatError(f"row {row_no}: non-finite value")
            for c, v in zip(cols, parsed):
                c.append(v)

    if not cols[0]:
        raise CsvFormatError("no data rows")
    coords = [np.asarray(c) for c in cols[:-1]]
    uvals = np.asarray(cols[-1])

    def axis_lattice(vals: np.ndarray, label: str) -> tuple[float, float, int]:
        uniq = np.unique(vals)
        if len(uniq) < 2:
            raise CsvFormatError(f"column {label} needs at least two distinct values")
        h = (uniq[-1] - uniq[0]) / (len(uniq) - 1)
        if h <= 0 or np.max(np.abs(np.diff(uniq) - h)) > LATTICE_RTOL * h:
            raise CsvFormatError(f"column {label} is not uniformly spaced (tolerance 1e-9)")
        return float(uniq[0]), float(h), len(uniq) - 1

    lattice = [axis_lattice(coords[a], f"x{a + 1}") for a in range(n_dim)]
    if has_time:
        t_lo, t_h, t_steps = axis_lattice(coords[n_dim], "t")
        if abs(t_lo) > LATTICE_RTOL * t_h:
            raise CsvFormatError(f"time column must start at 0, got {t_lo}")
        t_lo = 0.0
    else:
        t_h, t_steps = 0.0, 0

    shape = tuple(s + 1 for _, _, s in lattice) + (t_steps + 1,)
    if len(uvals) != math.prod(shape):
        raise CsvFormatError(
            f"expected {math.prod(shape)} lattice rows, got {len(uvals)}: lattice incomplete"
        )

    def to_index(vals: np.ndarray, lo: float, h: float, n: int, label: str) -> np.ndarray:
        off = (vals - lo) / h
        idx = np.rint(off).astype(int)
        bad = np.abs(off - idx) > LATTICE_RTOL * np.maximum(1.0, np.abs(off))
        if np.any(bad):
            row = int(np.argmax(bad)) + 2
            raise CsvFormatError(f"row {row}: {label} value off the inferred lattice")
        if np.any(idx < 0) or np.any(idx > n):
            row = int(np.argmax((idx < 0) | (idx > n))) + 2
            raise CsvFormatError(f"row {row}: {label} value outside the inferred box")
        return idx

    indices = [
        to_index(coords[a], lattice[a][0], lattice[a][1], lattice[a][2], f"x{a + 1}")
        for a in range(n_dim)
    ]
    if has_time:
        indices.append(to_index(coords[n_dim], 0.0, t_h, t_steps, "t"))
    else:
        indices.append(np.zeros(len(uvals), dtype=int))

    values = np.full(shape, np.nan)
    flat = tuple(indices)
    lin = np.ravel_multi_index(flat, shape)
    uniq, first_pos, counts = np.unique(lin, return_index=True, return_counts=True)
    if np.any(counts > 1):
        dup_lin = uniq[counts > 1][0]
        row = int(np.nonzero(lin == dup_lin)[0][1]) + 2
        raise CsvFormatError(f"row {row}: duplicate lattice node")
    if len(uniq) != math.prod(shape):
        seen = np.zeros(shape, dtype=bool)
        seen[flat] = True
        missing = tuple(int(v) for v in np.argwhere(~seen)[0])
        raise CsvFormatError(f"lattice incomplete: no row for node index {missing}")
    values[flat] = uvals

    domain = Domain(
        tuple(lo for lo, _, _ in lattice),
        tuple(lo + h * s for lo, h, s in lattice),
        t_h * t_steps,
    )
    return GridFunction(domain, tuple(s for _, _, s in lattice), t_steps, values)
