"""Independent brute-force oracles used by the test suite.

Everything here is written with plain Python loops and scalar arithmetic so
that the optimized library paths can be checked against a second, structurally
different implementation.  The elementary quotient arithmetic (same stencil
formulas, same separation formulas, left-to-right coefficient sums) is shared
by definition; what differs is the enumeration and reduction machinery.
"""

from __future__ import annotations

import itertools
import math


def first_derivative_loops(values, axis, h):
    """Second-order stencils applied along one axis of a nested-list array."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    moved = np.moveaxis(arr, axis, 0)
    out = np.empty_like(moved)
    n = moved.shape[0]
    flatrest = moved.reshape(n, -1)
    outrest = out.reshape(n, -1)
    for col in range(flatrest.shape[1]):
        f = [float(v) for v in flatrest[:, col]]
        g = [0.0] * n
        for i in range(1, n - 1):
            g[i] = (f[i + 1] - f[i - 1]) / (2.0 * h)
        g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        g[n - 1] = (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * h)
        for i in range(n):
            outrest[i, col] = g[i]
    return np.moveaxis(out, 0, axis)


def derivative_field_loops(u, beta, l_t):
    arr = u.values
    for axis, order in enumerate(beta):
        for _ in range(order):
            arr = first_derivative_loops(arr, axis, u.h_x[axis])
    for _ in range(l_t):
        arr = first_derivative_loops(arr, u.N, u.h_t)
    return arr


def _first_nonzero_positive(d):
    for v in d:
        if v:
            return v > 0
    return False


def euclid(d, h_x):
    return math.sqrt(sum((di * hi) ** 2 for di, hi in zip(d, h_x)))


def plength(d, j, h_x, h_t):
    return math.sqrt(sum((di * hi) ** 2 for di, hi in zip(d, h_x))) + math.sqrt(abs(j * h_t))


def sup_abs_loops(values) -> float:
    best = -math.inf
    for idx in itertools.product(*(range(n) for n in values.shape)):
        v = abs(float(values[idx]))
        if v > best:
            best = v
    return best


def holder_space_sup_loops(w, h_x, alpha) -> float:
    """Double loop over same-time node pairs (canonical offsets)."""
    n_sp = w.shape[:-1]
    n_t = w.shape[-1]
    best = -math.inf
    nodes = list(itertools.product(*(range(n) for n in n_sp)))
    for ia, a in enumerate(nodes):
        for b in nodes[ia + 1 :]:
            d = tuple(bi - ai for ai, bi in zip(a, b))
            if not _first_nonzero_positive(d):
                a2, b2, d = b, a, tuple(-v for v in d)
            else:
                a2, b2 = a, b
            denom = euclid(d, h_x) ** alpha
            for c in range(n_t):
                q = abs(float(w[b2 + (c,)]) - float(w[a2 + (c,)])) / denom
                if q > best:
                    best = q
    return best


def holder_time_sup_loops(w, h_t, exponent) -> float:
    n_sp = w.shape[:-1]
    n_t = w.shape[-1]
    best = -math.inf
    for x in itertools.product(*(range(n) for n in n_sp)):
        for c in range(n_t):
            for c2 in range(c + 1, n_t):
                denom = ((c2 - c) * h_t) ** exponent
                q = abs(float(w[x + (c2,)]) - float(w[x + (c,)])) / denom
                if q > best:
                    best = q
    return best


def kdiff_scalar(values, base, off, k) -> float | None:
    """Factored binomial difference, same arithmetic as the library."""
    shape = values.shape
    for i in range(k + 1):
        for b, d, n in zip(base, off, shape):
            if not 0 <= b + i * d < n:
                return None
    coeffs = [float((-1) ** (i + 1) * math.comb(k, i)) for i in range(1, k + 1)]
    u0 = float(values[base])
    s = 0.0
    for i in range(1, k + 1):
        s += coeffs[i - 1] * float(values[tuple(b + i * d for b, d in zip(base, off))])
    return (-1.0) ** k * (u0 - s)


def kdiff_argsup_loops(values, h_x, h_t, l, k, kind):
    """Sup of |diff_k| / sep^l over the canonical offsets of ``kind``, and
    its first maximiser (base, d, j) in enumeration order: time offset, then
    spatial offset lexicographically, then base node.

    ``kind`` is "space" (same-time shifts, Euclidean separation), "time"
    (same-place shifts, separation ``j h_t``), or "joint" (space-time shifts,
    parabolic length).
    """
    n_sp = values.shape[:-1]
    n_t = values.shape[-1]
    limits = tuple(0 if kind == "time" else (n - 1) // k for n in n_sp)
    jmax = 0 if kind == "space" else (n_t - 1) // k
    best, arg = -math.inf, None
    for j in range(jmax + 1):
        for d in itertools.product(*(range(-m, m + 1) for m in limits)):
            if j == 0 and not _first_nonzero_positive(d):
                continue
            off = d + (j,)
            sep = (euclid(d, h_x) if kind == "space" else j * h_t if kind == "time"
                   else plength(d, j, h_x, h_t))
            denom = sep ** l
            for base in itertools.product(*(range(n) for n in values.shape)):
                diff = kdiff_scalar(values, base, off, k)
                if diff is None:
                    continue
                q = abs(diff) / denom
                if q > best:
                    best, arg = q, (list(base), list(d), j)
    return best, arg


def kdiff_sup_loops(values, h_x, h_t, l, k, allow_time) -> float:
    """Sup of |diff_k| / plength^l over the canonical shift half-space."""
    return kdiff_argsup_loops(values, h_x, h_t, l, k, "joint" if allow_time else "space")[0]


def kdiff_time_sup_loops(values, h_t, exponent, k) -> float:
    return kdiff_argsup_loops(values, (), h_t, exponent, k, "time")[0]


def trapezoid_lp_loops(values, h_cells, p) -> float:
    """Tensor trapezoid with explicit weight products."""
    total = 0.0
    shape = values.shape
    for idx in itertools.product(*(range(n) for n in shape)):
        w = 1.0
        for i, n in zip(idx, shape):
            if n > 1 and (i == 0 or i == n - 1):
                w *= 0.5
        total += w * abs(float(values[idx])) ** p
    return (math.prod(h_cells) * total) ** (1.0 / p)
