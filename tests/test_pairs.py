import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from holonorm import (
    DiffSeminormSpec,
    Domain,
    check,
    diff_quotient_seminorm,
    holder_seminorm_space,
    make_grid_function,
    pairs,
)
from holonorm.expr import as_grid_callable, parse
from test_acceptance import PARABOLIC_VARIANTS, _spec_for, expr_grid
from test_memo import _spy_refinements


def _profile_values(kind: str, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*(np.linspace(0.0, 1.0, n) for n in shape), indexing="ij")
    if kind == "random":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "smooth":  # prunes late: the sup sits at box scale
        return np.sin(2.0 * np.pi * grids[0] + seed) * np.exp(-grids[-1])
    if kind == "cusp":  # prunes early: the sup sits at the nearest neighbours
        return np.abs(grids[0] - 0.5) ** 0.5 + 0.1 * grids[-1]
    if kind == "ties":  # many exactly equal quotients
        return rng.integers(0, 3, shape).astype(float)
    return np.full(shape, 0.25)


def _offset_of(witness) -> tuple[list[int], list[int], int]:
    """(base, spatial steps, time steps) of a supremum's witness."""
    return witness["base"], witness["steps"], witness["time_step"]


def _reevaluate(values, out, kind, exponent, k, h_x, h_t) -> float:
    base, d, j = _offset_of(out.witness)
    diff = oracles.kdiff_scalar(values, tuple(base), tuple(d) + (j,), k)
    sep = (oracles.plength(d, j, h_x, h_t) if kind == "joint"
           else oracles.euclid(d, h_x) if kind == "space" else j * h_t)
    return abs(diff) / sep ** exponent


def _check(engine, oracle, values, kind, exponent, k, h_x, h_t, forced=False):
    value, first = oracle
    if value == -math.inf:
        with pytest.raises(ValueError, match="no admissible|two time levels"):
            engine()
        return
    out = engine()
    assert _reevaluate(values, out, kind, exponent, k, h_x, h_t) == out.value
    if out.mode == "exhaustive":
        assert out.value == value
        assert list(_offset_of(out.witness)) == list(first)
    else:  # only a zero pair budget or a row guard of a few rows leaves grids this small inexact
        assert forced and out.mode == "interval"
        assert out.value <= value <= out.upper
        assert engine() == out  # the same input gives the same outcome


def _slab_quotients(prob, off):
    """(base lows, array of every pair's computed quotient over the base box)
    of one offset, from the oracle."""
    d, j = off[:-1], off[-1]
    denom = pairs.separation(prob.kind, d, j, prob.h_x, prob.h_t) ** prob.exponent
    lows, highs = pairs._base_slices(off, prob.values.shape, prob.k)
    q = np.array([abs(oracles.kdiff_scalar(prob.values, base, off, prob.k)) / denom
                  for base in itertools.product(*map(range, lows, highs))])
    return lows, q.reshape([hi - lo for lo, hi in zip(lows, highs)])


def _assert_bounds_sound(values, h_x, h_t, e, k, kind):
    # every computed quotient lies at or below its offset's bound, as the
    # walk compares them, so skipping an offset whose bound is below the
    # running best never changes the result
    prob = pairs._Problem(values, h_x, h_t, e, k, kind)
    if not prob.nearest_offsets():
        return
    box, bounds, index = prob.certified(0.0, None)
    assert len(bounds) == prob.count
    table = _box_offsets(prob.j_lo, box, index)
    offsets = [tuple(int(v) for v in row) for row in table]
    slabs = [_slab_quotients(prob, off) for off in offsets]
    for off, (_, q), bound in zip(offsets, slabs, bounds):
        assert prob.evaluate(off)[0] == q.max() <= bound
    # windows: at the exact value and at each offset's own max as the floor,
    # every pair outside an offset's window is below the floor, the window
    # decides the whole slab, and a window that may hold the floor gives the
    # offset's quotient and witness
    for floor in {max(q.max() for _, q in slabs)} | {q.max() for _, q in slabs}:
        for off, (base, q), window in zip(offsets, slabs, prob.windows(table, floor)):
            lows, highs, _, n = window
            assert n == q.size
            inside = np.zeros(q.shape, dtype=bool)
            inside[tuple(slice(max(lo - b, 0), max(hi - b, 0))
                         for lo, hi, b in zip(lows, highs, base))] = True
            assert np.all(q[~inside] < floor)
            value, where, n = prob.evaluate(off, window, floor)
            assert n == q.size
            if where is None:
                assert q.max() < floor
            elif q.max() >= floor:
                whole, at = prob.evaluate(off)[:2]
                assert (value, prob.witness(off, where)) == (whole, prob.witness(off, at))


@st.composite
def grids(draw):
    n = draw(st.integers(1, 2))
    steps = tuple(draw(st.integers(1, 7 if n == 1 else 4)) for _ in range(n))
    t_steps = draw(st.integers(0, 6 if n == 1 else 3))
    kind = draw(st.sampled_from(["random", "smooth", "cusp", "ties", "constant"]))
    shape = tuple(s + 1 for s in steps) + (t_steps + 1,)
    values = _profile_values(kind, shape, draw(st.integers(0, 2**16)))
    h_x = tuple(draw(st.sampled_from([0.5, 1.0, 1.5])) / s for s in steps)
    h_t = 1.0 / t_steps if t_steps else 0.0
    return values, h_x, h_t


@given(grid=grids(), k=st.integers(1, 3), exponent=st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.5]),
       forced=st.booleans(), table_rows=st.sampled_from([4, 32, pairs._TABLE_ROWS]))
@settings(max_examples=150, deadline=None)
def test_pruned_engines_equal_brute_force(grid, k, exponent, forced, table_rows):
    values, h_x, h_t = grid
    e = exponent
    # (kind, brute-force (value, witness), engines);
    # the dispatchers walk grids this small exactly, unless a zero pair budget
    # forces an interval, which holds the oracle, or is exact again once every
    # admissible offset has been seen
    cases = [
        ("space", oracles.kdiff_argsup_loops(values, h_x, h_t, e, k, "space"),
         [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "space", k)]
         + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "space")] * (k == 1)),
    ]
    for allow_time in (False, True):
        cases.append(
            ("joint" if allow_time else "space",
             oracles.kdiff_argsup_loops(values, h_x, h_t, e, k,
                                        "joint" if allow_time else "space"),
             [lambda a=allow_time: pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, e, k, a),
              lambda a=allow_time: pairs.kdiff_quotient_sup(values, h_x, h_t, e, k, a)]))
    if h_t:
        cases.append(
            ("time", oracles.kdiff_argsup_loops(values, h_x, h_t, e, k, "time"),
             [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "time", k),
              lambda: pairs.kdiff_time_quotient_sup(values, h_x, h_t, e, k)]
             + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "time")] * (k == 1)))
    if k == 1:
        assert cases[0][1][0] == oracles.holder_space_sup_loops(values, h_x, e)
        if h_t:
            assert cases[-1][1][0] == oracles.holder_time_sup_loops(values, h_t, e)
    for kind, _, _ in cases:
        _assert_bounds_sound(values, h_x, h_t, e, k, kind)
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(pairs, "PAIR_LIMIT", 0)
        for kind, expect, engines in cases:
            for i, engine in enumerate(engines):
                _check(engine, expect, values, kind, e, k, h_x, h_t, forced and i > 0)
        # a row guard of a few rows may refuse a dispatcher its table, which
        # gives an interval that holds the oracle
        guarded = forced or table_rows < pairs._TABLE_ROWS
        mp.setattr(pairs, "_TABLE_ROWS", table_rows)
        for kind, expect, engines in cases:
            for i, engine in enumerate(engines):
                _check(engine, expect, values, kind, e, k, h_x, h_t, guarded and i > 0)


@given(grid=grids(), kind=st.sampled_from(["space", "time", "joint"]),
       reaches=st.lists(st.integers(0, 8), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_moduli_grown_through_a_store_equal_one_pass(grid, kind, reaches):
    # a store filled by earlier calls, with smaller, larger or equal reaches,
    # gives bit for bit the moduli of a single pass without one, along every
    # direction the table reads
    values, h_x, h_t = grid
    if kind == "time" and not h_t:
        return
    store, tops = {}, {}
    for r in reaches:
        grown = pairs._Problem(values, h_x, h_t, 0.5, 1, kind, store)
        alone = pairs._Problem(values, h_x, h_t, 0.5, 1, kind)
        reach = grown.reaches(tuple(min(r, m) for m in grown.limits), min(r, grown.j_hi))
        for prob in (alone, grown):
            for direction, top in reach:
                prob.refine(direction, top)
        for direction, top in reach:
            assert (grown.store[direction][:top + 1].tobytes()
                    == alone.store[direction][:top + 1].tobytes())
            tops[direction] = max(tops.get(direction, 0), top)
    # the store holds the exact moduli of the lags up to the largest reach
    # so far, and no other lag is finite
    assert sorted(store) == sorted(tops)
    assert {d for d in store if sum(map(abs, d)) == 1} == {
        tuple(int(i == a) for i in range(values.ndim)) for a in range(values.ndim)}
    for direction, omega in store.items():
        assert np.isfinite(omega).tolist() == [s <= tops[direction] for s in range(len(omega))]
        for s in range(1, tops[direction] + 1):
            assert omega[s] == _modulus(values, direction, s)


def _modulus(values, direction, s) -> float:
    """max |w(y + s v) - w(y)| over the nodes y whose both ends are nodes,
    node by node."""
    out = 0.0
    for y in itertools.product(*map(range, values.shape)):
        z = tuple(i + s * c for i, c in zip(y, direction))
        if all(0 <= i < n for i, n in zip(z, values.shape)):
            out = max(out, abs(float(values[z]) - float(values[y])))
    return out


def _box_offsets(j_lo, box, flat) -> np.ndarray:
    """Offset rows ``(d, j)`` at flat indices into the table's box."""
    idx = np.unravel_index(flat, box)
    return np.stack([i - m // 2 for i, m in zip(idx[1:], box[1:])] + [idx[0] + j_lo], axis=1)


@given(n=st.integers(1, 3), kind=st.sampled_from(["space", "time", "joint"]), k=st.integers(1, 2),
       exponent=st.sampled_from([0.1, 0.5, 0.9, 1.5, 2.0]),
       scale=st.sampled_from([1e-10, 1.0, 1e10]), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_box_bounds_of_a_slab_equal_those_of_its_rows(n, kind, k, exponent, scale, seed):
    # the table's bounds, broadcast from one vector per axis over a slab of
    # leading rows, are the floats of one row at a time, every axis leading
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(2, 7 if n < 3 else 5, n + 1))
    values = rng.uniform(-1.0, 1.0, shape) * scale
    h_x = tuple(float(rng.choice([0.1, 1 / 3, 0.7])) / (s - 1) for s in shape[:-1])
    prob = pairs._Problem(values, h_x, 1 / (shape[-1] - 1), exponent, k, kind)
    if prob.j_hi < prob.j_lo:
        return
    for direction, top in prob.reaches(prob.limits, prob.j_hi):
        prob.refine(direction, top)
    box = (prob.j_hi - prob.j_lo + 1,) + tuple(2 * m + 1 for m in prob.limits)
    for lead in range(1, len(box)):
        rows = math.prod(box[:lead])
        picked = np.sort(rng.choice(rows, int(rng.integers(1, rows + 1)), replace=False))
        bound = prob.box_bounds(box, lead, picked)
        assert bound.shape == (len(picked),) + box[lead:]
        inner = math.prod(box[lead:])
        flat = (picked[:, None] * inner + np.arange(inner)).reshape(-1)
        # the zero offset has no separation
        nonzero = _box_offsets(prob.j_lo, box, flat).any(axis=1)
        row = prob.box_bounds(box, len(box), flat[nonzero])
        assert row.shape == (int(nonzero.sum()),)
        assert bound.reshape(-1)[nonzero].tobytes() == row.tobytes()


@given(n=st.integers(2, 3), kind=st.sampled_from(["space", "time", "joint"]), k=st.integers(1, 3),
       exponent=st.sampled_from([0.1, 0.5, 0.9, 1.5, 2.0]),
       scale=st.sampled_from([1e-10, 1e-5, 1.0, 1e5, 1e10]), smooth=st.booleans(),
       seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_box_bounds_hold_every_slab(n, kind, k, exponent, scale, smooth, seed):
    # on 2-D and 3-D grids, where the diagonal paths take part, every
    # canonical offset's largest quotient, its whole slab evaluated over the
    # scalar sep^e, is at most its bound, whether a slab or a row bounds it.
    # A smooth wave along a random direction makes the diagonal paths the
    # smaller of the sums for many offsets
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(2, 8 if n == 2 else 5, n + 1))
    if smooth:
        grids = np.meshgrid(*(np.linspace(0.0, 1.0, s) for s in shape), indexing="ij")
        values = np.sin(sum(c * g for c, g in zip(rng.uniform(-4.0, 4.0, n + 1), grids)) + seed)
    else:
        values = rng.uniform(-1.0, 1.0, shape)
    values = values * scale
    h_x = tuple(float(rng.choice([0.1, 1 / 3, 0.7])) / (s - 1) for s in shape[:-1])
    prob = pairs._Problem(values, h_x, 1 / (shape[-1] - 1), exponent, k, kind)
    if not prob.nearest_offsets():
        return
    for direction, top in prob.reaches(prob.limits, prob.j_hi):
        prob.refine(direction, top)
    box = (prob.j_hi - prob.j_lo + 1,) + tuple(2 * m + 1 for m in prob.limits)
    first = (math.prod(box[1:]) + 1) // 2 if prob.j_lo == 0 else 0
    index = np.arange(first, math.prod(box))  # the canonical offsets, in enumeration order
    quotients = np.array([prob.evaluate(tuple(off))[0]
                          for off in _box_offsets(prob.j_lo, box, index).tolist()])
    assert np.all(quotients <= prob.box_bounds(box, len(box), index))
    for lead in range(1, len(box)):
        slab = prob.box_bounds(box, lead, np.arange(math.prod(box[:lead])))
        assert np.all(quotients <= slab.reshape(-1)[first:])


@given(grid=grids(), kind=st.sampled_from(["space", "time", "joint"]), k=st.integers(1, 3),
       exponent=st.sampled_from([0.1, 0.5, 0.9, 1.5]),
       table_rows=st.sampled_from([4, 32, pairs._TABLE_ROWS]), floor=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_table_sorts_like_a_full_stable_sort(grid, kind, k, exponent, table_rows, floor):
    # at a floor drawn from the bounds themselves (exact ties), the table
    # holds every canonical offset whose bound, computed one row at a time,
    # reaches the floor, sorted by that bound, descending, ties in
    # enumeration order.  The ties profile and the mirrored offsets (d, j)
    # and (-d, j) of joint boxes tie many bounds exactly
    values, h_x, h_t = grid
    prob = pairs._Problem(values, h_x, h_t, exponent, k, kind)
    if not prob.nearest_offsets():
        return
    box = (prob.j_hi - prob.j_lo + 1,) + tuple(2 * m + 1 for m in prob.limits)
    first = (math.prod(box[1:]) + 1) // 2 if prob.j_lo == 0 else 0
    index = np.arange(first, math.prod(box))  # the canonical offsets, in enumeration order
    exact = pairs._Problem(values, h_x, h_t, exponent, k, kind)
    for direction, top in exact.reaches(prob.limits, prob.j_hi):
        exact.refine(direction, top)
    bounds = exact.box_bounds(box, len(box), index)
    floor = float(np.sort(bounds)[int(floor * (len(bounds) - 1))])
    order = np.lexsort((index, -bounds))
    order = order[bounds[order] >= floor]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairs, "_TABLE_ROWS", table_rows)
        kept, got, at = prob.certified(floor, None)
    # the floor's radius may shrink the box; the offsets are the same
    assert got.tobytes() == bounds[order].tobytes()
    assert (_box_offsets(prob.j_lo, kept, at).tobytes()
            == _box_offsets(prob.j_lo, box, index[order]).tobytes())


@pytest.mark.parametrize("profile", ["random", "smooth", "cusp", "ties", "constant"])
@pytest.mark.parametrize("kind, k", [("space", 1), ("time", 2), ("joint", 1), ("joint", 2)])
def test_windows_are_sound(profile, kind, k):
    for shape, h_x in (((9, 6), (1 / 8,)), ((5, 4, 4), (1 / 4, 1 / 3))):
        _assert_bounds_sound(_profile_values(profile, shape, 7), h_x, 1 / (shape[-1] - 1), 0.5,
                             k, kind)


# SupOutcomes recorded before slabs were cut to windows, and on 1-D grids
# (res 256) before the moduli past lag 16 of long axes were, for a time,
# block bounds refined before the walk read a row; the 2-D cusp and the 1-D
# smooth joint terms of
# order 1 also before the table was sorted lazily: value, witness, the pairs
# decided, the mode and the upper end all stay as they were.  The 2-D terms
# decide fewer pairs since the table's bounds take diagonal paths; the
# staircase alone decided, in order: 202266, 4913, 206890, 145435, 11817036,
# 35937, 45456548 and 164703
_SMOOTH = "sin(2*pi*x1)*sin(2*pi*x2)*exp(-t)"
_CUSP = "((x1-0.5)^2+(x2-0.5)^2)^0.3*exp(-t)"
_SMOOTH_1D = "sin(2*pi*x1)*exp(-t)"
_CUSP_1D = "abs(x1-0.5)^0.6*exp(-t)"
_PINNED = [
    (_SMOOTH, 16, "space", 0.5, 1, 3.017377917938286, ([4, 5, 0], [0, 6], 0, 0.375), 74562),
    (_SMOOTH, 16, "time", 0.5, 1, 0.6321205588285577, ([4, 4, 0], [0, 0], 16, 1.0), 4913),
    (_SMOOTH, 16, "joint", 0.5, 1, 3.017377917938286, ([4, 5, 0], [0, 6], 0, 0.375), 79186),
    (_SMOOTH, 16, "joint", 1.5, 2, 16.0, ([4, 8, 0], [0, 4], 0, 0.25), 126599),
    (_CUSP, 32, "space", 0.5, 1, 0.9659363289248454,
     ([0, 32, 0], [16, -16], 0, 0.7071067811865476), 11179806),
    (_CUSP, 32, "time", 0.5, 1, 0.5134414386945387, ([0, 0, 0], [0, 0], 32, 1.0), 35937),
    (_CUSP, 32, "joint", 0.5, 1, 0.9659363289248454,
     ([0, 32, 0], [16, -16], 0, 0.7071067811865476), 27375014),
    (_CUSP, 32, "joint", 1.5, 2, 45.25483399593904, ([16, 15, 0], [0, 1], 0, 0.03125), 101277),
    (_SMOOTH_1D, 256, "time", 0.25, 1, 0.6321205588285577, ([64, 0], [0], 256, 1.0), 66049),
    (_CUSP_1D, 256, "space", 0.35, 1, 0.8408964152537145, ([0, 0], [128], 0, 0.5), 98945),
    (_SMOOTH_1D, 256, "joint", 1.5, 2, 16.01100256519838, ([0, 0], [65], 0, 0.25390625),
     9034005),
    (_SMOOTH_1D, 256, "joint", 0.5, 1, 3.017393169822984, ([81, 0], [94], 0, 0.3671875),
     173475),
]


def _pinned_outcome(source, res, kind, e, k):
    n = 2 if "x2" in source else 1
    u = make_grid_function(Domain((0.0,) * n, (1.0,) * n, 1.0), res, res,
                           as_grid_callable(parse(source, n)))
    if kind == "joint":
        return pairs.kdiff_quotient_sup(u.values, u.h_x, u.h_t, e, k, True)
    return pairs.pair_quotient_sup(u.values, u.h_x, u.h_t, e, kind)


def _witness(base, steps, time_step, separation, order):
    return {"base": base, "steps": steps, "time_step": time_step, "order": order,
            "separation": separation}


@pytest.mark.parametrize("source, res, kind, e, k, value, witness, examined", _PINNED)
def test_outcomes_are_pinned(source, res, kind, e, k, value, witness, examined):
    assert _pinned_outcome(source, res, kind, e, k) == pairs.SupOutcome(
        value, _witness(*witness, k), examined, "exhaustive")


def test_interval_outcome_is_pinned(monkeypatch):
    # 1038437 pairs decided before the diagonal paths, with the same upper end
    monkeypatch.setattr(pairs, "PAIR_LIMIT", 1_000_000)
    assert _pinned_outcome(_CUSP, 32, "joint", 0.5, 1) == pairs.SupOutcome(
        0.9659363289248454, _witness([0, 32, 0], [16, -16], 0, 0.7071067811865476, 1),
        718171, "interval", 4.594793419988157)


# lags whose exact modulus each 1-D res-256 term of _PINNED computes on a
# fresh store: the work no outcome shows.  Every lag out to the seed's radius
# took 256, 256, 256 and 512; the floor raised by the moduli's own quotients
# cuts the space and the order-1 joint terms.  The time term keeps 256: its
# supremum lies at the last lag.  While the moduli past lag 16 started from
# block bounds that the table refined for the rows it sorted: 66, 114, 117
# and 128.
@pytest.mark.parametrize("source, kind, e, k, lags", [
    (_SMOOTH_1D, "time", 0.25, 1, 256),
    (_CUSP_1D, "space", 0.35, 1, 129),
    (_SMOOTH_1D, "joint", 1.5, 2, 256),
    (_SMOOTH_1D, "joint", 0.5, 1, 163),
])
def test_modulus_work_is_pinned(monkeypatch, source, kind, e, k, lags):
    fresh, again = _spy_refinements(monkeypatch)
    _pinned_outcome(source, 256, kind, e, k)
    assert (len(fresh), again) == (lags, [])


def test_modulus_work_of_the_1d_smooth_grid_is_pinned(monkeypatch):
    # the five parabolic variants of the benchmark's 1-D smooth grid at res
    # 256, sharing the grid's stores as a check of all five does: every lag
    # out to the seed's radius took 1,024 lags; a change that widens the
    # moduli's reach shows here
    fresh, again = _spy_refinements(monkeypatch)
    u = expr_grid("sin(2*pi*x1)*exp(-t)", 1, 256, 256, 1.0)
    for variant in PARABOLIC_VARIANTS:
        check(_spec_for(variant, 1, 0.5, 0.75, 1.5), u)
    assert (len(fresh), again) == (753, [])


def _certify(prob, floor, limit=None):
    """``prob.certified(floor, limit)``, the floor at which its table kept
    rows (``None`` without a table), and the (quotient, offset) of the
    largest quotient of each batch of moduli read for a raise."""
    kept, raises = [], []
    table_of, best_of = pairs._Problem._table, pairs._Problem._batch_best
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairs._Problem, "_table",
                   lambda self, f, *a: kept.append(f) or table_of(self, f, *a))
        mp.setattr(pairs._Problem, "_batch_best",
                   lambda self, *a: raises.append(best_of(self, *a)) or raises[-1])
        table = prob.certified(floor, limit)
    return table, (kept or [None])[0], raises


def _assert_raises_are_quotients(prob, seed, floor, raises):
    # each batch's quotient is, bit for bit, the one the walk gets at its
    # offset, an admissible one; the floor is the largest of them and the seed
    box = prob.limits + (prob.j_hi,)
    for q, off in raises:
        assert all(abs(c) <= m for c, m in zip(off, box)) and off[-1] >= prob.j_lo
        assert q == prob.evaluate(off)[0]
    assert floor == max([seed] + [q for q, _ in raises])
    if prob.k >= 2:
        assert raises == [] and floor == seed


@given(n=st.integers(1, 3), kind=st.sampled_from(["space", "time", "joint"]), k=st.integers(1, 3),
       exponent=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.5]),
       scale=st.sampled_from([1e-10, 1e-5, 1.0, 1e5, 1e10]), smooth=st.booleans(),
       extra=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_raised_floor_is_sound(n, kind, k, exponent, scale, smooth, extra, seed):
    # one axis that the kind moves along is long enough for more than one
    # batch of moduli; the floor certified ends with is a quotient of the
    # problem, at most its supremum, and the walk from it is exact
    rng = np.random.default_rng(seed)
    axis = n if kind == "time" else int(rng.integers(0, n + (kind == "joint")))
    shape = [2] * n + [2 if kind == "time" or n < 3 else 1]
    shape[axis] = k * (pairs._BATCH + extra) + 1
    if smooth:
        grids = np.meshgrid(*(np.linspace(0.0, 1.0, s) for s in shape), indexing="ij")
        values = np.sin(sum(c * g for c, g in zip(rng.uniform(-6.0, 6.0, n + 1), grids)) + seed)
    else:
        values = rng.uniform(-1.0, 1.0, shape)
    values = values * scale
    h_x = tuple(float(rng.choice([0.1, 1 / 3, 0.7])) / (s - 1) for s in shape[:-1])
    h_t = 1.0 / (shape[-1] - 1) if shape[-1] > 1 else 0.0
    prob = pairs._Problem(values, h_x, h_t, exponent, k, kind)
    start = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
    _, floor, raises = _certify(prob, start)
    _assert_raises_are_quotients(prob, start, floor, raises)
    value, first = oracles.kdiff_argsup_loops(values, h_x, h_t, exponent, k, kind)
    assert floor <= value
    out = pairs._sup(pairs._Problem(values, h_x, h_t, exponent, k, kind), pairs.PAIR_LIMIT)
    assert (out.mode, out.value, list(_offset_of(out.witness))) == ("exhaustive", value,
                                                                    list(first))


@pytest.mark.parametrize("kind", ["space", "joint"])
@pytest.mark.parametrize("source", ["sin(x1-2*x2)*exp(-t)", "(x1-x2)^3+0.3*x2"])
def test_diagonal_raises_are_quotients(kind, source):
    # on a 2-D grid whose values change slowly along the axes, the floor the
    # axes raise leaves both spatial axes longer than a batch, and the
    # diagonals' moduli raise it too; their quotients are the walk's as well
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), 64, 2,
                           as_grid_callable(parse(source, 2)))
    prob = pairs._Problem(u.values, u.h_x, u.h_t, 0.5, 1, kind)
    start = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
    _, floor, raises = _certify(prob, start)
    _assert_raises_are_quotients(prob, start, floor, raises)
    assert any(0 not in off[:2] for _, off in raises)
    exact = pairs.kdiff_quotient_sup_exhaustive(u.values, u.h_x, u.h_t, 0.5, 1, kind == "joint")
    assert start < floor <= exact.value


@pytest.mark.parametrize("kind, shape", [
    ("space", (513, 2)), ("time", (2, 513)), ("joint", (513, 2)), ("joint", (2, 513))])
def test_batch_best_is_the_walks_quotient(kind, shape):
    # every batch of 32 lags along the long axis: the quotient that raises
    # the floor is the scalar one that evaluate returns at its offset, not
    # the vectorised one (np.power and ** differ in about 5% of these
    # separations at these exponents), and the largest of the batch's
    # quotients up to that rounding
    values = np.random.default_rng(7).uniform(-1.0, 1.0, shape)
    direction = (1, 0) if shape[0] > 2 else (0, 1)
    for e in (0.1, 0.35, 0.75, 1.5):
        prob = pairs._Problem(values, (0.7 / (shape[0] - 1),), 1.0 / (shape[1] - 1), e, 1, kind)
        prob.refine(direction, 512)
        quotients = [None] + [prob.evaluate((s * direction[0], s * direction[1]))[0]
                              for s in range(1, 513)]
        for s in range(pairs._BATCH, 513):
            q, off = prob._batch_best(direction, s)
            assert q == quotients[sum(off)]
            assert q >= max(quotients[s - pairs._BATCH + 1:s + 1]) * (1.0 - 4 * np.finfo(float).eps)


@pytest.mark.parametrize("source, n, res, target, other", [
    # an order-1 joint term after a time term, a space term after a joint
    # one, a time term after a joint one, and a 2-D space term after a joint
    # one, with the diagonals; each other term reaches lags the first does not
    (_SMOOTH_1D, 1, 128, ("joint", 0.5), ("time", 0.1)),
    (_CUSP_1D, 1, 128, ("space", 0.35), ("joint", 0.9)),
    (_SMOOTH_1D, 1, 128, ("time", 0.25), ("joint", 0.75)),
    (_SMOOTH, 2, 40, ("space", 0.5), ("joint", 0.25)),
])
def test_floor_does_not_depend_on_the_store(source, n, res, target, other):
    # certified on a fresh store, and on one that another supremum of the
    # same field grew first, keeps the same rows at the same floor; so does
    # the row guard, set to the rows kept and to one fewer
    u = make_grid_function(Domain((0.0,) * n, (1.0,) * n, 1.0), res, res,
                           as_grid_callable(parse(source, n)))

    def table(store, kind, e, limit=None):
        prob = pairs._Problem(u.values, u.h_x, u.h_t, e, 1, kind, store)
        start = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
        return _certify(prob, start, limit) + (start,)

    store, fresh = {}, {}
    table(store, *other)
    grown = table(store, *target)
    alone = table(fresh, *target)
    assert grown[1:] == alone[1:]
    assert alone[1] > alone[3]  # the floor was raised
    # the other supremum computed lags that the target alone does not read
    assert any(np.isfinite(store[v]).sum() > np.isfinite(fresh[v]).sum() for v in fresh)
    box = alone[0][0]
    for out in (grown[0], alone[0]):
        assert out[0] == box
        for got, want in zip(out[1:], alone[0][1:]):
            assert got.tobytes() == want.tobytes()
    rows = len(alone[0][1])
    for guard in (rows, rows - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pairs, "_TABLE_ROWS", guard)
            decided = [table(s, *target, pairs.PAIR_LIMIT)[0] is None for s in (store, {})]
        assert decided == [guard < rows] * 2


def test_ties_go_to_first_offset_in_enumeration_order():
    # Integer values and equal spacings make many quotients equal, also
    # across offsets of equal separation.  The witness is the first maximal
    # (time offset, spatial offset, base node) in enumeration order, whatever
    # order the pruned walk visits offsets in.
    values = np.random.default_rng(3).integers(0, 2, (7, 7, 5)).astype(float)
    h_x, h_t = (1.0 / 6, 1.0 / 6), 1.0 / 4
    for k, l in ((1, 0.5), (2, 1.5)):
        out = pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, l, k, True)
        first = None
        limits = tuple((n - 1) // k for n in values.shape[:-1])
        for j in range((values.shape[-1] - 1) // k + 1):
            for d in itertools.product(*(range(-m, m + 1) for m in limits)):
                if j == 0 and not oracles._first_nonzero_positive(d):
                    continue
                denom = oracles.plength(d, j, h_x, h_t) ** l
                for base in itertools.product(*(range(n) for n in values.shape)):
                    diff = oracles.kdiff_scalar(values, base, d + (j,), k)
                    if diff is not None and abs(diff) / denom == out.value and first is None:
                        first = (list(base), list(d), j)
        assert first == (out.witness["base"], out.witness["steps"], out.witness["time_step"])


def test_ties_made_by_rounding_go_to_first_base():
    # |w(1) - w(0)| is one ulp below |w(3) - w(2)|, and dividing by
    # 0.5^0.9 rounds both to the same quotient: the witness is base 0
    values = _profile_values("cusp", (4, 3), 0)
    near, far = abs(values[1, 1] - values[0, 1]), abs(values[3, 1] - values[2, 1])
    assert near < far and near / 0.5 ** 0.9 == far / 0.5 ** 0.9
    expect = oracles.kdiff_argsup_loops(values, (0.5,), 0.5, 0.9, 1, "space")
    assert expect[1] == ([0, 1], [1], 0)
    for out in (pairs.pair_quotient_sup_exhaustive(values, (0.5,), 0.5, 0.9, "space", 1),
                pairs.pair_quotient_sup(values, (0.5,), 0.5, 0.9, "space")):
        assert (out.value, *_offset_of(out.witness)) == (expect[0], [0, 1], [1], 0)


def test_res32_2d_space_pairs_are_exact():
    f = as_grid_callable(parse("sin(2*pi*x1)*sin(2*pi*x2)*exp(-t)", 2))
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), 32, 32, f)
    rep = holder_seminorm_space(u, 0.5, beta=(1, 0))
    assert rep.sampling.mode == "exhaustive"
    # the pruned walk evaluates fewer pairs than the 18.0M admissible ones
    assert rep.pairs_examined < 33 * (33 ** 2 * (33 ** 2 - 1) // 2)


def _global_bound_pairs(u, l, k) -> int:
    """Pairs in the offsets whose global bound ``amp / sep^l`` reaches the
    nearest-neighbour seed: the work the engine certified before it had
    per-offset bounds."""
    prob = pairs._Problem(u.values, u.h_x, u.h_t, l, k, "joint")
    seed = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
    box = (prob.j_hi - prob.j_lo + 1,) + tuple(2 * m + 1 for m in prob.limits)
    first = (math.prod(box[1:]) + 1) // 2 if prob.j_lo == 0 else 0
    off = _box_offsets(prob.j_lo, box, np.arange(first, math.prod(box)))
    off = off[prob.amp / prob.denominators(off[:, :-1].T, off[:, -1]) >= seed]
    return int(np.prod(np.asarray(u.values.shape) - k * np.abs(off), axis=1).sum())


@pytest.mark.parametrize("source, l, k", [
    (lambda x, t: np.sin(2 * np.pi * x[0]) * np.exp(-t) + 0.3 * np.sin(9 * x[0] + 1.0), 1.5, 2),
    (lambda x, t: np.abs(x[0] - 0.5) ** 0.5 + 0.0 * t, 0.5, 1),
])
def test_large_certified_work_cut_short_is_an_interval(source, l, k, monkeypatch):
    # the 220-step fixtures of the interval-mode tests: under the global
    # bound alone they certify 2.97e8 and 1.59e8 pairs, above the budget, yet
    # the per-offset bounds walk them exactly; cut the budget and they report
    # an interval that holds the exact value
    u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 220, 220, source)
    assert _global_bound_pairs(u, l, k) > pairs.PAIR_LIMIT
    spec = DiffSeminormSpec(k, 1)
    exact = diff_quotient_seminorm(u, l, spec=spec)
    assert exact.sampling.mode == "exhaustive"
    assert exact.value == pairs.kdiff_quotient_sup_exhaustive(
        u.values, u.h_x, u.h_t, l, k, True).value
    monkeypatch.setattr(pairs, "PAIR_LIMIT", 1)
    # a fresh grid with the same values: u's memo holds the exact report
    rep = diff_quotient_seminorm(u.with_values(u.values), l, spec=spec)
    assert rep.sampling.mode == "interval"
    assert rep.value <= exact.value <= rep.sampling.upper


def _cusp_res32_joint_args():
    # the joint term of the sup variants on the 2-D cusp
    f = as_grid_callable(parse("((x1-0.5)^2+(x2-0.5)^2)^0.3*exp(-t)", 2))
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), 32, 32, f)
    return u.values, u.h_x, u.h_t, 0.5, 1, True


def test_cusp_res32_joint_term_is_exact():
    # the global bound certified 4.9e8 pairs here, so this term was sampled;
    # the bound-first walk settles it within the pair budget
    args = _cusp_res32_joint_args()
    exact = pairs.kdiff_quotient_sup_exhaustive(*args)
    assert exact.value == pytest.approx(0.965936, abs=1e-6)
    out = pairs.kdiff_quotient_sup(*args)
    assert out.mode == "exhaustive"
    assert (out.value, out.witness) == (exact.value, exact.witness)
    assert out.examined <= pairs.PAIR_LIMIT


def test_cusp_res32_joint_term_peak_memory():
    # the table keeps a bound and a flat index per row, 16 bytes, and
    # unravels only the rows the walk reads into offsets; enumerating,
    # filtering and sorting the offsets of the whole box traced 11.0 MB here
    args = _cusp_res32_joint_args()
    tracemalloc.start()
    try:
        out = pairs.kdiff_quotient_sup(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.mode == "exhaustive"
    assert peak < 8_000_000


def test_a_slab_of_the_table_holds_two_arrays_of_its_size():
    # a 2-D space box of 511 x 511 offsets is one slab, all of it the plane
    # of the one pair of axes; building its diagonal part beside the two
    # arrays, with an index array as large, traced 5.0 slabs here
    x = np.linspace(0.0, 1.0, 256)
    values = (np.sin(3 * x)[:, None] * np.sin(2 * x)[None, :])[:, :, None]
    prob = pairs._Problem(values, (1 / 255,) * 2, 0.0, 0.5, 1, "space")
    for direction, top in prob.reaches(prob.limits, prob.j_hi):
        prob.refine(direction, top)
    box = (1,) + tuple(2 * m + 1 for m in prob.limits)
    prob.scratch = None
    tracemalloc.start()
    try:
        bound = prob.box_bounds(box, 1, np.arange(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound.shape == (1, 511, 511)
    assert peak < 2.5 * bound.nbytes


def test_walk_past_the_budget_reports_an_interval(monkeypatch):
    # a budget that cuts the exact walk short gives an interval whose upper
    # end is the bound at the cut, tighter than the global bound that a call
    # with no table reports; both hold the exact value
    args = _cusp_res32_joint_args()
    exact = pairs.kdiff_quotient_sup(*args)
    monkeypatch.setattr(pairs, "PAIR_LIMIT", 1)
    no_table = pairs.kdiff_quotient_sup(*args)
    monkeypatch.setattr(pairs, "PAIR_LIMIT", 10_000_000)
    cut = pairs.kdiff_quotient_sup(*args)
    assert no_table.mode == cut.mode == "interval"
    assert cut.examined >= pairs.PAIR_LIMIT
    for out in (no_table, cut):
        assert out.value <= exact.value <= out.upper
    assert cut.upper < no_table.upper
    assert pairs.kdiff_quotient_sup(*args) == cut


def _criterion_7_cusp_joint_args(steps):
    # the joint term of criterion 7's 2-D cusp (variants 2.3.1 and 2.3.3)
    f = as_grid_callable(parse("sqrt((x1-0.5)*(x1-0.5)+(x2-0.5)*(x2-0.5))^0.6*exp(-t)", 2))
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), steps, steps, f)
    return u.values, u.h_x, u.h_t, 0.5, 1, True


def test_criterion_7_cusp_res64_joint_term_is_an_interval():
    # its moduli alone would cost more than the budget, so there is no
    # table; the coarsened grid gives the res-32 value as the floor, and the
    # upper end holds the exhaustive res-64 value, a literal because it takes
    # 2.68e9 pairs (about 10 s)
    out = pairs.kdiff_quotient_sup(*_criterion_7_cusp_joint_args(64))
    assert out.mode == "interval"
    assert out.value == pairs.kdiff_quotient_sup_exhaustive(
        *_criterion_7_cusp_joint_args(32)).value
    assert out.upper >= 0.9659363289248455


def test_table_guards_stop_before_building_much(monkeypatch):
    # with a pair budget, the table gives up (None) once more than
    # _TABLE_ROWS offsets are kept, or at once when the moduli alone would
    # cost more than the budget
    chunks = []
    real = pairs._Problem.box_bounds
    monkeypatch.setattr(pairs._Problem, "box_bounds",
                        lambda self, *a: chunks.append(1) or real(self, *a))
    # 3+1-D, 17 nodes per axis: a time plane of the box holds 33^3 offsets,
    # so the table is 3 slabs of at most 7 planes, all of whose offsets reach
    # a zero floor; the second slab passes the row guard
    values = np.random.default_rng(5).uniform(size=(17, 17, 17, 17))
    prob = pairs._Problem(values, (1 / 16,) * 3, 1 / 16, 0.5, 1, "joint")
    assert prob.certified(0.0, pairs.PAIR_LIMIT) is None
    assert len(chunks) == 2
    # 33 nodes per axis: the moduli would take 1.5e8 pairs
    values = np.random.default_rng(5).uniform(size=(33, 33, 33, 33))
    prob = pairs._Problem(values, (1 / 32,) * 3, 1 / 32, 0.5, 1, "joint")
    assert prob.certified(0.0, pairs.PAIR_LIMIT) is None
    assert len(chunks) == 2
