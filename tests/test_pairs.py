import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from holonorm import (
    DiffSeminormSpec,
    Domain,
    diff_quotient_seminorm,
    holder_seminorm_space,
    make_grid_function,
    pairs,
)
from holonorm.expr import as_grid_callable, parse


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
    if "base" in witness:
        return witness["base"], witness["steps"], witness["time_step"]
    off = [a - b for a, b in zip(witness["a"], witness["b"])]
    return witness["b"], off[:-1], off[-1]


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
    else:  # only a zero pair budget leaves grids this small inexact
        assert forced and out.mode == "interval"
        assert out.value <= value <= out.upper
        assert engine() == out  # the same input gives the same outcome


def _assert_bounds_sound(values, h_x, h_t, e, k, kind, allow_time):
    # every computed quotient lies at or below its offset's bound, as the
    # walk compares them, so skipping an offset whose bound is below the
    # running best never changes the result
    prob = pairs._Problem(values, h_x, h_t, e, k, kind, allow_time)
    if prob.nearest_offsets():
        table, bounds = prob.certified(0.0, None)
        assert len(table) == prob.count
        for row, bound in zip(table, bounds):
            assert prob.evaluate(tuple(int(v) for v in row))[0] <= bound


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
       forced=st.booleans())
@settings(max_examples=150, deadline=None)
def test_pruned_engines_equal_brute_force(grid, k, exponent, forced):
    values, h_x, h_t = grid
    e = exponent
    # (kind, problem kind, allow_time, brute-force (value, witness), engines);
    # the dispatchers walk grids this small exactly, unless a zero pair budget
    # forces an interval, which holds the oracle, or is exact again once every
    # admissible offset has been seen
    cases = [
        ("space", "space", False, oracles.kdiff_argsup_loops(values, h_x, h_t, e, k, "space"),
         [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "space", k)]
         + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "space")] * (k == 1)),
    ]
    for allow_time in (False, True):
        cases.append(
            ("joint" if allow_time else "space", "kdiff", allow_time,
             oracles.kdiff_argsup_loops(values, h_x, h_t, e, k,
                                        "joint" if allow_time else "space"),
             [lambda a=allow_time: pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, e, k, a),
              lambda a=allow_time: pairs.kdiff_quotient_sup(values, h_x, h_t, e, k, a)]))
    if h_t:
        cases.append(
            ("time", "time", True, oracles.kdiff_argsup_loops(values, h_x, h_t, e, k, "time"),
             [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "time", k),
              lambda: pairs.kdiff_time_quotient_sup(values, h_x, h_t, e, k)]
             + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "time")] * (k == 1)))
    if k == 1:
        assert cases[0][3][0] == oracles.holder_space_sup_loops(values, h_x, e)
        if h_t:
            assert cases[-1][3][0] == oracles.holder_time_sup_loops(values, h_t, e)
    for _, kind, allow_time, _, _ in cases:
        _assert_bounds_sound(values, h_x, h_t, e, k, kind, allow_time)
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(pairs, "PAIR_LIMIT", 0)
        for kind, _, _, expect, engines in cases:
            for i, engine in enumerate(engines):
                _check(engine, expect, values, kind, e, k, h_x, h_t, forced and i > 0)


@given(grid=grids(), kind=st.sampled_from(["space", "time", "kdiff"]),
       reaches=st.lists(st.integers(0, 8), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_moduli_grown_through_a_store_equal_one_pass(grid, kind, reaches):
    # a store filled by earlier calls, with smaller, larger or equal reaches,
    # gives bit for bit the moduli of a single pass without one
    values, h_x, h_t = grid
    if kind == "time" and not h_t:
        return
    store, tops = {}, [0] * values.ndim
    for r in reaches:
        grown = pairs._Problem(values, h_x, h_t, 0.5, 1, kind, True, store)
        reach = tuple(min(r, m) for m in grown.limits) + (min(r, grown.j_hi),)
        alone = pairs._Problem(values, h_x, h_t, 0.5, 1, kind, True).moduli(reach)
        got = grown.moduli(reach)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]
        tops = [max(t, s) for t, s in zip(tops, reach)]
    # the store holds the separations asked for so far, and no more
    assert {a: len(o) for a, o in store.items()} == {a: t + 1 for a, t in enumerate(tops) if t}


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
        assert (out.value, out.witness["b"], out.witness["a"]) == (expect[0], [0, 1], [1, 1])


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
    prob = pairs._Problem(u.values, u.h_x, u.h_t, l, k, "kdiff", True)
    seed = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
    off, _ = prob.certified(0.0, None)
    off = off[prob.amp / prob.separations(off) ** l >= seed]
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
    real = np.unravel_index
    monkeypatch.setattr(pairs.np, "unravel_index", lambda *a: chunks.append(1) or real(*a))
    # 3+1-D, 17 nodes per axis: a table of 3 chunks, all of whose offsets
    # reach a zero floor; the second chunk passes the row guard
    values = np.random.default_rng(5).uniform(size=(17, 17, 17, 17))
    prob = pairs._Problem(values, (1 / 16,) * 3, 1 / 16, 0.5, 1, "kdiff", True)
    assert prob.certified(0.0, pairs.PAIR_LIMIT) is None
    assert len(chunks) == 2
    # 33 nodes per axis: the moduli would take 1.5e8 pairs
    values = np.random.default_rng(5).uniform(size=(33, 33, 33, 33))
    prob = pairs._Problem(values, (1 / 32,) * 3, 1 / 32, 0.5, 1, "kdiff", True)
    assert prob.certified(0.0, pairs.PAIR_LIMIT) is None
    assert len(chunks) == 2
