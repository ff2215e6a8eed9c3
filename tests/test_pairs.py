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


def _reevaluate(values, out, kind, exponent, k, h_x, h_t) -> float:
    w = out.witness
    if "base" in w:
        base, off = tuple(w["base"]), tuple(w["steps"]) + (w["time_step"],)
        diff = oracles.kdiff_scalar(values, base, off, k)
        sep = (oracles.plength(off[:-1], off[-1], h_x, h_t) if kind == "kdiff"
               else oracles.euclid(off[:-1], h_x) if kind == "space" else off[-1] * h_t)
        return abs(diff) / sep ** exponent
    a, b = tuple(w["a"]), tuple(w["b"])
    return abs(float(values[a]) - float(values[b])) / w["separation"] ** exponent


def _check(engine, oracle_value, values, kind, exponent, k, h_x, h_t, sampled=False):
    if oracle_value == -math.inf:
        with pytest.raises(ValueError, match="no admissible|two time levels"):
            engine()
        return
    out = engine()
    assert _reevaluate(values, out, kind, exponent, k, h_x, h_t) == out.value
    if sampled:
        assert out.mode == "sampled"
        assert out.value <= oracle_value * (1 + 1e-13)
        assert engine() == out  # the seed alone fixes the outcome
    else:
        assert out.mode == "exhaustive"
        assert out.value == oracle_value


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
       sampled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_pruned_engines_equal_brute_force(grid, k, exponent, sampled):
    values, h_x, h_t = grid
    e = exponent
    # (kind, brute-force value, engines); the dispatchers never sample grids
    # this small, so they agree with the exhaustive engines unless a zero
    # pair limit forces them to sample, which never exceeds the oracle
    cases = [
        ("space", oracles.kdiff_sup_loops(values, h_x, h_t, e, k, False),
         [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "space", k)]
         + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "space")] * (k == 1)),
    ]
    for allow_time in (False, True):
        cases.append(
            ("kdiff", oracles.kdiff_sup_loops(values, h_x, h_t, e, k, allow_time),
             [lambda a=allow_time: pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, e, k, a),
              lambda a=allow_time: pairs.kdiff_quotient_sup(values, h_x, h_t, e, k, a)]))
    if h_t:
        cases.append(
            ("time", oracles.kdiff_time_sup_loops(values, h_t, e, k),
             [lambda: pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, e, "time", k),
              lambda: pairs.kdiff_time_quotient_sup(values, h_x, h_t, e, k)]
             + [lambda: pairs.pair_quotient_sup(values, h_x, h_t, e, "time")] * (k == 1)))
    if k == 1:
        assert cases[0][1] == oracles.holder_space_sup_loops(values, h_x, e)
        if h_t:
            assert cases[-1][1] == oracles.holder_time_sup_loops(values, h_t, e)
    with pytest.MonkeyPatch.context() as mp:
        if sampled:
            mp.setattr(pairs, "PAIR_LIMIT", 0)
        for kind, expect, engines in cases:
            for i, engine in enumerate(engines):
                _check(engine, expect, values, kind, e, k, h_x, h_t, sampled and i > 0)


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


def test_res32_2d_space_pairs_are_exact():
    f = as_grid_callable(parse("sin(2*pi*x1)*sin(2*pi*x2)*exp(-t)", 2))
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), 32, 32, f)
    rep = holder_seminorm_space(u, 0.5, beta=(1, 0))
    assert rep.sampling.mode == "exhaustive"
    # the pruned walk evaluates fewer pairs than the 18.0M admissible ones
    assert rep.pairs_examined < 33 * (33 ** 2 * (33 ** 2 - 1) // 2)


def _certified_pairs(u, l, k) -> int:
    prob = pairs._Problem(u.values, u.h_x, u.h_t, l, k, "kdiff", True)
    seed = max(prob.evaluate(off)[0] for off in prob.nearest_offsets())
    off, _ = prob.certified(seed, None)
    return int(np.prod(np.asarray(u.values.shape) - k * np.abs(off), axis=1).sum())


@pytest.mark.parametrize("source, l, k", [
    (lambda x, t: np.sin(2 * np.pi * x[0]) * np.exp(-t) + 0.3 * np.sin(9 * x[0] + 1.0), 1.5, 2),
    (lambda x, t: np.abs(x[0] - 0.5) ** 0.5 + 0.0 * t, 0.5, 1),
])
def test_large_certified_work_still_samples(source, l, k):
    # the 220-step fixtures of the sampled-mode tests certify 2.97e8 and
    # 1.59e8 pairs, above the limit
    u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 220, 220, source)
    assert _certified_pairs(u, l, k) > pairs.PAIR_LIMIT
    rep = diff_quotient_seminorm(u, l, spec=DiffSeminormSpec(k, 1))
    assert rep.sampling.mode == "sampled"


def test_cusp_res32_joint_term_sampled_near_exact():
    # the joint term of the sup variants on the 2-D cusp: its certified work
    # exceeds the limit, yet the sampled walk must land within 1% of the
    # exact supremum, which it can never exceed
    f = as_grid_callable(parse("((x1-0.5)^2+(x2-0.5)^2)^0.3*exp(-t)", 2))
    u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), 32, 32, f)
    args = (u.values, u.h_x, u.h_t, 0.5, 1, True)
    exact = pairs.kdiff_quotient_sup_exhaustive(*args)
    assert exact.value == pytest.approx(0.965936, abs=1e-6)
    out = pairs.kdiff_quotient_sup(*args)
    assert out.mode == "sampled"
    assert exact.value * 0.99 <= out.value <= exact.value


def test_certified_count_stops_at_the_limit(monkeypatch):
    # a 3+1-D grid whose offset table has 35 chunks: the first chunk already
    # certifies more pairs than the limit, so no further chunk is built
    values = np.random.default_rng(5).uniform(size=(33, 33, 33, 33))
    prob = pairs._Problem(values, (1 / 32,) * 3, 1 / 32, 0.5, 1, "kdiff", True)
    chunks = []
    real = np.unravel_index
    monkeypatch.setattr(pairs.np, "unravel_index", lambda *a: chunks.append(1) or real(*a))
    assert prob.certified(0.0, pairs.PAIR_LIMIT) is None
    assert len(chunks) == 1
