"""The per-grid memo of norms and suprema.

Every norm computed on a grid is kept in that grid's memo, and the suprema of
one derivative field share its moduli store.  None of this may show in a
report: the same check gives the same report on a shared grid as on a fresh
one, reports never alias each other, and derived grids start empty.
"""

import math

import numpy as np
import pytest

from holonorm import (
    DiffSeminormSpec,
    check,
    coarsen,
    diff_quotient_seminorm,
    holder_norm,
    holder_seminorm_space,
    holder_seminorm_time,
    lp_norm,
    pairs,
    parabolic_dilate,
    sup_t_lp_norm,
)
from test_acceptance import ELLIPTIC_VARIANTS, FIXTURES, PARABOLIC_VARIANTS, _spec_for, expr_grid


def grid(source, n, steps, elliptic):
    return expr_grid(source, n, steps, 0 if elliptic else steps, 0.0 if elliptic else 1.0)


def fresh(u):
    """A grid with the same values and an empty memo."""
    return u.with_values(u.values)


def _cases():
    # the acceptance fixtures in 1-D, and the 2-D smooth one at a small res
    for name, psrc, esrc, l1, l_mid, l2 in FIXTURES[1]:
        for res in (32, 64):
            for elliptic, variants in ((False, PARABOLIC_VARIANTS), (True, ELLIPTIC_VARIANTS)):
                yield (f"{name}/{res}/{'elliptic' if elliptic else 'parabolic'}", 1,
                       esrc if elliptic else psrc, res, elliptic,
                       [_spec_for(v, 1, l1, l_mid, l2) for v in variants])
    name, psrc, _, l1, l_mid, l2 = FIXTURES[2][0]
    yield (f"2d-{name}/12/parabolic", 2, psrc, 12, False,
           [_spec_for(v, 2, l1, l_mid, l2) for v in PARABOLIC_VARIANTS])


@pytest.mark.parametrize("name, n, source, res, elliptic, specs",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_shared_grid_gives_the_reports_of_fresh_grids(name, n, source, res, elliptic, specs):
    u = grid(source, n, res, elliptic)
    shared = [check(spec, u).to_json_dict() for spec in specs]
    # twice over, so that every second check reads only the memo
    assert [check(spec, u).to_json_dict() for spec in specs] == shared
    assert [check(spec, fresh(u)).to_json_dict() for spec in specs] == shared


def test_reports_share_no_object():
    u = grid("abs(x1-0.5)^0.6*exp(-t)+0.3*sin(7*x1)", 1, 24, False)
    calls = [
        lambda g: holder_seminorm_space(g, 0.5),
        lambda g: holder_seminorm_time(g, 0.25, (1,)),
        lambda g: diff_quotient_seminorm(g, 0.5),
        lambda g: diff_quotient_seminorm(g, 0.5, form="split"),
        lambda g: holder_norm(g, 1.5),
        lambda g: lp_norm(g, 2.0),
        lambda g: sup_t_lp_norm(g, 3.0),
    ]
    for call in calls:
        expect = call(fresh(u)).to_json_dict()
        first = call(u)
        for part in (first.witness, first.params, first.breakdown):
            if part is None:
                continue
            for key, val in list(part.items()):
                if isinstance(val, list):
                    val.append(-1)
                else:
                    part[key] = "mutated"
            part["extra"] = 1
        later = call(u)
        assert later.to_json_dict() == expect
        assert later.to_json_dict() != first.to_json_dict()


def test_derived_grids_get_their_own_values():
    u = grid("sin(2*pi*x1)*exp(-t)+0.2*abs(x1-0.4)^0.7", 1, 40, False)
    l, alpha = 1.5, 0.5
    dq = diff_quotient_seminorm(u, l)
    space = holder_seminorm_space(u, alpha)
    time = holder_seminorm_time(u, alpha / 2)
    v = parabolic_dilate(u, 2.0)  # the same values array on a dilated box
    assert v.values is u.values
    assert diff_quotient_seminorm(v, l).value == pytest.approx(2.0 ** -l * dq.value, rel=1e-12)
    assert holder_seminorm_space(v, alpha).value == pytest.approx(
        2.0 ** -alpha * space.value, rel=1e-12)
    assert holder_seminorm_time(v, alpha / 2).value == pytest.approx(
        2.0 ** -alpha * time.value, rel=1e-12)
    # and they are the reports of a dilate whose source was never memoised
    w = parabolic_dilate(fresh(u), 2.0)
    for f, arg in ((diff_quotient_seminorm, l), (holder_seminorm_space, alpha),
                   (holder_seminorm_time, alpha / 2)):
        assert f(v, arg).to_json_dict() == f(w, arg).to_json_dict()
    # scaled and coarsened grids start empty as well
    assert diff_quotient_seminorm(u.scaled(3.0), l).value == pytest.approx(
        3.0 * dq.value, rel=1e-12)
    assert diff_quotient_seminorm(coarsen(u), l).to_json_dict() == \
        diff_quotient_seminorm(coarsen(fresh(u)), l).to_json_dict()


def _spy_engines(monkeypatch):
    """Record the store passed on each engine call."""
    stores = []
    for name in ("pair_quotient_sup", "kdiff_quotient_sup", "kdiff_time_quotient_sup"):
        real = getattr(pairs, name)
        monkeypatch.setattr(pairs, name,
                            lambda *a, real=real: stores.append(a[-1]) or real(*a))
    return stores


def _spy_refinements(monkeypatch):
    """Record the lags each call to ``_Problem.refine`` computes afresh, and
    the lags it computes again although they were computed already (their
    stored moduli are swapped for -1 during the call and must stay so)."""
    fresh, again = [], []
    real = pairs._Problem.refine

    def refine(prob, axis, top):
        # the first call on an axis makes its entry, with no lag computed
        omega = prob.store.get(axis, np.full(top + 1, math.inf))
        lags = range(1, top + 1)
        done = [s for s in lags if omega[s] != math.inf]
        kept = omega[done].copy()
        omega[done] = -1.0
        real(prob, axis, top)
        omega = prob.store[axis]
        again.extend(s for s in done if omega[s] != -1.0)
        omega[done] = kept
        fresh.extend(s for s in lags if s not in done)

    monkeypatch.setattr(pairs._Problem, "refine", refine)
    return fresh, again


def test_each_supremum_runs_once_and_each_field_has_one_store(monkeypatch):
    stores = _spy_engines(monkeypatch)
    fresh, again = _spy_refinements(monkeypatch)
    # oscillating in time, so that the Hoelder seminorms of u reach fewer
    # time lags than its joint supremum
    u = grid("sin(2*pi*x1)*sin(2*pi*t)", 1, 24, False)
    holder_norm(u, 1.5)
    # the space and time seminorms of u, then of d/dx u
    assert len(stores) == 4
    assert stores[0] is stores[1] and stores[2] is stores[3] and stores[0] is not stores[2]
    holder_norm(u, 1.5)
    holder_seminorm_space(u, 0.5, (1,))
    holder_seminorm_time(u, 0.75)
    assert len(stores) == 4  # all read from the memo
    computed = len(fresh)
    diff_quotient_seminorm(u, 0.5, DiffSeminormSpec(1, 1))
    diff_quotient_seminorm(u, 0.5, DiffSeminormSpec(1, 1), form="split")
    holder_seminorm_time(u, 0.25)
    # the joint, split-space, split-time and time suprema of u use its store
    assert len(stores) == 8
    assert all(s is stores[0] for s in stores[4:])
    assert sorted(stores[0]) == [0, 1]  # its space and time moduli
    # a modulus computed for one supremum is never computed again by another
    # supremum of the same field, and the later suprema extended its store
    assert again == []
    assert len(fresh) > computed


def test_a_swapped_in_engine_computes_afresh_on_a_memoised_grid(monkeypatch):
    # norms reaches the engines as pairs.<name> when it is called, so the
    # exhaustive enumerators can stand in for them; the walk's outcomes kept
    # in the memo must not answer for those stand-ins
    u = grid("abs(x1-0.5)^0.6*exp(-t)+0.3*sin(7*x1)", 1, 24, False)
    specs = [_spec_for(v, 1, 0.5, 0.75, 1.5) for v in PARABOLIC_VARIANTS]
    walked = [check(spec, u).to_json_dict() for spec in specs]
    calls = []

    def pair_sup(w, h_x, h_t, exponent, axes, seed=None):
        calls.append(axes)
        return pairs.pair_quotient_sup_exhaustive(w, h_x, h_t, exponent, axes)

    def kdiff_sup(values, h_x, h_t, exponent, k, allow_time, seed=None):
        calls.append("kdiff")
        return pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, exponent, k, allow_time)

    def kdiff_time_sup(values, h_x, h_t, exponent, k, seed=None):
        calls.append("kdiff-time")
        return pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, exponent, "time", k)

    monkeypatch.setattr(pairs, "pair_quotient_sup", pair_sup)
    monkeypatch.setattr(pairs, "kdiff_quotient_sup", kdiff_sup)
    monkeypatch.setattr(pairs, "kdiff_time_quotient_sup", kdiff_time_sup)
    exact = [check(spec, u).to_json_dict() for spec in specs]
    assert {"space", "time", "kdiff"} <= set(calls)
    assert exact == [check(spec, fresh(u)).to_json_dict() for spec in specs]
    assert [r["ratio"] for r in exact] == [r["ratio"] for r in walked]


@pytest.mark.parametrize("source, n, steps, budget", [
    ("abs(x1-0.5)^0.6*exp(-t)+0.3*sin(7*x1)", 1, 48, None),
    ("sin(2*pi*x1)*exp(-t)+0.3*sin(9*x1+1)", 1, 64, None),
    ("sin(2*pi*x1)*sin(2*pi*x2)*exp(-t)", 2, 10, None),
    # a budget that the moduli of the joint terms alone would exceed, so
    # they report intervals, although the space and time terms have computed
    # most of those moduli by then
    ("sin(2*pi*x1)*exp(-t)+0.3*sin(9*x1+1)", 1, 64, 400_000),
])
def test_engine_decisions_do_not_depend_on_the_memo(source, n, steps, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(pairs, "PAIR_LIMIT", budget)
    u = grid(source, n, steps, False)
    terms = [
        lambda g: holder_seminorm_space(g, 0.25),
        lambda g: holder_seminorm_time(g, 0.125),
        lambda g: diff_quotient_seminorm(g, 0.25, DiffSeminormSpec(1, 1)),
        lambda g: diff_quotient_seminorm(g, 0.5, DiffSeminormSpec(1, 1), form="split"),
        lambda g: holder_seminorm_space(g, 0.9),
        lambda g: diff_quotient_seminorm(g, 1.5),
        lambda g: holder_seminorm_time(g, 0.75),
    ]
    # each term after the others' moduli are in u's store, and alone
    after = [t(u).to_json_dict() for t in terms]
    alone = [t(fresh(u)).to_json_dict() for t in terms]
    assert after == alone
    if budget is not None:
        assert any(r["sampling"]["mode"] == "interval" for r in after)
        assert any(r["sampling"]["mode"] == "exhaustive" for r in after)
