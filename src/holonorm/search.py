"""Adversarial search for functions that maximize an inequality's ratio.

Candidates come from three parametric families rendered as expression source
(so every witness is reproducible from its parameters alone):

* ``trig``: sums of travelling waves ``a sin(w.x + phi) exp(-mu t)``;
* ``bump``: products of compactly supported mollifier bumps per axis (and in
  time on space-time grids), clamped through ``min`` so the tail underflows
  to an exact zero outside the support;
* ``rough``: radial cusps ``a |x - c|^gamma exp(-mu t)`` with ``gamma`` at
  least the fractional part of the spec's high index, so the high seminorm
  stays bounded under refinement.

The search is derivative free: seeded random sampling plus coordinatewise
hill climbing.  Each search draws from one generator seeded by its ``seed``
(``refine_search`` also mixes in the start result's seed) inside its loop,
one draw per evaluation: a whole parameter set in ``random_search``,
including those that replace members without a ratio, and one normal step
of one coordinate in ``refine_search``.  The same arguments give the same
result.

Both searches evaluate candidates through one step, ``_offer``: it
renders and checks the candidate, counts the evaluation, and keeps a
strictly larger ratio in the ``SearchResult`` being built.  The searches
differ only in how they propose parameters and when they append to the
history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as expr_mod
from .grid import Domain, GridFunction, as_int, make_grid_function
from .interp import InterpSpec, check
from .pairs import DEFAULT_SEED

AMPLITUDE_TOL = 1e-12
_MAX_RESAMPLES = 50


@dataclass(frozen=True)
class Family:
    """A parametric candidate family with samplable bounds."""

    kind: str  # "trig" | "bump" | "rough"
    n_terms: int = 3
    freq_range: tuple[float, float] = (1.0, 16.0)
    amp_range: tuple[float, float] = (-1.0, 1.0)
    decay_range: tuple[float, float] = (0.0, 4.0)
    width_range: tuple[float, float] = (0.05, 0.5)
    gamma_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        if self.kind not in ("trig", "bump", "rough"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n_terms < 1:
            raise ValueError("need at least one term")

    # -- sampling ---------------------------------------------------------

    def param_spec(self, spec: InterpSpec, domain: Domain) -> list[tuple[str, float, float]]:
        """Name and bounds of every scalar parameter of one candidate."""
        n = spec.N
        out: list[tuple[str, float, float]] = []
        if self.kind == "trig":
            for j in range(self.n_terms):
                out.append((f"a{j}", *self.amp_range))
                for a in range(n):
                    out.append((f"w{j}_{a}", *self.freq_range))
                out.append((f"phi{j}", 0.0, 2.0 * math.pi))
                out.append((f"mu{j}", *self.decay_range))
            return out
        if self.kind == "bump":
            out.append(("a", *self.amp_range))
            for a in range(n):
                lo, hi = domain.space_lower[a], domain.space_upper[a]
                out.append((f"c{a}", lo, hi))
                ext = hi - lo
                out.append((f"w{a}", self.width_range[0] * ext, self.width_range[1] * ext))
            if domain.time_horizon > 0:
                out.append(("v", -1.0, 1.0))
            return out
        # rough
        gamma_lo = max(self.gamma_range[0], _fractional_part(spec.l2))
        out.append(("a", *self.amp_range))
        out.append(("gamma", gamma_lo, max(self.gamma_range[1], gamma_lo + 0.5)))
        for a in range(n):
            out.append((f"c{a}", domain.space_lower[a], domain.space_upper[a]))
        out.append(("mu", *self.decay_range))
        return out

    def expression(self, params: dict[str, float], spec: InterpSpec, domain: Domain) -> str:
        """Render a candidate's parameters as expression source."""
        n = spec.N
        parabolic = domain.time_horizon > 0
        if self.kind == "trig":
            terms = []
            for j in range(self.n_terms):
                phase = "+".join(
                    [f"{params[f'w{j}_{a}']!r}*x{a + 1}" for a in range(n)]
                    + [repr(params[f"phi{j}"])]
                )
                term = f"{params[f'a{j}']!r}*sin({phase})"
                if parabolic:
                    term += f"*exp(-{params[f'mu{j}']!r}*t)"
                terms.append(term)
            return "+".join(terms)
        if self.kind == "bump":
            factors = [repr(params["a"])]
            for a in range(n):
                c, w = params[f"c{a}"], params[f"w{a}"]
                if parabolic and a == 0:
                    center = f"({c!r}+{params['v']!r}*t)"
                else:
                    center = repr(c)
                s = f"((x{a + 1}-{center})/{w!r})"
                factors.append(f"exp(1-1/(1-min({s}*{s},0.999999)))")
            return "*".join(factors)
        # rough
        r2 = "+".join(
            f"(x{a + 1}-{params[f'c{a}']!r})*(x{a + 1}-{params[f'c{a}']!r})" for a in range(n)
        )
        body = f"{params['a']!r}*sqrt({r2})^{params['gamma']!r}"
        if parabolic:
            body += f"*exp(-{params['mu']!r}*t)"
        return body


def _fractional_part(l: float) -> float:
    return l - math.floor(l)


@dataclass
class SearchResult:
    """Best ratio found, its parameters, and the running-best history."""

    best_ratio: float
    best_params: dict
    best_expression: str
    history: list[float]
    evaluations: int
    spec: InterpSpec
    seed: int
    family_kind: str
    resolution: dict = field(default_factory=dict)

    @property
    def domain(self) -> Domain:
        """The box the ratios were checked on, as recorded in ``resolution``."""
        box = self.resolution["domain"]
        return Domain(tuple(box["lower"]), tuple(box["upper"]), box["T"])

    def to_json_dict(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "best_params": self.best_params,
            "best_expression": self.best_expression,
            "history": self.history,
            "evaluations": self.evaluations,
            "spec": self.spec.to_json_dict(),
            "seed": self.seed,
            "family": self.family_kind,
            "resolution": self.resolution,
        }


def _default_domain(spec: InterpSpec) -> Domain:
    t_horizon = 0.0 if spec.is_elliptic else 1.0
    return Domain((0.0,) * spec.N, (1.0,) * spec.N, t_horizon)


def build_candidate(
    source: str, spec: InterpSpec, domain: Domain, resolution: int, time_resolution: int
) -> GridFunction:
    """Evaluate candidate expression source on the check grid.

    ``time_resolution`` is the one a search result records: 0 on a T = 0 box.
    """
    tree = expr_mod.parse(source, spec.N)
    return make_grid_function(domain, resolution, time_resolution,
                              expr_mod.as_grid_callable(tree))


def _offer(result: SearchResult, family: Family, params: dict[str, float]) -> float | None:
    """Evaluate one candidate and keep it in ``result`` if its ratio is
    strictly the best so far.

    Returns the ratio, or ``None`` when the candidate is effectively the zero
    function or its check forms no ratio.
    """
    spec, domain, res = result.spec, result.domain, result.resolution
    source = family.expression(params, spec, domain)
    u = build_candidate(source, spec, domain, res["resolution"], res["time_resolution"])
    result.evaluations += 1
    if float(np.max(np.abs(u.values))) <= AMPLITUDE_TOL:
        return None  # degenerate: effectively the zero function
    report = check(spec, u)
    if report.status != "ok":
        return None
    if report.ratio > result.best_ratio:
        result.best_ratio, result.best_params, result.best_expression = (
            report.ratio, params, source)
    return report.ratio


def random_search(
    spec: InterpSpec,
    family: Family,
    budget: int,
    seed: int,
    domain: Domain | None = None,
    resolution: int = 64,
    time_resolution: int | None = None,
) -> SearchResult:
    """Evaluate ``budget`` sampled family members and keep the best ratio.

    The ratio objective is evaluated at the fixed resolution recorded in the
    result.  Members whose amplitude is below tolerance are resampled; if the
    family cannot produce a usable member the search is rejected.
    """
    budget = as_int(budget, "budget")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    domain = domain or _default_domain(spec)
    if domain.time_horizon == 0:
        time_resolution = 0
    elif time_resolution is None:
        time_resolution = resolution
    result = SearchResult(
        best_ratio=-math.inf, best_params={}, best_expression="", history=[], evaluations=0,
        spec=spec, seed=seed, family_kind=family.kind,
        resolution={
            "resolution": resolution,
            "time_resolution": time_resolution,
            "domain": {
                "lower": list(domain.space_lower),
                "upper": list(domain.space_upper),
                "T": domain.time_horizon,
            },
            "check_seed": DEFAULT_SEED,  # unused; perfbench/workloads.py reads it
        },
    )
    rng = np.random.default_rng(seed)
    pspec = family.param_spec(spec, domain)
    failures = 0
    while len(result.history) < budget:
        params = {name: float(rng.uniform(lo, hi)) for name, lo, hi in pspec}
        if _offer(result, family, params) is None:
            failures += 1
            if failures >= _MAX_RESAMPLES and not result.history:
                raise ValueError(
                    f"family {family.kind!r} is degenerate: {failures} consecutive "
                    "members below amplitude tolerance or without a ratio"
                )
            continue
        failures = 0
        result.history.append(result.best_ratio)
    return result


def refine_search(
    start: SearchResult,
    family: Family,
    steps: int,
    step_scale: float = 0.1,
    seed: int = 0,
) -> SearchResult:
    """Coordinatewise hill climbing from the best parameters of ``start``.

    Only improvements are accepted, so the refined ratio never drops below
    the starting one.
    """
    steps = as_int(steps, "steps")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if family.kind != start.family_kind:
        raise ValueError(
            f"refinement family {family.kind!r} does not match the start "
            f"result's family {start.family_kind!r}"
        )
    result = replace(start, best_params=dict(start.best_params), history=list(start.history),
                     resolution=dict(start.resolution))
    pspec = family.param_spec(start.spec, start.domain)
    rng = np.random.default_rng([seed, start.seed])
    for step in range(steps):
        name, lo, hi = pspec[step % len(pspec)]
        proposal = dict(result.best_params)
        proposal[name] = float(
            np.clip(proposal[name] + rng.normal(0.0, step_scale * (hi - lo)), lo, hi)
        )
        _offer(result, family, proposal)
        result.history.append(result.best_ratio)
    return result
