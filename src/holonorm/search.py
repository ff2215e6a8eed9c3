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
renders the candidate, counts the evaluation, and keeps a strictly larger
ratio in the ``SearchResult`` being built.  Each search call parses its
family's expression once, with every parameter a named leaf
(:meth:`Family.template`), and binds each candidate's values into that tree
(``expr.bind``), which evaluates as the parse of the rendered source does.
It checks each distinct rendered source once: a repeat (a step that leaves
the source unchanged, such as one of a decay rate on a T = 0 box) counts as
an evaluation and in the history, and reuses the outcome it had.  The
searches differ only in how they propose parameters and when they append to
the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import expr as expr_mod
from .grid import Domain, GridFunction, as_int, make_grid_function
from .interp import InterpSpec, check
from .pairs import DEFAULT_SEED

AMPLITUDE_TOL = 1e-12
_MAX_RESAMPLES = 50
FAMILIES = ("trig", "bump", "rough")


@dataclass(frozen=True)
class Family:
    """A parametric candidate family with samplable bounds.

    Each family is written once, in ``_render``: ``template``,
    ``param_spec`` and ``expression`` all read that one walk over its
    parameters.
    """

    kind: str  # one of FAMILIES
    n_terms: int = 3
    freq_range: tuple[float, float] = (1.0, 16.0)
    amp_range: tuple[float, float] = (-1.0, 1.0)
    decay_range: tuple[float, float] = (0.0, 4.0)
    width_range: tuple[float, float] = (0.05, 0.5)
    gamma_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "n_terms", as_int(self.n_terms, "n_terms"))
        if self.n_terms < 1:
            raise ValueError("need at least one term")
        for name in [f.name for f in fields(self) if f.name.endswith("_range")]:
            bounds = getattr(self, name)
            try:
                lo, hi = (float(v) for v in bounds)
            except (TypeError, ValueError):
                lo = hi = math.nan
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name} must be two finite numbers lo <= hi, got {bounds!r}")
            object.__setattr__(self, name, (lo, hi))

    def template(self, spec: InterpSpec,
                 domain: Domain) -> tuple[list[tuple[str, float, float]], str]:
        """``param_spec``, and the expression source with each parameter
        written as its name: ``expr.parse`` with those names as ``params``
        reads it once for every candidate.  No parameter is the base of a
        ``^``, so binding values into that tree gives the tree of
        :meth:`expression` (see ``expr.bind``)."""
        out: list[tuple[str, float, float]] = []

        def record(name: str, lo: float, hi: float) -> str:
            out.append((name, lo, hi))
            return name

        return out, self._render(record, spec, domain)

    def param_spec(self, spec: InterpSpec, domain: Domain) -> list[tuple[str, float, float]]:
        """Name and bounds of every scalar parameter of one candidate, in the
        order the searches draw them."""
        return self.template(spec, domain)[0]

    def expression(self, params: dict[str, float], spec: InterpSpec, domain: Domain) -> str:
        """Render a candidate's parameters as expression source."""
        return self._render(lambda name, lo, hi: repr(params[name]), spec, domain)

    def _render(self, p, spec: InterpSpec, domain: Domain) -> str:
        """The one walk over a candidate's parameters: ``p(name, lo, hi)``
        gives each parameter's text, called in draw order, and the texts are
        joined into expression source.  ``trig`` and ``rough`` draw their
        decay rates ``mu`` on a T = 0 box too, where the source has no time
        factor."""
        n, lower, upper = spec.N, domain.space_lower, domain.space_upper
        parabolic = domain.time_horizon > 0
        if self.kind == "trig":
            terms = []
            for j in range(self.n_terms):
                a = p(f"a{j}", *self.amp_range)
                phase = "+".join([f"{p(f'w{j}_{i}', *self.freq_range)}*x{i + 1}"
                                  for i in range(n)] + [p(f"phi{j}", 0.0, 2.0 * math.pi)])
                mu = p(f"mu{j}", *self.decay_range)
                terms.append(f"{a}*sin({phase})" + (f"*exp(-{mu}*t)" if parabolic else ""))
            return "+".join(terms)
        if self.kind == "bump":
            factors = [p("a", *self.amp_range)]
            axes = []
            for i in range(n):
                w_lo, w_hi = (frac * (upper[i] - lower[i]) for frac in self.width_range)
                axes.append([p(f"c{i}", lower[i], upper[i]), p(f"w{i}", w_lo, w_hi)])
            if parabolic:  # the first axis's centre drifts with t
                axes[0][0] = f"({axes[0][0]}+{p('v', -1.0, 1.0)}*t)"
            for i, (center, width) in enumerate(axes):
                s = f"((x{i + 1}-{center})/{width})"
                factors.append(f"exp(1-1/(1-min({s}*{s},0.999999)))")
            return "*".join(factors)
        # rough
        gamma_lo = max(self.gamma_range[0], spec.l2 - math.floor(spec.l2))
        a = p("a", *self.amp_range)
        gamma = p("gamma", gamma_lo, max(self.gamma_range[1], gamma_lo + 0.5))
        centers = [p(f"c{i}", lower[i], upper[i]) for i in range(n)]
        mu = p("mu", *self.decay_range)
        r2 = "+".join(f"(x{i + 1}-{c})*(x{i + 1}-{c})" for i, c in enumerate(centers))
        return f"{a}*sqrt({r2})^{gamma}" + (f"*exp(-{mu}*t)" if parabolic else "")


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


@dataclass
class _Candidates:
    """One search call's family on its box: the parameters, the expression
    parsed once with each parameter a named leaf, and the outcome (ratio or
    ``None``) of each rendered source checked so far."""

    family: Family
    spec: InterpSpec
    domain: Domain
    outcomes: dict[str, float | None]

    def __post_init__(self):
        self.pspec, source = self.family.template(self.spec, self.domain)
        self.tree = expr_mod.parse(source, self.spec.N, [name for name, _, _ in self.pspec])

    def ratio(self, params: dict[str, float], res: dict) -> float | None:
        """The ratio of the candidate ``params``, or ``None`` when it is
        effectively the zero function or its check forms no ratio."""
        tree = expr_mod.bind(self.tree, params)
        u = make_grid_function(self.domain, res["resolution"], res["time_resolution"],
                               expr_mod.as_grid_callable(tree))
        if float(np.max(np.abs(u.values))) <= AMPLITUDE_TOL:
            return None  # degenerate: effectively the zero function
        report = check(self.spec, u)
        return report.ratio if report.status == "ok" else None


def _offer(result: SearchResult, cands: _Candidates, params: dict[str, float]) -> float | None:
    """Evaluate one candidate and keep it in ``result`` if its ratio is
    strictly the best so far.  A source already checked in this search call
    is not checked again.

    Returns the ratio, or ``None`` when the candidate is effectively the zero
    function or its check forms no ratio.
    """
    source = cands.family.expression(params, cands.spec, cands.domain)
    if source not in cands.outcomes:
        cands.outcomes[source] = cands.ratio(params, result.resolution)
    result.evaluations += 1
    ratio = cands.outcomes[source]
    if ratio is not None and ratio > result.best_ratio:
        result.best_ratio, result.best_params, result.best_expression = ratio, params, source
    return ratio


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
    cands = _Candidates(family, spec, domain, {})
    failures = 0
    while len(result.history) < budget:
        params = {name: float(rng.uniform(lo, hi)) for name, lo, hi in cands.pspec}
        if _offer(result, cands, params) is None:
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
    if not (math.isfinite(step_scale) and step_scale >= 0):
        raise ValueError(f"step_scale must be finite and >= 0, got {step_scale}")
    if family.kind != start.family_kind:
        raise ValueError(
            f"refinement family {family.kind!r} does not match the start "
            f"result's family {start.family_kind!r}"
        )
    result = replace(start, best_params=dict(start.best_params), history=list(start.history),
                     resolution=dict(start.resolution))
    cands = _Candidates(family, start.spec, start.domain,
                        {start.best_expression: start.best_ratio})
    rng = np.random.default_rng([seed, start.seed])
    for step in range(steps):
        name, lo, hi = cands.pspec[step % len(cands.pspec)]
        proposal = dict(result.best_params)
        proposal[name] = float(
            np.clip(proposal[name] + rng.normal(0.0, step_scale * (hi - lo)), lo, hi)
        )
        _offer(result, cands, proposal)
        result.history.append(result.best_ratio)
    return result
