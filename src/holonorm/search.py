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
hill climbing.  Proposals are generated up front from the seed, so results
are reproducible and schedule independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .grid import Domain, GridFunction, make_grid_function
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
            "spec": {
                "variant": self.spec.variant.value,
                "l1": self.spec.l1,
                "l": self.spec.l,
                "l2": self.spec.l2,
                "p": self.spec.p,
                "N": self.spec.N,
            },
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
    """Evaluate candidate expression source on the check grid."""
    tree = expr_mod.parse(source, spec.N)
    tsteps = 0 if domain.time_horizon == 0 else time_resolution
    return make_grid_function(domain, resolution, tsteps, expr_mod.as_grid_callable(tree))


def _evaluate(
    source: str, spec: InterpSpec, domain: Domain, resolution: int, time_resolution: int
) -> float | None:
    """The candidate's ratio, or ``None`` when the check forms none."""
    u = build_candidate(source, spec, domain, resolution, time_resolution)
    if float(np.max(np.abs(u.values))) <= AMPLITUDE_TOL:
        return None  # degenerate: effectively the zero function
    report = check(spec, u)
    return report.ratio if report.status == "ok" else None


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
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    domain = domain or _default_domain(spec)
    time_resolution = resolution if time_resolution is None else time_resolution
    rng = np.random.default_rng(seed)
    pspec = family.param_spec(spec, domain)

    def draw() -> dict[str, float]:
        return {name: float(rng.uniform(lo, hi)) for name, lo, hi in pspec}

    best_ratio = -math.inf
    best_params: dict = {}
    best_expression = ""
    history: list[float] = []
    evaluations = 0
    failures = 0
    done = 0
    while done < budget:
        params = draw()
        source = family.expression(params, spec, domain)
        ratio = _evaluate(source, spec, domain, resolution, time_resolution)
        evaluations += 1
        if ratio is None:
            failures += 1
            if failures >= _MAX_RESAMPLES and done == 0:
                raise ValueError(
                    f"family {family.kind!r} is degenerate: {failures} consecutive "
                    "members below amplitude tolerance or without a ratio"
                )
            continue
        failures = 0
        done += 1
        if ratio > best_ratio:
            best_ratio = ratio
            best_params = params
            best_expression = source
        history.append(best_ratio)

    return SearchResult(
        best_ratio=best_ratio,
        best_params=best_params,
        best_expression=best_expression,
        history=history,
        evaluations=evaluations,
        spec=spec,
        seed=seed,
        family_kind=family.kind,
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
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if family.kind != start.family_kind:
        raise ValueError(
            f"refinement family {family.kind!r} does not match the start "
            f"result's family {start.family_kind!r}"
        )
    spec = start.spec
    res = start.resolution
    domain = start.domain
    resolution = res["resolution"]
    time_resolution = res["time_resolution"]
    pspec = family.param_spec(spec, domain)
    names = [name for name, _, _ in pspec]
    bounds = {name: (lo, hi) for name, lo, hi in pspec}

    rng = np.random.default_rng([seed, start.seed])
    best_ratio = start.best_ratio
    best_params = dict(start.best_params)
    best_expression = start.best_expression
    history = list(start.history)
    evaluations = start.evaluations

    for step in range(steps):
        name = names[step % len(names)]
        lo, hi = bounds[name]
        proposal = dict(best_params)
        proposal[name] = float(
            np.clip(best_params[name] + rng.normal(0.0, step_scale * (hi - lo)), lo, hi)
        )
        source = family.expression(proposal, spec, domain)
        ratio = _evaluate(source, spec, domain, resolution, time_resolution)
        evaluations += 1
        if ratio is not None and ratio > best_ratio:
            best_ratio = ratio
            best_params = proposal
            best_expression = source
        history.append(best_ratio)

    return SearchResult(
        best_ratio=best_ratio,
        best_params=best_params,
        best_expression=best_expression,
        history=history,
        evaluations=evaluations,
        spec=spec,
        seed=start.seed,
        family_kind=start.family_kind,
        resolution=dict(start.resolution),
    )
