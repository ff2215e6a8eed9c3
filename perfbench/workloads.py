"""The benchmark's two workloads: their inputs, timed operations and checks.

Every workload is a list of ``Op``s.  ``Op.run`` is the timed call into
holonorm; ``Op.verify`` checks its outputs afterwards, untimed.  All calls go
through module attributes (``interp.check``, ``grid.make_grid_function``, ...)
so that the tracer's wrappers, installed on those attributes, see them.

``--seed`` fixes the inputs: it orders the operations of the fixed-input
workloads and draws the search seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from holonorm import cli, expr, grid, interp, search

import checks

BUMP_1D = "exp(1-1/(1-min(((x1-0.3-0.4*t)/0.2)*((x1-0.3-0.4*t)/0.2),0.999999)))"
BUMP_1D_E = "exp(1-1/(1-min(((x1-0.5)/0.25)*((x1-0.5)/0.25),0.999999)))"
CUSP_2D = "sqrt((x1-0.5)*(x1-0.5)+(x2-0.5)*(x2-0.5))^0.6*exp(-t)"
CUSP_2D_E = "sqrt((x1-0.5)*(x1-0.5)+(x2-0.5)*(x2-0.5))^0.6"

# name -> (parabolic source, elliptic source, l1, l, l2): the fixtures and
# indices of the acceptance suite's inequality-stability criterion.
FIXTURES = {
    1: {
        "smooth": ("sin(2*pi*x1)*exp(-t)", "sin(3*x1)", 0.5, 0.75, 1.5),
        "cusp": ("abs(x1-0.5)^0.6*exp(-t)", "abs(x1-0.5)^0.6", 0.25, 0.35, 0.5),
        "bump": (BUMP_1D, BUMP_1D_E, 0.5, 0.75, 1.5),
    },
    2: {
        "smooth": ("sin(2*pi*x1)*sin(2*pi*x2)*exp(-t)", "sin(3*x1)*sin(2*x2)", 0.5, 0.75, 1.5),
        "cusp": (CUSP_2D, CUSP_2D_E, 0.25, 0.35, 0.5),
    },
}
PARABOLIC = ("2.2", "2.3.1", "2.3.3", "2.10", "2.10.1")
ELLIPTIC = ("2.1", "2.11")
SUP_VARIANTS = ("2.3.1", "2.3.3")
GEOMETRIES = ((False, PARABOLIC), (True, ELLIPTIC))  # (elliptic, variants on that grid)

# Full and reduced sizes.  The reduced ones serve the self-tests.
MATRIX_RES = {False: (64, 128, 256), True: (16, 32)}
SWEEP_RES = {False: (16, 32), True: (8, 12)}
SEARCH_SIZE = {False: (60, 60, 32), True: (4, 4, 12)}  # budget, refine steps, res
SEARCH_SPEC = {"variant": "2.11", "N": 1, "l1": 0.0, "l2": 1.5, "p": 2.0}
SEARCH_FAMILIES = ("trig", "bump", "rough")
SEARCH_RATIO_RTOL = 1e-10


@dataclass
class Verdict:
    """Checked outputs of one execution of an ``Op``."""

    record: object  # every computed value and witness, JSON-ready
    checks: int  # interp.check calls
    errors: dict = field(default_factory=dict)  # failing unit -> reasons
    relerr: float = 0.0  # worst relative error of a ratio against its exact value
    gap: float = 0.0  # worst relative shortfall of a supremum below its exact value
    counters: dict = field(default_factory=dict)  # layer counts only the benchmark sees

    def add(self, unit: str, errors: list[str], relerr: float = 0.0, gap: float = 0.0):
        if errors:
            self.errors.setdefault(unit, []).extend(errors)
        self.relerr = max(self.relerr, relerr)
        self.gap = max(self.gap, gap)


@dataclass
class Op:
    key: str
    units: int  # operations: checks, CLI invocations or searches
    checks: int  # planned; a verdict gives the count actually made
    run: Callable[[], object]
    record: Callable[[object], object]
    verify: Callable[[object, dict], Verdict]


def spec_kwargs(variant: str, l1: float, l_mid: float, l2: float) -> dict:
    if variant in ("2.1", "2.2"):
        return {"l1": 0.0, "l": l_mid, "l2": l2}
    if variant in SUP_VARIANTS:
        return {"l2": l2, "p": 2.0}
    return {"l1": l1, "l2": l2, "p": 2.0}


def build_grid(source: str, n: int, res: int, elliptic: bool):
    """Sample an expression on the unit box, with T = 1 and as many time steps
    as space steps unless the grid is purely spatial."""
    domain = grid.Domain((0.0,) * n, (1.0,) * n, 0.0 if elliptic else 1.0)
    f = expr.as_grid_callable(expr.parse(source, n))
    return grid.make_grid_function(domain, (res,) * n, 0 if elliptic else res, f)


# -- matrix-1d -----------------------------------------------------------------


def _matrix_op(fixture, res, elliptic, source, specs) -> Op:
    """Build one grid and run every variant that uses it."""
    prefix = f"{fixture}/res{res}"

    def run():
        u = build_grid(source, 1, res, elliptic)
        return u, [interp.check(spec, u) for spec in specs]

    def record(out):
        return [rep.to_json_dict() for rep in out[1]]

    def verify(out, refs):
        u, reports = out
        v = Verdict(record(out), checks=len(specs))
        for spec, rep in zip(specs, v.record):
            unit = f"{prefix}/{spec.variant.value}"
            if unit not in refs:
                v.add(unit, ["no stored reference"])
                continue
            v.add(unit, *checks.verify_check(rep, u, refs[unit]))
        return v

    geometry = "elliptic" if elliptic else "parabolic"
    return Op(f"{prefix}/{geometry}", len(specs), len(specs), run, record, verify)


def _matrix_inputs(small):
    for fixture, (psrc, esrc, l1, l_mid, l2) in FIXTURES[1].items():
        for res in MATRIX_RES[small]:
            for elliptic, variants in GEOMETRIES:
                specs = [interp.InterpSpec(variant=v, N=1, **spec_kwargs(v, l1, l_mid, l2))
                         for v in variants]
                yield fixture, res, elliptic, esrc if elliptic else psrc, specs


def _matrix_ops(rng, small, workdir):
    return [_matrix_op(*args) for args in _matrix_inputs(small)]


# -- sweep-2d: the CLI ------------------------------------------------------------


def _cli(argv: list[str]) -> int:
    """``holonorm`` with these arguments, in-process; its messages are dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _cli_payload(rc: int, out_json: str) -> dict:
    """The JSON report, without its timestamp."""
    if rc != 0:
        return {"exit": rc}
    with open(out_json) as fh:
        payload = json.load(fh)
    payload.pop("generated_at")
    return payload



def _sweep_op(fixture, variant, source, kwargs, resolutions, workdir) -> Op:
    """One ``holonorm check --sweep`` invocation, run in-process."""
    key = f"{fixture}/{variant}"
    elliptic = variant in ELLIPTIC
    out_json = os.path.join(workdir, f"{fixture}-{variant}.json")
    out_csv = os.path.splitext(out_json)[0] + ".csv"
    argv = ["check", "--expr", source, "--dim", "2", "--variant", variant,
            "--sweep", ",".join(str(r) for r in resolutions), "--out", out_json]
    if not elliptic:
        argv += ["--T", "1"]
    for name, value in kwargs.items():
        argv += [f"--{name}", repr(value)]

    def run():
        return _cli(argv)

    def record(rc):
        payload = _cli_payload(rc, out_json)
        if rc == 0:
            with open(out_csv, newline="") as fh:
                payload["csv"] = fh.read()
        return payload

    def verify(rc, refs):
        v = Verdict(record(rc), checks=len(resolutions))
        if rc != 0:
            v.add(key, [f"exit code {rc}"])
            return v
        v.counters["cli.bytes_written"] = os.path.getsize(out_json) + os.path.getsize(out_csv)
        reports = v.record["reports"]
        if len(reports) != len(resolutions):
            v.add(key, [f"{len(reports)} reports for {len(resolutions)} resolutions"])
            return v
        for res, rep in zip(resolutions, reports):
            ref = refs.get(f"{key}/res{res}")
            if ref is None:
                v.add(key, [f"no stored reference at res {res}"])
                continue
            v.add(key, *checks.verify_check(rep, build_grid(source, 2, res, elliptic), ref))
        ratios = [rep["ratio"] for rep in reports]
        rows = v.record["csv"].splitlines()
        expect = ["resolution,ratio"] + [f"{r},{'' if q is None else q!r}"
                                         for r, q in zip(resolutions, ratios)]
        if rows != expect:
            v.add(key, [f"CSV {rows} disagrees with the JSON ratios {ratios}"])
        if v.record["sweep"] != {"resolutions": list(resolutions), "ratios": ratios}:
            v.add(key, ["sweep summary disagrees with the reports"])
        return v

    return Op(key, 1, len(resolutions), run, record, verify)


def _sweep_inputs(small):
    for fixture, (psrc, esrc, l1, l_mid, l2) in FIXTURES[2].items():
        for elliptic, variants in GEOMETRIES:
            for variant in variants:
                yield fixture, variant, esrc if elliptic else psrc, spec_kwargs(
                    variant, l1, l_mid, l2)


def _search_op(kind, seed, budget, steps, res, workdir) -> Op:
    """One ``holonorm search`` invocation (``random_search``, ``refine_search``
    and the constant probe), run in-process: many small fresh grids with one
    check each, which no sampled supremum or grid reuse touches."""
    key = f"search/{kind}"
    out_json = os.path.join(workdir, f"search-{kind}.json")
    spec = interp.InterpSpec(**SEARCH_SPEC)
    argv = ["search", "--variant", spec.variant.value, "--dim", str(spec.N), "--family", kind,
            "--budget", str(budget), "--refine-steps", str(steps), "--res", str(res),
            "--seed", str(seed), "--out", out_json]
    for name in ("l1", "l2", "p"):
        argv += [f"--{name}", repr(SEARCH_SPEC[name])]

    def run():
        return _cli(argv)

    def record(rc):
        return _cli_payload(rc, out_json)

    def verify(rc, refs):
        v = Verdict(record(rc), checks=budget + steps + 1)
        if rc != 0:
            v.add(key, [f"exit code {rc}"])
            return v
        result, probe = v.record["result"], v.record["constant_probe"]
        v.checks = result["evaluations"] + 1
        v.counters = {"search.evals": result["evaluations"],
                      "cli.bytes_written": os.path.getsize(out_json)}
        r = result["resolution"]
        domain = grid.Domain(tuple(r["domain"]["lower"]), tuple(r["domain"]["upper"]),
                             r["domain"]["T"])
        u = search.build_candidate(result["best_expression"], spec, domain, r["resolution"],
                                   r["time_resolution"])
        rep = interp.check(spec, u, seed=r["check_seed"]).to_json_dict()
        exact = checks.exact_check(spec, u, r["check_seed"]).to_json_dict()
        errors, _, gap = checks.verify_check(rep, u, checks.reference_entry(exact))
        best = result["best_ratio"]
        if rep["ratio"] is None or not abs(rep["ratio"] - best) <= SEARCH_RATIO_RTOL * best:
            errors.append(f"best expression re-checks to {rep['ratio']!r}, "
                          f"search reported {best!r}")
        # Both sides of the inequality equal the constant.
        if (probe["status"], probe["ratio"]) != ("ok", 1.0):
            errors.append(f"constant probe gave {probe['status']} {probe['ratio']!r}, "
                          "expected ratio 1")
        v.add(key, errors, checks.ratio_relerr(best, exact["ratio"]), gap)
        return v

    return Op(key, 1, budget + steps + 1, run, record, verify)


def _sweep_ops(rng, small, workdir):
    # The searches are the CLI's other command.  They are not a workload of
    # their own because their throughput alone is too unsteady to bound (see
    # README.md); here they are a small share of the time.
    budget, steps, res = SEARCH_SIZE[small]
    return ([_sweep_op(*args, SWEEP_RES[small], workdir) for args in _sweep_inputs(small)]
            + [_search_op(kind, rng.randrange(2**32), budget, steps, res, workdir)
               for kind in SEARCH_FAMILIES])


# -- registry ---------------------------------------------------------------------

WORKLOADS = {"matrix-1d": _matrix_ops, "sweep-2d": _sweep_ops}


def make_ops(name: str, seed: int, workdir: str, small: bool = False) -> list[Op]:
    """The workload's operations in the order the seed gives them."""
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, small, workdir)
    rng.shuffle(ops)
    return ops


def reference_inputs(name: str, small: bool = False):
    """(reference key, spec, grid factory) for every fixed check of a workload.
    The searches of sweep-2d have no fixed inputs: each is checked against an
    exhaustive re-check of its best witness instead."""
    if name == "matrix-1d":
        for fixture, res, elliptic, source, specs in _matrix_inputs(small):
            for spec in specs:
                yield (f"{fixture}/res{res}/{spec.variant.value}", spec,
                       lambda s=source, r=res, e=elliptic: build_grid(s, 1, r, e))
    elif name == "sweep-2d":
        for fixture, variant, source, kwargs in _sweep_inputs(small):
            spec = interp.InterpSpec(variant=variant, N=2, **kwargs)
            for res in SWEEP_RES[small]:
                yield (f"{fixture}/{variant}/res{res}", spec,
                       lambda s=source, r=res, e=variant in ELLIPTIC: build_grid(s, 2, r, e))
