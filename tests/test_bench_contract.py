"""The parts of holonorm that the benchmark harness under ``perfbench/``
reaches by name.  The harness is loaded from its files, read-only: a library
change that breaks it fails here, not only in a benchmark run."""

import importlib.util
import os

import pytest

from holonorm import Domain, InterpSpec, cli, interp, make_grid_function, pairs
from holonorm.expr import as_grid_callable, parse

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
checks = _load("checks")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.TARGETS],
                         ids=[f"{m.__name__}.{a}" for m, a, _ in tracer.TARGETS])
def test_every_traced_target_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def _grid(source, n, elliptic):
    domain = Domain((0.0,) * n, (1.0,) * n, 0.0 if elliptic else 1.0)
    return make_grid_function(domain, (6,) * n, 0 if elliptic else 6,
                              as_grid_callable(parse(source, n)))


SPECS = {
    "2.2": (InterpSpec(variant="2.2", l1=0.0, l=0.75, l2=1.5, N=1), "sin(3*x1)*exp(-t)"),
    "2.3.1": (InterpSpec(variant="2.3.1", l2=1.5, p=2, N=2), "sin(3*x1)*cos(2*x2)*exp(-t)"),
    "2.11": (InterpSpec(variant="2.11", l1=0.5, l2=1.5, p=2, N=1), "abs(x1-0.4)^0.7"),
    "2.3.3": (InterpSpec(variant="2.3.3", l2=1.5, p=2, N=1), "sin(3*x1)*exp(-t)"),
    "2.10.1": (InterpSpec(variant="2.10.1", l1=0.5, l2=1.5, p=2, N=1), "sin(3*x1)*exp(-t)"),
}


@pytest.mark.parametrize("spec, source", list(SPECS.values()), ids=list(SPECS))
def test_exact_check_routes_every_supremum_through_the_exhaustive_engines(
        spec, source, monkeypatch):
    calls = []
    for name in ("pair_quotient_sup_exhaustive", "kdiff_quotient_sup_exhaustive"):
        def counted(*args, _engine=getattr(pairs, name), **kwargs):
            calls.append(_engine)
            return _engine(*args, **kwargs)
        monkeypatch.setattr(pairs, name, counted)
    exact = checks.exact_check(spec, _grid(source, spec.N, spec.is_elliptic), None)
    report = exact.to_json_dict()
    # each distinct supremum term is one engine call on a fresh grid: a term
    # that two roles share (the label after the role prefix) is computed once
    labels = {key.split(":", 1)[1] for key in checks.sup_terms(report)}
    assert len(calls) == len(labels) > 0
    # the grid is small enough for the default engines to be exact as well
    default = interp.check(spec, _grid(source, spec.N, spec.is_elliptic)).to_json_dict()
    assert report == default


def test_traced_names_are_reached(tmp_path):
    # an assembly that binds a seminorm or engine directly, or a search that
    # binds ``check`` or ``make_grid_function`` directly, not through its
    # module attribute, would bypass the wrappers and zero per-layer metrics
    t = tracer.Tracer()
    t.install()
    try:
        for key, (spec, source) in SPECS.items():
            t.begin(key)
            interp.check(spec, _grid(source, spec.N, spec.is_elliptic))
        t.begin("search")
        argv = ["search", "--variant", "2.10.1", "--dim", "1", "--l1", "0.5", "--l2", "1.5",
                "--p", "2", "--family", "trig", "--budget", "2", "--refine-steps", "2",
                "--res", "6", "--out", str(tmp_path / "search.json")]
        assert cli.main(argv) == 0
    finally:
        t.uninstall()
    names = {span[1] for span in t.spans}
    assert {f"norms.{f}" for f in tracer.NORM_CALLS} <= names
    assert {"norms.holder_seminorm_space", "norms.holder_seminorm_time",
            "norms.derivative_field", "pairs.pair_quotient_sup"} <= names

    def nested_in(name):
        # spans are appended when they start, so a parent precedes its children
        ids, inner = {sid for sid, span_name, *_ in t.spans if span_name == name}, set()
        for sid, span_name, _, _, parent, *_ in t.spans:
            if parent in ids:
                ids.add(sid)
                inner.add(span_name)
        return inner

    for search in ("search.random_search", "search.refine_search"):
        assert {"interp.check", "grid.make_grid_function", "expr.parse"} <= nested_in(search)
