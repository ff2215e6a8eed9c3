"""Output checks shared by the workloads and the reference generator.

A check report is compared with its exact reference: the status must match,
every witness must re-evaluate to its reported value, and no supremum term may
exceed the exact value obtained by exhaustive enumeration.
"""

from __future__ import annotations

import contextlib

from holonorm import interp, norms, pairs

WITNESS_RTOL = 1e-12
ROUNDING_RTOL = 1e-12


@contextlib.contextmanager
def exhaustive_engines():
    """Route every supremum through the exhaustive enumerators of ``pairs``.

    ``norms`` reaches the engines as ``pairs.<name>``, so replacing the module
    attributes is enough; the originals are restored on exit.
    """
    saved = (pairs.pair_quotient_sup, pairs.kdiff_quotient_sup, pairs.kdiff_time_quotient_sup)

    def pair_sup(w, h_x, h_t, exponent, axes, seed=None):
        return pairs.pair_quotient_sup_exhaustive(w, h_x, h_t, exponent, axes)

    def kdiff_sup(values, h_x, h_t, exponent, k, allow_time, seed=None):
        return pairs.kdiff_quotient_sup_exhaustive(values, h_x, h_t, exponent, k, allow_time)

    def kdiff_time_sup(values, h_x, h_t, exponent, k, seed=None):
        return pairs.pair_quotient_sup_exhaustive(values, h_x, h_t, exponent, "time", k)

    pairs.pair_quotient_sup, pairs.kdiff_quotient_sup, pairs.kdiff_time_quotient_sup = (
        pair_sup, kdiff_sup, kdiff_time_sup)
    try:
        yield
    finally:
        pairs.pair_quotient_sup, pairs.kdiff_quotient_sup, pairs.kdiff_time_quotient_sup = saved


def exact_check(spec, u, seed):
    """``interp.check`` with every supremum enumerated exhaustively."""
    with exhaustive_engines():
        return interp.check(spec, u, seed=seed)


def sup_terms(report: dict) -> dict[str, float]:
    """Every supremum term of a check report (JSON form), keyed by the norm's
    role and the term's label.  Each term is one call into ``pairs``."""
    out = {}
    for role, rep in report["norms"].items():
        if rep["kind"] in ("parabolic", "elliptic"):
            for label, value in (rep["breakdown"] or {}).items():
                if label.startswith("<"):
                    out[f"{role}:{label}"] = value
        elif rep["kind"] == "diff_quotient":
            out[f"{role}:joint"] = rep["value"]
        elif rep["kind"] == "diff_quotient_split":
            out.update({f"{role}:{k}": v for k, v in rep["breakdown"].items()})
    return out


def reference_entry(report: dict) -> dict:
    """What is stored per fixed input: status, ratio, the three norm values
    and every supremum term, all from exhaustive enumeration."""
    return {
        "status": report["status"],
        "ratio": report["ratio"],
        "lhs": report["lhs"],
        "factor_high": report["factor_high"],
        "factor_low": report["factor_low"],
        "terms": sup_terms(report),
    }


def _norm_report(d: dict) -> norms.NormReport:
    info = norms.SamplingInfo(**d["sampling"])
    return norms.NormReport(d["kind"], d["value"], d["index"], d["pairs_examined"], info,
                            d["witness"], d["params"], d["breakdown"])


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def witness_errors(report: dict, u) -> list[str]:
    """Witnesses of the check's norms that do not re-evaluate to their value."""
    errors = []
    for role, rep in report["norms"].items():
        if rep["witness"] is None:
            continue
        got = norms.witness_value(u, _norm_report(rep))
        if not _close(got, rep["value"], WITNESS_RTOL):
            errors.append(f"{role} witness re-evaluates to {got!r}, report says {rep['value']!r}")
    return errors


def term_errors(terms: dict, exact: dict) -> tuple[list[str], float]:
    """Terms above their exact value, and the largest relative shortfall."""
    if terms.keys() != exact.keys():
        return [f"supremum terms {sorted(terms)} differ from reference {sorted(exact)}"], 0.0
    errors, gap = [], 0.0
    for name, value in terms.items():
        ref = exact[name]
        if value > ref + ROUNDING_RTOL * abs(ref):
            errors.append(f"term {name} = {value!r} exceeds its exact value {ref!r}")
        if ref > 0:
            gap = max(gap, (ref - value) / ref)
    return errors, gap


def ratio_relerr(ratio, exact_ratio) -> float:
    if ratio is None or exact_ratio is None:
        return 0.0 if ratio is exact_ratio else 1.0
    return abs(ratio - exact_ratio) / exact_ratio


def verify_check(report: dict, u, ref: dict) -> tuple[list[str], float, float]:
    """Compare one check report with its exact reference.

    Returns the errors (empty when the check passes), the ratio's relative
    error and the largest relative shortfall of a supremum term.
    """
    errors = []
    if report["status"] != ref["status"]:
        errors.append(f"status {report['status']!r}, reference {ref['status']!r}")
    errors += witness_errors(report, u)
    bad_terms, gap = term_errors(sup_terms(report), ref["terms"])
    return errors + bad_terms, ratio_relerr(report["ratio"], ref["ratio"]), gap
