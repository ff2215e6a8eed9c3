"""Command-line front end: build grid functions, compute norms, run checks,
sweeps, and ratio searches; emit JSON reports and CSV plot series.

Exit codes: 0 success, 1 an inequality-violation flag was raised, 2 input
error.  Flags override values from an optional JSON config file, and every
output embeds the tool version and the resolved configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
import tempfile
import time

from . import __version__
from . import expr as expr_mod
from .grid import Domain, GridFunction, grid_from_csv, make_grid_function
from .interp import CheckReport, InterpSpec, Variant, check
from .norms import (
    DiffSeminormSpec,
    diff_quotient_seminorm,
    elliptic_norm,
    holder_seminorm_space,
    holder_seminorm_time,
    lp_norm,
    parabolic_norm,
    sup_norm,
    sup_t_lp_norm,
)
from .search import Family, SearchResult, build_candidate, random_search, refine_search

VARIANTS = [v.value for v in Variant]


class InputError(ValueError):
    pass


# -- output ---------------------------------------------------------------------


def _atomic_write_text(path: str, text: str, newline: str | None = None) -> None:
    """Replace ``path`` with ``text`` through a renamed temporary file.  The
    file keeps its mode, or gets the one ``open()`` would give it."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".holonorm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        _atomic_write_text(out_path, text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)


def _envelope(config: dict, body: dict) -> dict:
    return {
        "tool": "holonorm",
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config,
        **body,
    }


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue(), newline="")
    print(f"wrote {path}")


# -- input construction ------------------------------------------------------------


def _parse_box(text: str, n_dim: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    axes = [a for a in text.split(";") if a.strip()]
    if len(axes) == 1 and n_dim > 1:
        axes = axes * n_dim
    if len(axes) != n_dim:
        raise InputError(f"--box needs {n_dim} 'lo,hi' groups separated by ';', got {text!r}")
    lows, highs = [], []
    for a in axes:
        parts = a.split(",")
        if len(parts) != 2:
            raise InputError(f"--box group {a!r} must be 'lo,hi'")
        lows.append(float(parts[0]))
        highs.append(float(parts[1]))
    return tuple(lows), tuple(highs)


def _parse_res(text: str, n_dim: int) -> tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return (int(parts[0]),) * n_dim
    if len(parts) != n_dim:
        raise InputError(f"--res needs 1 or {n_dim} integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _opt(cfg: dict, key: str, default):
    """``cfg[key]``, or ``default`` when the key is missing or null; a 0 is a
    value like any other."""
    val = cfg.get(key)
    return default if val is None else val


def _build_input(cfg: dict) -> GridFunction:
    if cfg.get("csv"):
        return grid_from_csv(cfg["csv"])
    if not cfg.get("expr"):
        raise InputError("provide --expr (with --dim/--box/--res) or --csv")
    n_dim = int(_opt(cfg, "dim", 1))
    lows, highs = _parse_box(_opt(cfg, "box", "0,1"), n_dim)
    horizon = float(_opt(cfg, "T", 0.0))
    res = _parse_res(str(_opt(cfg, "res", 64)), n_dim)
    if horizon <= 0 and cfg.get("tres") is not None:
        raise InputError("--tres needs a positive --T; a grid with T = 0 has no time steps")
    tres = int(_opt(cfg, "tres", res[0])) if horizon > 0 else 0
    tree = expr_mod.parse(cfg["expr"], n_dim)
    return make_grid_function(Domain(lows, highs, horizon), res, tres,
                              expr_mod.as_grid_callable(tree))


def _resolved(args: argparse.Namespace, keys: list[str]) -> dict:
    """Merge the config file (if any) with flags; flags win.  A config key
    outside ``keys`` would be echoed without effect, so it is an error."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        unknown = [key for key in loaded if key not in keys]
        if unknown:
            raise InputError(f"config key {unknown[0]!r} is not read by {args.command}; "
                             f"it reads {', '.join(keys)}")
        cfg.update(loaded)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


# -- subcommands ---------------------------------------------------------------------


_INPUT_KEYS = ["expr", "dim", "box", "T", "res", "tres", "csv"]


def _need(cfg: dict, key: str, why: str) -> float:
    if cfg.get(key) is None:
        raise InputError(f"--{key} is required {why}")
    return float(cfg[key])


def cmd_norm(args: argparse.Namespace) -> int:
    cfg = _resolved(args, _INPUT_KEYS + ["kind", "l", "p", "alpha", "exponent",
                                         "beta", "lt", "k", "form", "out"])
    u = _build_input(cfg)
    kind = _opt(cfg, "kind", "sup")
    beta = cfg.get("beta")
    beta = None if beta is None else tuple(int(b) for b in str(beta).split(","))
    lt = int(_opt(cfg, "lt", 0))

    if kind == "sup":
        report = sup_norm(u)
    elif kind == "lp":
        report = lp_norm(u, _need(cfg, "p", "for --kind lp"))
    elif kind == "sup-t-lp":
        report = sup_t_lp_norm(u, _need(cfg, "p", "for --kind sup-t-lp"))
    elif kind == "holder":
        alpha = _opt(cfg, "alpha", cfg.get("l"))
        if alpha is None:
            raise InputError("--alpha (or --l) is required for --kind holder")
        report = holder_seminorm_space(u, float(alpha), beta, lt)
    elif kind == "holder-time":
        exp_t = _opt(cfg, "exponent", cfg.get("l"))
        if exp_t is None:
            raise InputError("--exponent (or --l) is required for --kind holder-time")
        report = holder_seminorm_time(u, float(exp_t), beta, lt)
    elif kind == "parabolic":
        report = parabolic_norm(u, _need(cfg, "l", "for --kind parabolic"))
    elif kind == "elliptic":
        report = elliptic_norm(u, _need(cfg, "l", "for --kind elliptic"))
    elif kind == "dq":
        l_val = _need(cfg, "l", "for --kind dq")
        if cfg.get("k") is not None:
            lt_q = int(_opt(cfg, "lt", DiffSeminormSpec.default_for(l_val).l_t))
            spec = DiffSeminormSpec(int(cfg["k"]), lt_q)
        else:
            spec = None
        report = diff_quotient_seminorm(u, l_val, spec, _opt(cfg, "form", "joint"))
    else:
        raise InputError(f"unknown norm kind {kind!r}")

    _emit(_envelope(cfg, {"report": report.to_json_dict()}), cfg.get("out"))
    return 0


def _spec_from_cfg(cfg: dict) -> InterpSpec:
    variant = str(_opt(cfg, "variant", ""))
    if variant not in VARIANTS:
        raise InputError(f"--variant must be one of {VARIANTS}, got {variant!r}")
    return InterpSpec(
        variant=Variant(variant),
        l1=float(_opt(cfg, "l1", 0.0)),
        l=cfg.get("l"),
        l2=_need(cfg, "l2", "for inequality checks"),
        p=cfg.get("p"),
        N=int(_opt(cfg, "dim", 1)),
    )


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _resolved(args, _INPUT_KEYS + ["variant", "l1", "l", "l2", "p", "sweep", "out",
                                         "csv-out"])
    spec = _spec_from_cfg(cfg)

    sweep = cfg.get("sweep")
    sweep = None if sweep is None else [int(r) for r in str(sweep).split(",")]
    for key in ("res", "tres"):
        if sweep and cfg.get(key) is not None:
            raise InputError(f"--{key} has no effect with --sweep, which sets the steps "
                             "of each grid")
    reports: list[CheckReport] = []
    if sweep:
        for res in sweep:
            sub = dict(cfg)
            sub["res"] = str(res)
            reports.append(check(spec, _build_input(sub)))
    else:
        reports.append(check(spec, _build_input(cfg)))

    body = {"reports": [r.to_json_dict() for r in reports]}
    if sweep:
        ratios = [r.ratio for r in reports]
        body["sweep"] = {"resolutions": sweep, "ratios": ratios}
        csv_out = cfg.get("csv-out") or (os.path.splitext(cfg["out"])[0] + ".csv"
                                         if cfg.get("out") else None)
        if csv_out:
            _write_csv(csv_out, ["resolution", "ratio"],
                       [[res, r.ratio] for res, r in zip(sweep, reports)])
    _emit(_envelope(cfg, body), cfg.get("out"))
    for res, rep in zip(sweep or ["-"], reports):
        print(f"variant {spec.variant.value} res={res}: status={rep.status} "
              f"ratio={rep.ratio}", file=sys.stderr)
    return 1 if any(r.violation for r in reports) else 0


def cmd_search(args: argparse.Namespace) -> int:
    cfg = _resolved(args, ["variant", "l1", "l", "l2", "p", "dim", "family",
                           "budget", "seed", "res", "tres", "refine-steps",
                           "step-scale", "out", "history-csv"])
    spec = _spec_from_cfg(cfg)
    seed = int(_opt(cfg, "seed", 0))
    family = Family(kind=str(_opt(cfg, "family", "trig")))
    res = str(_opt(cfg, "res", 64))
    if "," in res:
        raise InputError(f"--res of search takes one number of steps for every axis, "
                         f"got {res!r}")
    resolution = int(res)
    tres = cfg.get("tres")

    result = random_search(
        spec, family, int(_opt(cfg, "budget", 100)), seed,
        resolution=resolution, time_resolution=None if tres is None else int(tres),
    )
    refine_steps = int(_opt(cfg, "refine-steps", 0))
    if refine_steps:
        result = refine_search(result, family, refine_steps,
                               float(_opt(cfg, "step-scale", 0.1)), seed)

    probe = _constant_probe(spec, result)
    body = {
        "seed": seed,
        "result": result.to_json_dict(),
        "constant_probe": probe,
    }
    if cfg.get("history-csv"):
        _write_csv(cfg["history-csv"], ["iteration", "best_ratio"],
                   [[i, r] for i, r in enumerate(result.history)])
    _emit(_envelope(cfg, body), cfg.get("out"))
    return 0


def _constant_probe(spec: InterpSpec, result: SearchResult) -> dict:
    """Always evaluate the constant function as a reference candidate."""
    res = result.resolution
    u = build_candidate("1", spec, result.domain, res["resolution"], res["time_resolution"])
    report = check(spec, u)
    return {"expression": "1", "status": report.status, "ratio": report.ratio}


# -- argument parsing -----------------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="expression in x1..xN and t")
    p.add_argument("--dim", type=int, help="spatial dimension N")
    p.add_argument("--box", help="per-axis bounds 'lo,hi[;lo,hi...]'")
    p.add_argument("--T", type=float, help="time horizon (0 = purely spatial)")
    p.add_argument("--res", help="steps per spatial axis, e.g. '64' or '64,64'")
    p.add_argument("--tres", type=int, help="time steps (default: first --res)")
    p.add_argument("--csv", help="load the grid from a CSV lattice instead")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonorm",
        description="Discrete Hoelder/parabolic norms and interpolation-inequality checks",
    )
    parser.add_argument("--version", action="version", version=f"holonorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute a norm or seminorm")
    _add_input_flags(p_norm)
    p_norm.add_argument("--kind", choices=["sup", "lp", "sup-t-lp", "holder",
                                           "holder-time", "parabolic", "elliptic", "dq"])
    p_norm.add_argument("--l", type=float, help="regularity index (or Hoelder exponent)")
    p_norm.add_argument("--p", type=float, help="Lebesgue exponent")
    p_norm.add_argument("--alpha", type=float, help="spatial Hoelder exponent")
    p_norm.add_argument("--exponent", type=float, help="temporal Hoelder exponent")
    p_norm.add_argument("--beta", help="derivative multi-index, e.g. '1,0'")
    p_norm.add_argument("--lt", type=int, help="time-derivative order")
    p_norm.add_argument("--k", type=int, help="difference order for --kind dq")
    p_norm.add_argument("--form", choices=["joint", "split"])
    p_norm.set_defaults(func=cmd_norm)

    p_check = sub.add_parser("check", help="check one interpolation inequality")
    _add_input_flags(p_check)
    p_check.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}")
    p_check.add_argument("--l1", type=float)
    p_check.add_argument("--l", type=float, help="intermediate index (variants 2.1/2.2)")
    p_check.add_argument("--l2", type=float)
    p_check.add_argument("--p", type=float)
    p_check.add_argument("--sweep", help="comma-separated resolutions, e.g. '64,128,256'")
    p_check.add_argument("--csv-out", help="CSV path for the (resolution, ratio) series")
    p_check.set_defaults(func=cmd_check)

    p_search = sub.add_parser("search", help="maximize a ratio over a family")
    p_search.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}")
    p_search.add_argument("--l1", type=float)
    p_search.add_argument("--l", type=float)
    p_search.add_argument("--l2", type=float)
    p_search.add_argument("--p", type=float)
    p_search.add_argument("--dim", type=int)
    p_search.add_argument("--family", choices=["trig", "bump", "rough"])
    p_search.add_argument("--budget", type=int)
    p_search.add_argument("--seed", type=int, help="seed of the search's random draws")
    p_search.add_argument("--res", help="steps per spatial axis")
    p_search.add_argument("--tres", type=int)
    p_search.add_argument("--refine-steps", type=int)
    p_search.add_argument("--step-scale", type=float)
    p_search.add_argument("--history-csv")
    p_search.add_argument("--config")
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
