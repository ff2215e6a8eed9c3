"""Command-line front end: build grid functions, compute norms, run checks,
sweeps, and ratio searches; emit JSON reports and CSV plot series.

Exit codes: 0 success, 1 an inequality-violation flag was raised, 2 input
error, a setting that changes nothing included.  Flags override values from an
optional JSON config file, which is parsed as flags are, and every output
embeds the tool version and the resolved configuration.
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
from .interp import InterpSpec, Variant, _resolution_of, check
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


def _reject(cfg: dict, keys, why: str) -> None:
    """A setting that changes nothing would still be echoed under ``config``:
    the first of ``keys`` that is given exits 2, named by its flag."""
    for key in keys:
        if key in cfg:
            raise InputError(f"--{key} has no effect {why}")


_LATTICE_KEYS = ["expr", "box", "T", "res", "tres"]
_WITH_CSV = "with --csv, whose file fixes the grid"


def _build_input(cfg: dict) -> GridFunction:
    """The grid of ``--csv``, or of ``--expr`` on the lattice its flags set."""
    if "csv" in cfg:
        return grid_from_csv(cfg["csv"])
    if not cfg.get("expr"):
        raise InputError("provide --expr (with --dim/--box/--res) or --csv")
    n_dim = cfg.get("dim", 1)
    lows, highs = _parse_box(cfg.get("box", "0,1"), n_dim)
    horizon = cfg.get("T", 0.0)
    res = _parse_res(cfg.get("res", "64"), n_dim)
    if horizon <= 0:
        _reject(cfg, ["tres"], "without a positive --T; a grid with T = 0 has no time steps")
    tres = cfg.get("tres", res[0]) if horizon > 0 else 0
    tree = expr_mod.parse(cfg["expr"], n_dim)
    return make_grid_function(Domain(lows, highs, horizon), res, tres,
                              expr_mod.as_grid_callable(tree))


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file as ``--key=value`` tokens, so that its values get
    the same ``type`` and ``choices`` as the flags.  A key the subcommand does
    not read would be echoed without effect, so it is an error."""
    with open(args.config) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise InputError("config file must hold a JSON object")
    keys = list(_settings(args))
    tokens = []
    for key, val in loaded.items():
        if key not in keys:
            raise InputError(f"config key {key!r} is not read by {args.command}; "
                             f"it reads {', '.join(keys)}")
        if isinstance(val, bool) or not isinstance(val, (int, float, str)):
            raise InputError(f"config key {key!r} must be a number or a string in the "
                             f"syntax of --{key}, got {json.dumps(val)}")
        tokens.append(f"--{key}={val}")
    return tokens


def _settings(args: argparse.Namespace) -> dict:
    """Flag name to value for every setting of the subcommand, given or not."""
    return {dest.replace("_", "-"): val for dest, val in vars(args).items()
            if dest not in ("command", "func", "config")}


# -- subcommands ---------------------------------------------------------------------


def _need(cfg: dict, key: str, why: str) -> float:
    if key not in cfg:
        raise InputError(f"--{key} is required {why}")
    return cfg[key]


# the flags each norm kind reads; --l stands in for a missing Hoelder exponent
_NORM_FLAGS = ["l", "p", "alpha", "exponent", "beta", "lt", "k", "form"]
_NORM_READS = {"sup": [], "lp": ["p"], "sup-t-lp": ["p"], "holder": ["alpha", "beta", "lt"],
               "holder-time": ["exponent", "beta", "lt"], "parabolic": ["l"], "elliptic": ["l"],
               "dq": ["l", "k", "lt", "form"]}


def cmd_norm(cfg: dict) -> int:
    kind = cfg.get("kind", "sup")
    reads = _NORM_READS[kind]
    if kind.startswith("holder") and reads[0] not in cfg:
        reads = ["l"] + reads[1:]
    _reject(cfg, [key for key in _NORM_FLAGS if key not in reads], f"with --kind {kind}")
    if kind == "dq" and cfg.get("form") != "split":
        _reject(cfg, ["lt"], "with --kind dq unless --form split")
    if "csv" in cfg:
        _reject(cfg, _LATTICE_KEYS + ["dim"], _WITH_CSV)
    u = _build_input(cfg)
    beta = cfg.get("beta")
    beta = None if beta is None else tuple(int(b) for b in beta.split(","))
    lt = cfg.get("lt", 0)

    if kind == "sup":
        report = sup_norm(u)
    elif kind == "lp":
        report = lp_norm(u, _need(cfg, "p", "for --kind lp"))
    elif kind == "sup-t-lp":
        report = sup_t_lp_norm(u, _need(cfg, "p", "for --kind sup-t-lp"))
    elif kind.startswith("holder"):
        seminorm = holder_seminorm_space if kind == "holder" else holder_seminorm_time
        if reads[0] not in cfg:
            raise InputError(f"--{_NORM_READS[kind][0]} (or --l) is required for --kind {kind}")
        report = seminorm(u, cfg[reads[0]], beta, lt)
    elif kind == "parabolic":
        report = parabolic_norm(u, _need(cfg, "l", "for --kind parabolic"))
    elif kind == "elliptic":
        report = elliptic_norm(u, _need(cfg, "l", "for --kind elliptic"))
    else:  # dq
        l_val = _need(cfg, "l", "for --kind dq")
        default = DiffSeminormSpec.default_for(l_val)
        spec = DiffSeminormSpec(cfg.get("k", default.k), cfg.get("lt", default.l_t))
        report = diff_quotient_seminorm(u, l_val, spec, cfg.get("form", "joint"))

    # the lattice, defaults and CSV included, as a check report records it
    _emit(_envelope(cfg, {"report": report.to_json_dict(), "resolution": _resolution_of(u)}),
          cfg.get("out"))
    return 0


def _spec_from_cfg(cfg: dict) -> InterpSpec:
    """The inequality of the spec flags; ``InterpSpec`` rejects an unknown
    variant and a field its variant does not read."""
    return InterpSpec(
        variant=cfg.get("variant", ""),
        l1=cfg.get("l1", 0.0),
        l=cfg.get("l"),
        l2=_need(cfg, "l2", "for inequality checks"),
        p=cfg.get("p"),
        N=cfg.get("dim", 1),
    )


def cmd_check(cfg: dict) -> int:
    spec = _spec_from_cfg(cfg)
    if "csv" in cfg:
        _reject(cfg, ["sweep"] + _LATTICE_KEYS, _WITH_CSV)
    sweep = cfg.get("sweep")
    if sweep is None:
        _reject(cfg, ["csv-out"], "without --sweep, whose (resolution, ratio) series it holds")
        reports = [check(spec, _build_input(cfg))]
    else:
        _reject(cfg, ["res", "tres"], "with --sweep, which sets the steps of each grid")
        sweep = [int(r) for r in sweep.split(",")]
        reports = [check(spec, _build_input({**cfg, "res": str(res)})) for res in sweep]

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


def cmd_search(cfg: dict) -> int:
    spec = _spec_from_cfg(cfg)
    seed = cfg.get("seed", 0)
    family = Family(kind=cfg.get("family", "trig"))
    res = cfg.get("res", "64")
    if "," in res:
        raise InputError(f"--res of search takes one number of steps for every axis, "
                         f"got {res!r}")
    if spec.is_elliptic:
        _reject(cfg, ["tres"], f"with variant {spec.variant.value}, whose search grids "
                               "have T = 0")
    refine_steps = cfg.get("refine-steps", 0)
    if not refine_steps:
        _reject(cfg, ["step-scale"], "without a nonzero --refine-steps")

    result = random_search(spec, family, cfg.get("budget", 100), seed, resolution=int(res),
                           time_resolution=cfg.get("tres"))
    if refine_steps:
        result = refine_search(result, family, refine_steps, cfg.get("step-scale", 0.1), seed)

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


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}")
    p.add_argument("--l1", type=float)
    p.add_argument("--l", type=float, help="intermediate index (variants 2.1/2.2)")
    p.add_argument("--l2", type=float)
    p.add_argument("--p", type=float)


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
    _add_spec_flags(p_check)
    p_check.add_argument("--sweep", help="comma-separated resolutions, e.g. '64,128,256'")
    p_check.add_argument("--csv-out", help="CSV path for the (resolution, ratio) series")
    p_check.set_defaults(func=cmd_check)

    p_search = sub.add_parser("search", help="maximize a ratio over a family")
    _add_spec_flags(p_search)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values go first, so that a flag given as well wins
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        return args.func({key: val for key, val in _settings(args).items() if val is not None})
    except (ValueError, KeyError, OSError, expr_mod.ExprDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
