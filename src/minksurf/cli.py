"""Command-line interface.

Commands:
  analyze   full pointwise report over a grid
  classify  pointwise predicate labels only
  verify    grid-sampled consistency check of a registered equivalence
  catalog   list the built-in surface families

Exit codes: 0 success / consistent verdict; 1 verify found one side of
an equivalence passing and the other failing; 2 usage, parse, or config
errors; 3 every point of the grid was skipped (degenerate or not
space-like, or an arithmetic failure such as log of a negative value).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional

from . import expr as ex
from . import gaussmap as gm
from . import jets as jt
from . import report as rp
from . import surfaces as sf
from .geometry import DEFAULT_TOLERANCES

__all__ = ["main"]


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        left, right = text.lower().split("x")
        return int(left), int(right)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"grid must look like 7x7, got {text!r}") from err


def _domain_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"domain must be four comma-separated reals, got {text!r}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"domain must be four comma-separated reals, got {text!r}"
        ) from err
    return a, b, c, d


def _param_arg(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"parameter must look like name=value, got {text!r}")
    try:
        return key, float(raw)
    except ValueError:
        return key, raw  # expression-valued parameter, parsed later


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--catalog", help="built-in surface family name")
    sp.add_argument("--surface-file", help="path to a surface definition")
    sp.add_argument("--param", action="append", default=[], type=_param_arg,
                    metavar="NAME=VALUE",
                    help="surface parameter (repeatable)")
    sp.add_argument("--grid", type=_grid_arg, default=(7, 7), metavar="NxM",
                    help="grid resolution (default 7x7)")
    sp.add_argument("--domain", type=_domain_arg, metavar="a,b,c,d",
                    help="override the parameter rectangle")
    sp.add_argument("--order", type=int, choices=jt.SUPPORTED_ORDERS,
                    default=3, help="jet order (4 enables the bilaplacian)")
    sp.add_argument("--tol", type=float, default=None,
                    help="residual / verdict tolerance (default 1e-8)")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    dest="fmt", help="output format")
    sp.add_argument("--out", help="write the report here instead of stdout")
    sp.add_argument("--jobs", type=int, default=None,
                    help="accepted for compatibility; has no effect (grids "
                         "run as batches in one process)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so one serves every call
    parser = argparse.ArgumentParser(
        prog="minksurf",
        description="Pointwise invariants and Gauss map diagnostics for "
                    "space-like surfaces in a 4d Minkowski ambient space.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser(
        "analyze", help="full pointwise report over a grid"))
    _add_common(sub.add_parser(
        "classify", help="pointwise predicate labels over a grid"))
    spv = sub.add_parser(
        "verify", help="check a registered equivalence on a grid sample")
    spv.add_argument("theorem", help="registry id, e.g. T4.4; see README")
    _add_common(spv)
    spc = sub.add_parser("catalog", help="list built-in surface families")
    spc.add_argument("--format", choices=("json", "csv"), default="json",
                     dest="fmt", help="output format")
    spc.add_argument("--out", help="write the listing here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> rp.RunConfig:
    if args.command == "catalog":
        return rp.RunConfig(command="catalog", fmt=args.fmt, out=args.out)
    keys = [key for key, _ in args.param]
    repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
    if repeated:
        raise ValueError(f"duplicate parameter {repeated[0]!r}")
    tol = DEFAULT_TOLERANCES
    if args.tol is not None:
        tol = tol._replace(residual=args.tol)
    return rp.RunConfig(
        command=args.command,
        catalog=args.catalog,
        surface_file=args.surface_file,
        params=dict(args.param),
        grid=args.grid,
        domain=args.domain,
        order=args.order,
        tol=tol,
        fmt=args.fmt,
        out=args.out,
        jobs=args.jobs,
        theorem=getattr(args, "theorem", None),
    )


# argparse reads a token that starts with "-" as an option unless it is
# a plain negative number, so "--domain -1,1,0,1" would lack its value.
# A bound list after --domain is joined to the flag; an option name after
# it ("--domain --out x") is still a usage error.  re caches the pattern.
def _join_domain(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if (out and out[-1] == "--domain"
                and re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE)):
            out[-1] = "--domain=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(_join_domain(sys.argv[1:] if argv is None
                                             else list(argv)))
    try:
        cfg = _config_from_args(args)
        result = rp.run(cfg)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(result.text)
    except (ex.ParseError, sf.UnknownSurface, sf.MissingParameter,
            jt.UnsupportedOrder, gm.UnknownTheorem, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not cfg.out:
        sys.stdout.write(result.text)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
