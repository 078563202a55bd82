"""Command-line front end: list, verify, eval, classify.

Exit codes: 0 all requested checks pass, 1 at least one identity fails or
stdout was closed early, 2 usage error (unknown identity/function, malformed
arguments).
Reports are emitted in catalog order as line-delimited JSON (default) or CSV.
An optional config file supplies defaults as `key = value` lines
(keys: order, tol, format; any other key is a usage error); explicit flags
override it.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys

from . import catalog, legendre, poisson
from .errors import GegenfunError, InvalidMu
from .gegenbauer import gegenbauer_recurrence
from .genfun import algebraicity
from .legendre import Branch


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


_CONFIG_KEYS = ("order", "tol", "format")


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = value
    return out


# parse_args keeps no state in the parser, so one parser serves every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gegenfun",
        description="Verify and evaluate Gegenbauer generating-function identities",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity catalog")

    v = sub.add_parser("verify", help="run identity verifications")
    v.add_argument("ids", nargs="+", help="identity ids, or 'all'")
    v.add_argument("--order", type=int, default=None, help="reporting order")
    v.add_argument("--tol", type=float, default=None, help="pass tolerance")
    v.add_argument("--x", type=float, action="append", default=None, help="override sample x (repeatable)")
    v.add_argument("--u", type=_parse_complex, action="append", default=None, help="override sample u (repeatable)")
    v.add_argument("--format", choices=("jsonl", "csv"), default=None)
    v.add_argument("--config", default=None, help="key = value defaults file")

    e = sub.add_parser("eval", help="evaluate a function")
    e.add_argument("function", help="K | E | gegenbauer | legendre | kernel | companion")
    e.add_argument("values", nargs="*", type=float, help="positional arguments (K/E modulus)")
    e.add_argument("--lambda", dest="lam", type=float)
    e.add_argument("--n", type=int)
    e.add_argument("--x", type=float)
    e.add_argument("--nu", type=float)
    e.add_argument("--mu", type=float)
    e.add_argument("--xi", type=float)
    e.add_argument("--theta", type=float)
    e.add_argument("--phi", type=float)
    e.add_argument("--t", type=float)
    e.add_argument("--z", type=float)
    e.add_argument("--variant", choices=("tilde", "z"), default="tilde")

    c = sub.add_parser("classify", help="classify parameters")
    c.add_argument("--lambda", dest="lam", type=float)
    c.add_argument("--gamma", type=float)
    c.add_argument("--nu", type=float)
    c.add_argument("--mu", type=float)
    return p


def _cmd_list() -> int:
    for entry in catalog.CATALOG:
        print(f"{entry.id:20s} {entry.description}")
    return 0


def _cmd_verify(args) -> int:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            cfg = _read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        order = args.order if args.order is not None else int(cfg.get("order", catalog.DEFAULT_ORDER))
        tol = args.tol if args.tol is not None else float(cfg.get("tol", catalog.DEFAULT_TOL))
    except ValueError as exc:
        print(f"error: malformed config value: {exc}", file=sys.stderr)
        return 2
    fmt = args.format if args.format is not None else cfg.get("format", "jsonl")
    if order < 0:
        print(f"error: order must be a non-negative integer, got {order}", file=sys.stderr)
        return 2
    if not (math.isfinite(tol) and tol >= 0.0):
        print(f"error: tol must be finite and non-negative, got {tol}", file=sys.stderr)
        return 2
    if fmt not in ("jsonl", "csv"):
        print(f"error: unknown format {fmt!r}", file=sys.stderr)
        return 2
    overrides = {"x": args.x, "u": args.u}
    for name, values in overrides.items():
        bad = [v for v in values or () if not cmath.isfinite(v)]
        if bad:
            print(f"error: --{name} must be finite, got {bad[0]}", file=sys.stderr)
            return 2

    wanted = list(args.ids)
    if wanted == ["all"]:
        ids = list(catalog.identity_ids())
    else:
        unknown = [i for i in wanted if i not in catalog.identity_ids()]
        if unknown:
            print(f"error: unknown identity id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        # run in catalog order, deterministically
        ids = [i for i in catalog.identity_ids() if i in set(wanted)]

    reports = [catalog.run_identity(i, order, tol, overrides) for i in ids]
    if fmt == "jsonl":
        for r in reports:
            print(catalog.report_to_json(r))
    else:
        sys.stdout.write(catalog.reports_to_csv(reports))
    return 0 if all(r.overall_pass for r in reports) else 1


def _require(args, names: list[str]) -> list[float]:
    vals = []
    for n in names:
        v = getattr(args, n)
        if v is None:
            raise ValueError(f"--{n} is required for this function")
        vals.append(v)
    return vals


def _eval_legendre(args) -> float:
    nu, mu = _require(args, ["nu", "mu"])
    if args.z is not None:
        branch = Branch.LEGENDRE if args.z > 1.0 else Branch.FERRERS
        served = legendre.closed_form(nu, mu, branch, on_z=True)
        if served is not None:
            try:
                return served[0](args.z)
            except InvalidMu:
                pass  # the closed form excludes this mu; the oracle does not
        return legendre.legendre_p_hypergeometric(nu, mu, args.z, branch).real
    if args.xi is not None:
        arg, branch = args.xi, Branch.LEGENDRE
    elif args.theta is not None:
        arg, branch = args.theta, Branch.FERRERS
    else:
        raise ValueError("provide --xi (hyperbolic), --theta (circular), or --z")
    served = legendre.closed_form(nu, mu, branch)
    if served is None:
        raise ValueError(
            f"no closed form implemented for ({nu}, {mu}) [{legendre.classify(nu, mu).primary.value}]; "
            "use --z for the hypergeometric definition"
        )
    return served[0](arg)


def _cmd_eval(args) -> int:
    try:
        fn = args.function.lower()
        if fn in ("k", "e"):
            if len(args.values) != 1:
                raise ValueError("K and E take one positional argument m")
            value = (poisson.elliptic_k if fn == "k" else poisson.elliptic_e)(args.values[0])
        elif fn == "gegenbauer":
            lam, x = _require(args, ["lam", "x"])
            if args.n is None:
                raise ValueError("--n is required for gegenbauer")
            value = gegenbauer_recurrence(lam, args.n, x)[args.n].real
        elif fn == "legendre":
            value = _eval_legendre(args)
        elif fn in ("kernel", "companion"):
            lam, theta, phi, t = _require(args, ["lam", "theta", "phi", "t"])
            k_args = poisson.KernelArgs(lam, theta, phi, t)
            f = poisson.poisson_kernel if fn == "kernel" else poisson.companion_kernel
            value = f(k_args, args.variant)
        else:
            print(f"error: unknown function {args.function!r}", file=sys.stderr)
            return 2
    except (ValueError, GegenfunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{float(value):.15g}")
    return 0


def _cmd_classify(args) -> int:
    if args.lam is not None and args.gamma is not None:
        verdict = algebraicity(args.lam, args.gamma)
        if verdict.algebraic:
            print(f"algebraic (clause {verdict.clause})")
        else:
            print("not algebraic")
        return 0
    if args.nu is not None and args.mu is not None:
        print(str(legendre.classify(args.nu, args.mu)))
        return 0
    print("error: provide --lambda/--gamma or --nu/--mu", file=sys.stderr)
    return 2


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_classify(args)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away: send the rest of the output to devnull so the
        # flush at exit cannot raise again, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
