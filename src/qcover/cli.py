"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failed, 2 invalid input or
parameters, 3 enumeration budget exceeded.  Every command prints a final
machine-readable line `RESULT: <command> <params> verdict=<v> size=<s>`.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import constructions as cons
from . import designs
from .designs import FormatError
from .fields import FieldError
from .subspaces import BudgetError, span

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _result(command: str, params: str, verdict, size) -> None:
    print(f"RESULT: {command} {params} verdict={verdict} size={size}")


def _write_design(design, path):
    designs.save_design(design, path)
    print(f"wrote {len(design.blocks)} blocks to {path}")


# Arguments each construction reads; the integer ones among q, n, k, rho
# must be at least 1.
CONSTRUCT_ARGS = {
    "spread": ("q", "k", "n"),
    "trivial": ("q", "n", "r"),
    "lift": ("input",),
    "partial-spread": ("q", "rho", "n"),
    "line-covering": ("q", "n", "k"),
    "turan-dual": ("q", "n", "k"),
    "recursive": ("s1", "s2", "r"),
    "gf64": (),
    "greedy": ("q", "n", "k", "r"),
}


def _bad_construct_arg(args):
    """Message naming the first missing or out-of-range argument, or None."""
    for name in CONSTRUCT_ARGS[args.kind]:
        value = getattr(args, name)
        if value is None:
            return f"construct {args.kind} needs --{name}"
        if name in ("q", "n", "k", "rho") and value < 1:
            return f"--{name} must be at least 1, got {value}"
    return None


def cmd_construct(args) -> int:
    kind = args.kind
    bad = _bad_construct_arg(args)
    if bad:
        print(f"invalid input: {bad}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if kind == "spread":
        design = cons.spread(args.q, args.k, args.n)
    elif kind == "trivial":
        design = cons.trivial_steiner(args.q, args.n, args.r)
    elif kind == "lift":
        base = designs.load_design(args.input)
        design = cons.lift_covering(base, args.delta)
    elif kind == "partial-spread":
        ps = cons.partial_spread(args.q, args.rho, args.n)
        design = designs.SubspaceDesign.from_blocks(
            ps.blocks, q=ps.q, n=ps.n, k=ps.rho,
            label=f"partial-spread[{ps.rho},{ps.n}]_{ps.q}")
        print(f"residual subspace dimension: {ps.residual.dim}")
        if args.output:
            _write_design(design, args.output)
        _result("construct", f"partial-spread q={args.q} rho={args.rho} n={args.n}",
                True, len(design.blocks))
        return EXIT_OK
    elif kind == "line-covering":
        design = cons.optimal_line_covering(args.q, args.n, args.k)
    elif kind == "turan-dual":
        design = cons.turan_dual_covering(args.q, args.n, args.k)
    elif kind == "recursive":
        s1 = designs.load_design(args.s1)
        s2 = designs.load_design(args.s2)
        if (s2.q, s2.n, s2.k) != (s1.q, s1.n, s1.k + 1):
            print(f"invalid input: --s2 must have the q and n of --s1 and "
                  f"k one larger: --s1 has q={s1.q} n={s1.n} k={s1.k}, "
                  f"--s2 has q={s2.q} n={s2.n} k={s2.k}", file=sys.stderr)
            return EXIT_BAD_INPUT
        design = cons.recursive_covering(s1, s2, args.r)
    elif kind == "gf64":
        design = cons.gf64_covering_design()
    elif kind == "greedy":
        design = cons.greedy_covering(args.q, args.n, args.k, args.r)
    else:
        raise argparse.ArgumentTypeError(f"unknown construction {kind!r}")
    if args.output:
        _write_design(design, args.output)
    print(f"construction {kind}: {len(design.blocks)} blocks, verified")
    _result("construct", kind, True, len(design.blocks))
    return EXIT_OK


def cmd_verify(args) -> int:
    design = designs.load_design(args.design)
    if args.mode == "covering":
        report = designs.verify_covering(design, args.r)
        verdict = report.is_covering
    elif args.mode == "steiner":
        report = designs.verify_steiner(design, args.r)
        verdict = report.is_steiner
    else:
        report = designs.verify_turan(design, args.r)
        verdict = report.is_covering
    print(report.summary())
    for w in report.witnesses:
        print(f"uncovered witness: {w}")
    _result("verify", f"{args.design} mode={args.mode} r={args.r}",
            verdict, len(design.blocks))
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_bounds(args) -> int:
    if args.n_max < 1:
        print(f"invalid input: --n-max must be at least 1, got {args.n_max}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    table = bounds_mod.bound_table(args.q, args.n_max)
    if args.filter:
        try:
            n, k, r = (int(x) for x in args.filter.split(","))
        except ValueError:
            print("filter must be n,k,r", file=sys.stderr)
            return EXIT_BAD_INPUT
        if (n, k, r) not in table:
            print(f"no entry for ({n},{k},{r})", file=sys.stderr)
            return EXIT_BAD_INPUT
        rec = table[(n, k, r)]
        print(bounds_mod.format_table({(n, k, r): rec}, csv=args.csv))
        _result("bounds", f"q={args.q} {n},{k},{r}",
                f"{rec.lower}<=C<={rec.upper}",
                rec.lower if rec.exact else f"{rec.lower}..{rec.upper}")
    else:
        print(bounds_mod.format_table(table, csv=args.csv))
        _result("bounds", f"q={args.q} n_max={args.n_max}", True, len(table))
    return EXIT_OK


def cmd_expand(args) -> int:
    design = designs.load_design(args.design)
    if design.q != 2:
        print(f"invalid input: expand needs a q=2 design, {args.design} "
              f"has q={design.q}", file=sys.stderr)
        return EXIT_BAD_INPUT
    system = cons.expand_to_steiner_system(design)
    designs.save_setsystem(system, args.output)
    report = designs.verify_steiner_system(system, 3)
    print(f"expanded to S(3,{system.block_size},{system.v}) "
          f"with {len(system.blocks)} blocks")
    _result("expand", args.design, report.is_steiner, len(system.blocks))
    return EXIT_OK if report.is_steiner else EXIT_VERIFY_FAILED


def cmd_derive(args) -> int:
    design = designs.load_design(args.design)
    q, n = design.q, design.n
    if len(args.point) != n or any(ch not in "0123456789"[:q] for ch in args.point):
        print(f"invalid input: --point must be {n} digits in 0..{q - 1}, "
              f"got {args.point!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    vec = tuple(int(ch) for ch in args.point)
    point = span(q, n, [vec])
    if point.dim != 1:
        print("invalid input: --point must be a nonzero vector", file=sys.stderr)
        return EXIT_BAD_INPUT
    derived, report = cons.derive_steiner(design, args.t, point)
    if args.output:
        designs.save_design(derived, args.output)
    verdict = report.is_steiner
    print(report.summary())
    _result("derive", f"{args.design} t={args.t} point={args.point}",
            verdict, len(derived.blocks))
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_dualize(args) -> int:
    design = designs.load_design(args.design)
    dual = designs.dualize(design)
    designs.save_design(dual, args.output)
    _result("dualize", args.design, True, len(dual.blocks))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcover",
        description="Construct, verify and bound q-analog covering designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design and write it to a file")
    c.add_argument("kind", choices=["spread", "lift", "partial-spread",
                                    "line-covering", "turan-dual", "recursive",
                                    "gf64", "greedy", "trivial"])
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--rho", type=int)
    c.add_argument("--delta", type=int, default=0)
    c.add_argument("--input", help="input design file (lift)")
    c.add_argument("--s1", help="C_q[n-1,k-1,r-1] design file (recursive)")
    c.add_argument("--s2", help="C_q[n-1,k,r] design file (recursive)")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a design file")
    v.add_argument("design")
    v.add_argument("--mode", choices=["covering", "turan", "steiner"],
                   required=True)
    v.add_argument("--r", type=int, required=True,
                   help="target dimension r (covering/steiner) or k (turan)")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="print the bound table")
    b.add_argument("--q", type=int, default=2)
    b.add_argument("--n-max", dest="n_max", type=int, default=7)
    b.add_argument("--filter", help="n,k,r")
    b.add_argument("--csv", action="store_true")
    b.set_defaults(func=cmd_bounds)

    e = sub.add_parser("expand", help="expand S_2[2,k,n] to S(3,2^k,2^n)")
    e.add_argument("design")
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_expand)

    d = sub.add_parser("derive", help="derived Steiner structure at a point")
    d.add_argument("design")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("--point", required=True, help="digit string of length n")
    d.add_argument("-o", "--output")
    d.set_defaults(func=cmd_derive)

    z = sub.add_parser("dualize", help="orthogonal complement of every block")
    z.add_argument("design")
    z.add_argument("-o", "--output", required=True)
    z.set_defaults(func=cmd_dualize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except cons.ConstructionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (FormatError, FieldError, ValueError, KeyError, OSError,
            TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
