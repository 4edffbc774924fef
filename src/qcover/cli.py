"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failed, 2 invalid input or
parameters (and any unexpected error, reported on one stderr line with its
type and no traceback), 3 enumeration budget exceeded, 141 stdout closed by
its reader (a broken pipe, as a shell reports SIGPIPE; nothing is printed and
the process's stdout goes to os.devnull from then on).  Every command prints
a final machine-readable line
`RESULT: <command> <params> verdict=<v> size=<s>`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds as bounds_mod
from . import constructions as cons
from . import designs
from .fields import FieldError, get_gf, is_prime, vec_pack
from .subspaces import BudgetError, span

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 128 + 13  # 13 is SIGPIPE


def _result(command: str, params: str, verdict, size) -> None:
    print(f"RESULT: {command} {params} verdict={verdict} size={size}")


def _recursive(args):
    s1 = designs.load_design(args.s1)
    s2 = designs.load_design(args.s2)
    if (s2.q, s2.n, s2.k) != (s1.q, s1.n, s1.k + 1):
        raise ValueError(f"--s2 must have the q and n of --s1 and "
                         f"k one larger: --s1 has q={s1.q} n={s1.n} k={s1.k}, "
                         f"--s2 has q={s2.q} n={s2.n} k={s2.k}")
    if not 1 <= args.r <= s2.k:
        raise ValueError(f"--r must be in 1..{s2.k} (at most the k of --s2), "
                         f"got {args.r}")
    return cons.recursive_covering(s1, s2, args.r)


def _lift(args):
    design = designs.load_design(args.input)
    if design.k < 1:
        raise ValueError(f"--input must be a line covering, with k >= 1: "
                         f"{args.input} has k={design.k}")
    return cons.lift_covering(design, args.delta)


def _partial_spread(args):
    design, residual = cons.partial_spread(args.q, args.rho, args.n)
    print(f"residual subspace dimension: {residual.dim}")
    return design


# Each construction kind, in the order `construct --help` lists them: the
# flags it reads, the only ones its subparser takes besides -o, and its
# builder.  q must be a prime power (a prime for the kinds built on a field
# tower over GF(q), TOWER_KINDS), k at most n, r in 0..k (0..n without a k,
# and 1..k of --s2 for recursive, checked once --s2 is read) and n at most
# MAX_AMBIENT_N (n + delta for lift), which each builder checks first.
CONSTRUCTIONS = {
    "spread": (("q", "k", "n"), lambda a: cons.spread(a.q, a.k, a.n)),
    "lift": (("input", "delta"), _lift),
    "partial-spread": (("q", "rho", "n"), _partial_spread),
    "line-covering": (("q", "n", "k"),
                      lambda a: cons.optimal_line_covering(a.q, a.n, a.k)),
    "turan-dual": (("q", "n", "k"),
                   lambda a: cons.turan_dual_covering(a.q, a.n, a.k)),
    "recursive": (("s1", "s2", "r"), _recursive),
    "gf64": ((), lambda a: cons.gf64_covering_design()),
    "greedy": (("q", "n", "k", "r"),
               lambda a: cons.greedy_covering(a.q, a.n, a.k, a.r)),
    "trivial": (("q", "n", "r"), lambda a: cons.trivial_steiner(a.q, a.n, a.r)),
}
TOWER_KINDS = ("spread", "partial-spread", "line-covering")
# Each flag of CONSTRUCTIONS: its type, default (None: the flag is required),
# least value (None: only the range checks above bound it) and help.
FLAGS = {
    "q": (int, 2, 1, "field size, a prime power"),
    "n": (int, None, 1, "ambient dimension"),
    "k": (int, None, 1, "block dimension"),
    "r": (int, None, None, "dimension of the covered subspaces"),
    "rho": (int, None, 1, "block dimension"),
    "delta": (int, 0, 0, "dimensions to add"),
    "input": (str, None, None, "C_q[n,k,1] design file"),
    "s1": (str, None, None, "C_q[n-1,k-1,r-1] design file"),
    "s2": (str, None, None, "C_q[n-1,k,r] design file"),
}


def cmd_construct(args) -> int:
    needed = CONSTRUCTIONS[args.kind][0]
    for name in needed:
        least, value = FLAGS[name][2], getattr(args, name)
        if least is not None and value < least:
            raise ValueError(f"--{name} must be at least {least}, got {value}")
    if "q" in needed:
        try:
            get_gf(args.q)
        except FieldError as exc:
            raise ValueError(f"--q {args.q}: {exc}") from exc
        if args.kind in TOWER_KINDS and not is_prime(args.q):
            raise ValueError(f"--q must be prime for construct {args.kind}, "
                             f"got {args.q}")
    if "k" in needed and "n" in needed and args.k > args.n:
        raise ValueError(f"--k must be at most --n={args.n}, got {args.k}")
    if "r" in needed and ("k" in needed or "n" in needed):
        high, bound = (args.k, "--k") if "k" in needed else (args.n, "--n")
        if not 0 <= args.r <= high:
            raise ValueError(f"--r must be in 0..{high} (at most {bound}), "
                             f"got {args.r}")
    design = CONSTRUCTIONS[args.kind][1](args)
    if args.output:
        designs.save_design(design, args.output)
        print(f"wrote {len(design)} blocks to {args.output}")
    params = args.kind
    if args.kind == "partial-spread":  # its builder printed the residual
        params += f" q={args.q} rho={args.rho} n={args.n}"
    else:
        print(f"construction {args.kind}: {len(design)} blocks, verified")
    _result("construct", params, True, len(design))
    return EXIT_OK


def cmd_verify(args) -> int:
    design = designs.load_design(args.design)
    # --r is the target dimension r <= k, or for turan the superspace dim k
    low, high = (design.k, design.n) if args.mode == "turan" else (0, design.k)
    if not low <= args.r <= high:
        raise ValueError(f"--r must be in {low}..{high} for mode {args.mode} "
                         f"on a design with n={design.n} k={design.k}, "
                         f"got {args.r}")
    if args.mode == "covering":
        report = designs.verify_covering(design, args.r)
        verdict = report.is_covering
    elif args.mode == "steiner":
        report = designs.verify_covering(design, args.r)
        verdict = report.is_steiner
    else:
        report = designs.verify_turan(design, args.r)
        verdict = report.is_covering
    print(report.summary())
    for w in report.witnesses:
        print(f"uncovered witness: {w}")
    _result("verify", f"{args.design} mode={args.mode} r={args.r}",
            verdict, len(design))
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_bounds(args) -> int:
    if args.q not in (2, 3):
        raise ValueError(f"--q must be 2 or 3 for the bound table, got {args.q}")
    if not 1 <= args.n_max <= 12:
        raise ValueError(f"--n-max must be in 1..12, got {args.n_max}")
    table = bounds_mod.bound_table(args.q, args.n_max)
    if args.filter:
        try:
            n, k, r = (int(x) for x in args.filter.split(","))
        except ValueError:
            raise ValueError(f"--filter must be n,k,r, got {args.filter!r}")
        if (n, k, r) not in table:
            raise ValueError(f"--filter ({n},{k},{r}) is not in the table "
                             f"for q={args.q} n<={args.n_max}")
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
        raise ValueError(f"expand needs a q=2 design, {args.design} "
                         f"has q={design.q}")
    if design.k < 2:
        raise ValueError(f"expand needs a design with k >= 2, "
                         f"{args.design} has k={design.k}")
    try:
        system = cons.expand_to_steiner_system(design)
    except BudgetError as exc:
        raise BudgetError(f"{args.design}: {exc}") from exc
    designs.save_setsystem(system, args.output)
    print(f"expanded to S(3,{system.block_size},{system.v}) "
          f"with {len(system.blocks)} blocks")
    _result("expand", args.design, True, len(system.blocks))
    return EXIT_OK


def cmd_derive(args) -> int:
    design = designs.load_design(args.design)
    q, n = design.q, design.n
    if design.k < 2:
        raise ValueError(f"derive needs a design with k >= 2, "
                         f"{args.design} has k={design.k}")
    if not 2 <= args.t <= design.k:
        raise ValueError(f"--t must be in 2..{design.k} for a design with "
                         f"k={design.k}, got {args.t}")
    if len(args.point) != n or any(ch not in "0123456789"[:q] for ch in args.point):
        raise ValueError(f"--point must be {n} digits in 0..{q - 1}, "
                         f"got {args.point!r}")
    point = span(q, n, [vec_pack(q, map(int, args.point))])
    if point.dim != 1:
        raise ValueError("--point must be a nonzero vector")
    derived, report = cons.derive_steiner(design, args.t, point)
    if args.output:
        designs.save_design(derived, args.output)
    verdict = report.is_steiner
    print(report.summary())
    _result("derive", f"{args.design} t={args.t} point={args.point}",
            verdict, len(derived))
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_dualize(args) -> int:
    design = designs.load_design(args.design)
    dual = designs.dualize(design)
    designs.save_design(dual, args.output)
    _result("dualize", args.design, True, len(dual))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcover",
        description="Construct, verify and bound q-analog covering designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design and write it to a file")
    kinds = c.add_subparsers(dest="kind", required=True)
    for kind, (flags, _) in CONSTRUCTIONS.items():
        # no abbreviations: --r must not pass for --rho
        k = kinds.add_parser(kind, allow_abbrev=False)
        for name in flags:
            kind_type, default, _, text = FLAGS[name]
            k.add_argument(f"--{name}", type=kind_type, default=default,
                           required=default is None, help=text)
        k.add_argument("-o", "--output")
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


# The parser holds only the argument schema; parse_args makes a new
# Namespace per call and argparse looks up sys.stdout/sys.stderr when it
# prints, so one parser serves every call in the process.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process has no stdout
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left; the input was fine
        if sys.stdout is not None and sys.stdout is sys.__stdout__:
            # Send the process's stdout to os.devnull so that the flush at
            # exit does not fail again; a stream that an in-process caller
            # put in sys.stdout is the caller's to handle.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except cons.ConstructionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, KeyError, OSError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        message = " ".join(str(exc).split())
        print(f"unexpected error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
