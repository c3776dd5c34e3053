"""Command-line front end.

Subcommands: analyze, equation, catalog, tables, deform-check, schedule.
Exit codes: 0 on success, 2 for invalid input (the message names the violated
rule), 3 when a provably-true identity fails (always a bug).  Output bytes are
deterministic for fixed inputs: keys are sorted, rationals print as "p/q",
infinity as "inf", and nothing environment-dependent is emitted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog as cat
from .conic_bundle import blow_up_schedule, discriminant_deformed, discriminant_joyce
from .errors import (
    InternalInvariantError,
    InvalidFanError,
    InvalidParameterError,
    InvalidSequenceError,
)
from .exact import format_scalar, parse_scalar
from .invariants import analyze_sequence, restriction_multiplicities, sequence_summary
from .model import minitwistor_model
from .render import (
    discriminant_latex,
    discriminant_text,
    dumps,
    equation_latex,
    equation_text,
    model_text,
    schedule_text,
)


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        seq = tuple(int(token) for token in text.split(","))
    except ValueError as exc:
        raise InvalidSequenceError("entries must be positive integers") from exc
    return seq


def _parse_lambdas(text: str | None):
    # only parses: rhs_polynomial validates the tuple when the model is built
    if text is None:
        return None
    return tuple(parse_scalar(token) for token in text.split(","))


def _parse_c(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise InvalidParameterError("c must be +1 or -1")


class _Decimal(dict):
    """str of an integer, looked up for 0..610 (610 = F(15) is the largest
    entry of a level-14 sequence) and computed past them."""

    __slots__ = ()

    def __missing__(self, k: int) -> str:
        return str(k)


_DECIMAL = _Decimal((k, str(k)) for k in range(611))


def _format_seq(seq: tuple[int, ...]) -> str:
    return ",".join(map(_DECIMAL.__getitem__, seq))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_analyze(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.seq)
    rec = analyze_sequence(seq)
    lambdas = _parse_lambdas(args.lambdas)
    c_sign = _parse_c(args.c)
    model = minitwistor_model(rec, lambdas, c_sign)
    joyce = discriminant_joyce(rec)
    deformed = None if rec.semi_free else discriminant_deformed(rec)
    schedule = blow_up_schedule(rec)

    if args.format == "json":
        cycle, conj_cycle = restriction_multiplicities(rec)
        report = sequence_summary(rec)
        report.update(
            {
                "input": {"seq": seq, "lambda": model.lambdas, "c": c_sign},
                "regular": rec.regular,
                "semi_free": rec.semi_free,
                "note": rec.note,
                "model": model,
                "discriminant_joyce": joyce,
                "discriminant_deformed": deformed,
                "schedule": schedule,
                "restrictions": {"cycle": cycle, "conjugate_cycle": conj_cycle},
            }
        )
        sys.stdout.write(dumps(report))
    elif args.format == "latex":
        print(equation_latex(model))
        print()
        print(discriminant_latex(joyce))
        if deformed is not None:
            print()
            print(discriminant_latex(deformed))
    else:
        print(f"sequence k = ({_format_seq(seq)}), n = {rec.n}")
        print(f"m = {rec.m}")
        print("trace: " + " ".join(f"({i},{j})" for i, j in rec.trace.steps))
        print(f"l+ = {rec.l_plus}")
        print(f"l- = {rec.l_minus}")
        print(f"l  = {rec.l}")
        if rec.semi_free:
            print(f"regularity: semi-free ({rec.note}); deformable = {rec.deformable}")
        else:
            print(
                f"regularity: r = {rec.r}, s = {rec.s}, slack = {rec.slack}, "
                f"deformable = {rec.deformable}"
            )
        print(model_text(model))
        print(discriminant_text(joyce))
        if deformed is not None:
            print(discriminant_text(deformed))
        print(schedule_text(schedule))
    return 0


def _cmd_equation(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.seq)
    lambdas = _parse_lambdas(args.lambdas)
    model = minitwistor_model(seq, lambdas, _parse_c(args.c))
    if args.format == "json":
        sys.stdout.write(dumps(model))
    elif args.format == "latex":
        print(equation_latex(model))
    else:
        print(equation_text(model))
    return 0


def _cmd_deform_check(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.seq)
    rec = analyze_sequence(seq)
    deformed = None if rec.semi_free else discriminant_deformed(rec)
    if args.format == "json":
        report = {"n": rec.n, "k": seq, "semi_free": rec.semi_free, "deformable": rec.deformable}
        if rec.semi_free:
            report["note"] = rec.note
        else:
            report.update(r=rec.r, s=rec.s, slack=rec.slack, discriminant_deformed=deformed)
        sys.stdout.write(dumps(report))
    elif rec.semi_free:
        print(f"semi-free: handled by LeBrun theory (deformable = {rec.deformable})")
    else:
        print(
            f"r = {rec.r}, s = {rec.s}, slack = {rec.slack}, deformable = {rec.deformable}"
        )
        print(discriminant_text(deformed))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    seq = _parse_sequence(args.seq)
    schedule = blow_up_schedule(seq)
    if args.format == "json":
        sys.stdout.write(dumps(schedule))
    else:
        print(schedule_text(schedule))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if args.classes == "marked":
        reps = cat.enumerate_marked(n)
        if args.format == "json":
            sys.stdout.write(dumps({"n": n, "count": len(reps), "classes": reps}))
        else:
            # one write, rows formatted inline: a per-row call costs as much
            # as the lookups it would wrap
            header = f"n = {n}: {len(reps)} marked sequences up to reversal"
            rows = [",".join(map(_DECIMAL.__getitem__, rep)) for rep in reps]
            sys.stdout.write("\n  ".join([header, *rows]) + "\n")
        return 0
    cache = None if args.no_cache else cat.CatalogCache(args.cache_dir)
    classes = cat.u1_classes_cached(n, cache)
    if args.format == "json":
        # members are built here, by arrangement, and nowhere on the text path
        rows = [
            {
                "canonical": cls.canonical, "l": cls.l, "m": cls.m, "members": cls.members,
                "slack": cls.slack, "u1_key": cls.u1_key,
            }
            for cls in classes
        ]
        sys.stdout.write(dumps({"n": n, "delta": len(classes), "classes": rows}))
    else:
        header = f"n = {n}: delta = {len(classes)} circle-action classes"
        rows = [
            f"{','.join(map(_DECIMAL.__getitem__, cls.canonical))}  members={cls.member_count} "
            f"m={cls.m} slack={'-' if cls.slack is None else cls.slack}"
            for cls in classes
        ]
        sys.stdout.write("\n  ".join([header, *rows]) + "\n")
    return 0


def _tables_delta(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise InvalidParameterError("tables delta needs --n-max >= 0")
    rows = cat.growth_report(args.n_max)
    if args.format == "json":
        sys.stdout.write(dumps({"rows": rows}))
    else:
        print("n  delta  marked  delta/n^2")
        for row in rows:
            ratio = "-" if row.ratio is None else format_scalar(row.ratio)
            print(f"{row.n}  {row.delta}  {row.marked_classes}  {ratio}")
    return 0


def _tables_fibonacci(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise InvalidParameterError("tables fibonacci needs --n-max >= 2")
    cat._check_family(args.n_max)
    rows = []
    for n in range(2, args.n_max + 1):
        rec = cat._maximal_step(n)
        seq, lvec, m = rec.k, rec.l, rec.m
        if n in cat.FIBONACCI_TABLE and cat.FIBONACCI_TABLE[n] != (seq, lvec, m):
            raise InternalInvariantError(
                f"tables fibonacci: ({_format_seq(seq)}): regenerated maximal-step row "
                f"at n = {n} differs from the stored table"
            )
        rows.append({"n": n, "k": seq, "l": lvec, "m": m})
    if args.format == "json":
        sys.stdout.write(dumps({"rows": rows}))
    elif args.format == "latex":
        print("\\begin{tabular}{llll}")
        print("$n$ & $k$ & $l$ & $m$ \\\\")
        print("\\hline")
        for row in rows:
            print(
                f"{row['n']} & $({_format_seq(row['k'])})$ & $({_format_seq(row['l'])})$ "
                f"& {row['m']} \\\\"
            )
        print("\\end{tabular}")
    else:
        print("n  k  l  m")
        for row in rows:
            print(
                f"{row['n']}  ({_format_seq(row['k'])})  "
                f"({_format_seq(row['l'])})  {row['m']}"
            )
    return 0


def _tables_family(args: argparse.Namespace, which: str) -> int:
    members = cat.family_lebrun(args.n) if which == "lebrun" else cat.family_involutive(args.n)
    payload = {"n": args.n, "count": len(members), "family": which, "members": members}
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        print(f"{which} family at n = {args.n}: {len(members)} sequences")
        for member in members:
            if member.semi_free:
                print(f"  ({_format_seq(member.seq)})  semi-free, deformable = {member.deformable}")
            else:
                print(
                    f"  ({_format_seq(member.seq)})  slack = {member.slack}, "
                    f"deformable = {member.deformable}"
                )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.which == "delta":
        return _tables_delta(args)
    if args.which == "fibonacci":
        return _tables_fibonacci(args)
    return _tables_family(args, args.which)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minitwistor",
        description=(
            "Exact-arithmetic invariants, projective models and catalogs for "
            "circle subgroups of torus actions on connected sums of CP^2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "latex", "text"), default="text")
    seqarg = argparse.ArgumentParser(add_help=False)
    seqarg.add_argument("--seq", required=True, help="weights k_2,...,k_{n+2}, e.g. 1,2,5,3,1")
    modelargs = argparse.ArgumentParser(add_help=False)
    modelargs.add_argument(
        "--lambda",
        dest="lambdas",
        default=None,
        help='conformal invariants "0,l2,...,inf" (default 0,1,2,...,inf)',
    )
    modelargs.add_argument("--c", default="+1", help="sign of the equation, +1 or -1")

    p = sub.add_parser(
        "analyze",
        parents=[seqarg, modelargs, fmt],
        help="full report: invariants, model, discriminants, blow-up schedule",
    )
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "equation", parents=[seqarg, modelargs, fmt], help="just the model equation"
    )
    p.set_defaults(handler=_cmd_equation)

    p = sub.add_parser(
        "deform-check",
        parents=[seqarg, fmt],
        help="deformability slack and the deformed discriminant report",
    )
    p.set_defaults(handler=_cmd_deform_check)

    p = sub.add_parser("schedule", parents=[seqarg, fmt], help="blow-up schedule ledger")
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("catalog", help="enumerate sequences or circle-action classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", choices=("marked", "u1"), default="u1")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument(
        "--cache-dir", default=None, help="JSON cache directory (default ~/.cache/minitwistor)"
    )
    p.add_argument("--no-cache", action="store_true", help="skip the JSON cache")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser(
        "tables",
        parents=[fmt],
        help="delta(n) counts or a named family; fibonacci is diffed against its stored rows",
    )
    p.add_argument("which", choices=("delta", "fibonacci", "lebrun", "involutive"))
    p.add_argument("--n-max", type=int, default=None, help="last n for delta/fibonacci")
    p.add_argument("--n", type=int, default=None, help="level for lebrun/involutive")
    p.set_defaults(handler=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tables":
        if args.which in ("delta", "fibonacci"):
            if args.n_max is None:
                args.n_max = 5 if args.which == "delta" else 7
        elif args.n is None:
            parser.error(f"tables {args.which} requires --n")
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point fd 1 at devnull so
        # the interpreter's final flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (InvalidSequenceError, InvalidFanError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
