"""Command-line front end.

Subcommands, with the formats each renders (text is the default):

- analyze, equation: --seq, --lambda, --c; json, latex, text
- deform-check, schedule: --seq; json, text
- catalog: --n, --classes, --cache-dir, --no-cache; json, text
- tables delta: --n-max (default 5); json, text
- tables fibonacci: --n-max (default 7); json, latex, text
- tables lebrun, tables involutive: --n (required); json, text

An option or format a subcommand or table kind does not take exits 2, like
any other invalid input.  Exit codes: 0 on success, 2 for invalid input (the
message names the violated rule), 3 when a provably-true identity fails
(always a bug).  Output bytes are deterministic for fixed inputs: keys are
sorted, rationals print as "p/q", infinity as "inf", and nothing
environment-dependent is emitted.

No request reads or writes a file, with one exception: catalog keeps the u1
classes' cache file in the directory --cache-dir names.  With no cache
option, or with --no-cache, which has no effect, it touches no file.

main is the one writer of stdout.  Each handler returns the whole output of
its request as one string and writes nothing; main writes that string in one
call once the handler has returned, so a request that exits 2 or 3 leaves
stdout empty.  A request builds a parser, with its options and -h, only for
the subcommand it names; no parser is built for the subcommands it does not
name.  Every subcommand name is still registered, with its help line.

Imports: this module imports, at its top, every module the four sequence
commands (analyze, equation, deform-check, schedule) use, so their cost is
paid at start-up and not in the first request.  The enumeration in
:mod:`minitwistor.catalog` is imported only inside the catalog and tables
handlers, and :func:`minitwistor.render.dumps` imports json's string encoder
when it is called, so a sequence command loads no catalog and, in text, no
json.
"""

from __future__ import annotations

import argparse
import os
import sys

from .conic_bundle import blow_up_schedule, discriminant_deformed, discriminant_joyce
from .errors import (
    InternalInvariantError,
    InvalidFanError,
    InvalidParameterError,
    InvalidSequenceError,
)
from .exact import _parse_int, format_scalar, parse_scalar
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
        seq = tuple(_parse_int(token) for token in text.split(","))
    except ValueError as exc:
        raise InvalidSequenceError("entries must be positive integers") from exc
    return seq


def _parse_lambdas(text: str | None):
    # only parses: rhs_polynomial validates the tuple when the model is built
    if text is None:
        return None
    return tuple(parse_scalar(token) for token in text.split(","))


#: The --c choices and the sign each stands for.
_C_SIGN = {"+1": 1, "1": 1, "-1": -1}


def _format_seq(seq: tuple[int, ...]) -> str:
    return ",".join(map(str, seq))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_analyze(args: argparse.Namespace) -> str:
    seq = _parse_sequence(args.seq)
    rec = analyze_sequence(seq)
    lambdas = _parse_lambdas(args.lambdas)
    c_sign = _C_SIGN[args.c]
    model = minitwistor_model(rec, lambdas, c_sign)
    joyce = discriminant_joyce(rec)
    deformed = None if rec.semi_free else discriminant_deformed(rec)
    schedule = None if args.format == "latex" else blow_up_schedule(rec)

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
        return dumps(report)
    if args.format == "latex":
        blocks = [equation_latex(model), discriminant_latex(joyce)]
        if deformed is not None:
            blocks.append(discriminant_latex(deformed))
        return "\n\n".join(blocks) + "\n"
    if rec.semi_free:
        regularity = f"semi-free ({rec.note}); deformable = {rec.deformable}"
    else:
        regularity = (
            f"r = {rec.r}, s = {rec.s}, slack = {rec.slack}, deformable = {rec.deformable}"
        )
    lines = [
        f"sequence k = ({_format_seq(seq)}), n = {rec.n}",
        f"m = {rec.m}",
        "trace: " + " ".join(f"({i},{j})" for i, j in rec.trace.steps),
        f"l+ = {rec.l_plus}",
        f"l- = {rec.l_minus}",
        f"l  = {rec.l}",
        f"regularity: {regularity}",
        model_text(model),
        discriminant_text(joyce),
    ]
    if deformed is not None:
        lines.append(discriminant_text(deformed))
    lines.append(schedule_text(schedule))
    return "\n".join(lines) + "\n"


def _cmd_equation(args: argparse.Namespace) -> str:
    seq = _parse_sequence(args.seq)
    lambdas = _parse_lambdas(args.lambdas)
    model = minitwistor_model(seq, lambdas, _C_SIGN[args.c])
    if args.format == "json":
        return dumps(model)
    if args.format == "latex":
        return equation_latex(model) + "\n"
    return equation_text(model) + "\n"


def _cmd_deform_check(args: argparse.Namespace) -> str:
    seq = _parse_sequence(args.seq)
    rec = analyze_sequence(seq)
    deformed = None if rec.semi_free else discriminant_deformed(rec)
    if args.format == "json":
        report = {"n": rec.n, "k": seq, "semi_free": rec.semi_free, "deformable": rec.deformable}
        if rec.semi_free:
            report["note"] = rec.note
        else:
            report.update(r=rec.r, s=rec.s, slack=rec.slack, discriminant_deformed=deformed)
        return dumps(report)
    if rec.semi_free:
        return f"{rec.note} (deformable = {rec.deformable})\n"
    return (
        f"r = {rec.r}, s = {rec.s}, slack = {rec.slack}, deformable = {rec.deformable}\n"
        f"{discriminant_text(deformed)}\n"
    )


def _cmd_schedule(args: argparse.Namespace) -> str:
    schedule = blow_up_schedule(_parse_sequence(args.seq))
    return dumps(schedule) if args.format == "json" else schedule_text(schedule) + "\n"


def _cmd_catalog(args: argparse.Namespace) -> str:
    from . import catalog as cat

    n = args.n
    if args.cache_dir == "":
        # Path("") is the current directory, where the file would land
        raise InvalidParameterError("--cache-dir must name a directory, not the empty string")
    if args.cache_dir is not None and (args.classes == "marked" or args.no_cache):
        # the marked listing keeps no cache, and --no-cache asks for none;
        # --no-cache alone stays accepted and has no effect on any path
        other = "--classes marked" if args.classes == "marked" else "--no-cache"
        raise InvalidParameterError(f"--cache-dir has no effect with {other}")
    if args.classes == "marked":
        if args.format == "json":
            reps = cat.enumerate_marked(n)
            return dumps({"n": n, "count": len(reps), "classes": reps})
        # the level is checked against its count as it is built
        body = cat._marked_rows(n)
        return f"n = {n}: {cat._marked_count(n)} marked sequences up to reversal{body}\n"
    cache = None if args.cache_dir is None else cat.CatalogCache(args.cache_dir)
    if args.format == "json":
        # members are built here, by arrangement, and nowhere on the text path
        classes = cat.u1_classes_cached(n, cache)
        rows = [
            {
                "canonical": cls.canonical, "l": cls.l, "m": cls.m, "members": cls.members,
                "slack": cls.slack, "u1_key": cls.u1_key,
            }
            for cls in classes
        ]
        return dumps({"n": n, "delta": len(classes), "classes": rows})
    # the text listing is written from the keys, with no record per class;
    # the table and the keys are dropped before the rows are joined
    rows = [
        f"{text}  members={count} m={m} slack={'-' if slack is None else slack}"
        for text, count, m, slack in cat._class_fields(n, *cat._u1_keys(n, cache))
    ]
    header = f"n = {n}: delta = {len(rows)} circle-action classes"
    return "\n  ".join([header, *rows]) + "\n"


def _tables_delta(args: argparse.Namespace) -> str:
    from . import catalog as cat

    if args.n_max < 0:
        raise InvalidParameterError("tables delta needs --n-max >= 0")
    rows = cat.growth_report(args.n_max)
    if args.format == "json":
        return dumps({"rows": rows})
    lines = ["n  delta  marked  delta/n^2"]
    for row in rows:
        ratio = "-" if row.ratio is None else format_scalar(row.ratio)
        lines.append(f"{row.n}  {row.delta}  {row.marked_classes}  {ratio}")
    return "\n".join(lines) + "\n"


def _tables_fibonacci(args: argparse.Namespace) -> str:
    from . import catalog as cat

    if args.n_max < 2:
        raise InvalidParameterError("tables fibonacci needs --n-max >= 2")
    cat._check_family(args.n_max)
    rows = []
    for n in range(2, args.n_max + 1):
        rec = cat._maximal_step(n)
        rows.append({"n": n, "k": rec.k, "l": rec.l, "m": rec.m})
    if args.format == "json":
        return dumps({"rows": rows})
    if args.format == "latex":
        lines = ["\\begin{tabular}{llll}", "$n$ & $k$ & $l$ & $m$ \\\\", "\\hline"]
        lines += [
            f"{row['n']} & $({_format_seq(row['k'])})$ & $({_format_seq(row['l'])})$ "
            f"& {row['m']} \\\\"
            for row in rows
        ]
        lines.append("\\end{tabular}")
    else:
        lines = ["n  k  l  m"]
        lines += [
            f"{row['n']}  ({_format_seq(row['k'])})  ({_format_seq(row['l'])})  {row['m']}"
            for row in rows
        ]
    return "\n".join(lines) + "\n"


def _tables_family(args: argparse.Namespace) -> str:
    from . import catalog as cat

    family = cat.family_lebrun if args.which == "lebrun" else cat.family_involutive
    # one dict per member serves both formats; json sorts its keys
    members = [
        {"deformable": r.deformable, "semi_free": r.semi_free, "seq": r.k, "slack": r.slack}
        for r in family(args.n)
    ]
    if args.format == "json":
        payload = {"n": args.n, "count": len(members), "family": args.which, "members": members}
        return dumps(payload)
    lines = [f"{args.which} family at n = {args.n}: {len(members)} sequences"]
    for member in members:
        tag = "semi-free" if member["semi_free"] else f"slack = {member['slack']}"
        seq = _format_seq(member["seq"])
        lines.append(f"  ({seq})  {tag}, deformable = {member['deformable']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser assembly

#: The tables kinds: handler, the one size option it takes, that option's
#: default (None: required), and the formats it renders.
_TABLES = {
    "delta": (_tables_delta, "--n-max", 5, ("json", "text")),
    "fibonacci": (_tables_fibonacci, "--n-max", 7, ("json", "latex", "text")),
    "lebrun": (_tables_family, "--n", None, ("json", "text")),
    "involutive": (_tables_family, "--n", None, ("json", "text")),
}

_TABLES_HELP = "; ".join(
    f"{kind}: {flag} ({'required' if default is None else f'default {default}'}), "
    + "/".join(formats)
    for kind, (_, flag, default, formats) in _TABLES.items()
) + ". The fibonacci rows n <= 7 are checked against their stored table."


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _format_arg(*choices: str) -> tuple:
    return _arg("--format", choices=choices, default="text")


_SEQ = _arg("--seq", required=True, help="weights k_2,...,k_{n+2}, e.g. 1,2,5,3,1")
_MODEL = (
    _arg("--lambda", dest="lambdas",
         help='conformal invariants "0,l2,...,inf" (default 0,1,2,...,inf)'),
    _arg("--c", choices=tuple(_C_SIGN), default="+1", help="sign of the equation"),
)

#: Every subcommand: its handler (tables: None, main picks the kind's), its
#: help line, its description, and its arguments in help order.
_COMMANDS = {
    "analyze": (_cmd_analyze, "full report: invariants, model, discriminants, blow-up schedule",
                None, (_SEQ, *_MODEL, _format_arg("json", "latex", "text"))),
    "equation": (_cmd_equation, "just the model equation",
                 None, (_SEQ, *_MODEL, _format_arg("json", "latex", "text"))),
    "deform-check": (_cmd_deform_check, "deformability slack and the deformed discriminant report",
                     None, (_SEQ, _format_arg("json", "text"))),
    "schedule": (_cmd_schedule, "blow-up schedule ledger",
                 None, (_SEQ, _format_arg("json", "text"))),
    "catalog": (_cmd_catalog, "enumerate sequences or circle-action classes", None, (
        _arg("--n", type=int, required=True),
        _arg("--classes", choices=("marked", "u1"), default="u1"),
        _format_arg("json", "text"),
        _arg("--cache-dir", help="keep the u1 classes' JSON cache file in this directory "
             "(default: no file is read or written)"),
        _arg("--no-cache", action="store_true", help="no effect: no cache is kept unless "
             "--cache-dir is given"),
    )),
    "tables": (None, "delta(n) counts, the maximal-step rows or a named family", _TABLES_HELP, (
        _arg("which", choices=tuple(_TABLES)),
        _format_arg("json", "latex", "text"),
        _arg("--n-max", type=int, help="last n for delta/fibonacci"),
        _arg("--n", type=int, help="level for lebrun/involutive"),
    )),
}


def _formatter(prog: str) -> argparse.HelpFormatter:
    # argparse wraps at the terminal's width (COLUMNS) by default; 78 is that
    # default when there is no terminal, and fixing it keeps the help and
    # usage bytes the same everywhere
    return argparse.HelpFormatter(prog, width=78)


def _subparser(build: bool, **kwargs) -> argparse.ArgumentParser | None:
    # add_subparsers' parser_class: add_parser has made the subcommand's
    # choice and help line before it calls this, and only stores the result
    return argparse.ArgumentParser(**kwargs) if build else None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand name is registered with its help
    line, so the top-level usage, help and errors never depend on
    ``command``; a parser, with -h, options and a handler, is built only for
    the subcommand ``command`` names, or for every subcommand when it is
    None.  main names the only subcommand argparse can select."""
    parser = argparse.ArgumentParser(
        prog="minitwistor",
        formatter_class=_formatter,
        description=(
            "Exact-arithmetic invariants, projective models and catalogs for "
            "circle subgroups of torus actions on connected sums of CP^2."
        ),
    )
    # prog is the prefix argparse would otherwise format from the top-level
    # usage on every build
    sub = parser.add_subparsers(dest="command", required=True, prog="minitwistor",
                                parser_class=_subparser)
    for name, (handler, text, description, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=description, formatter_class=_formatter,
                           build=command is None or command == name)
        if p is not None:
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level takes no option but -h, so the subcommand argparse
    # selects, if any, is the first argument that does not start with "-";
    # the others have no parser
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    args = parser.parse_args(argv)
    if args.command == "tables":
        args.handler, flag, default, formats = _TABLES[args.which]
        sizes = {"--n-max": args.n_max, "--n": args.n}
        size = sizes.pop(flag)
        ((stray, value),) = sizes.items()
        if value is not None:
            parser.error(f"tables {args.which} takes {flag}, not {stray}")
        if args.format not in formats:
            parser.error(f"tables {args.which} renders {'/'.join(formats)}, not {args.format}")
        if size is None and default is None:
            parser.error(f"tables {args.which} requires {flag}")
        # each handler reads the attribute of its own size option
        args.n_max = args.n = default if size is None else size
    try:
        sys.stdout.write(args.handler(args))
        sys.stdout.flush()
        return 0
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
