"""Deterministic JSON, LaTeX and plain-text emission.

Rationals print reduced as "p/q", infinity as "inf", JSON keys are sorted and
nothing time- or environment-dependent ever enters the output, so identical
inputs produce identical bytes.  One walk over the terms, ``_equation``,
writes the model equation in text and in LaTeX alike.

JSON is written by a small recursive writer, not by ``json.dumps``: with
``indent`` set, ``json`` falls back to its pure-Python encoder, which takes
about twice as long.  The writer produces the bytes of
``json.dumps(value, sort_keys=True, indent=2, default=_encode)`` plus a
newline, and that call is its test oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .conic_bundle import BlowUpSchedule, DiscriminantReport
from .exact import Infinity, decimal, format_scalar
from .model import MinitwistorModel, QuadraticForm
from .record import Record


def _encode(value):
    """The JSON form of the other types, for dumps and for its oracle's
    ``default`` hook: exact scalars as text, records as dicts of their
    fields (never of a cached property); the ((a, b), coefficient) items of
    QuadraticForm.terms become an object keyed "a,b"."""
    if isinstance(value, (Fraction, Infinity)):
        return format_scalar(value)
    if isinstance(value, Record):
        fields = {name: getattr(value, name) for name in value._fields}
        if isinstance(value, QuadraticForm):
            fields["terms"] = {f"{a},{b}": cf for (a, b), cf in value.terms}
        return fields
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps(value) -> str:
    """``value`` as indent-2 JSON with sorted keys and a final newline.

    The bytes are those of ``json.dumps(value, sort_keys=True, indent=2,
    default=_encode) + "\\n"``: each item on its own line, indented two
    spaces per level, "," after every item but the last, ": " after each
    key, every non-ASCII character escaped, empty containers as ``[]`` and
    ``{}``.  Only the types the payloads hold are written: dicts with str
    keys, lists, tuples, str, int, bool, None, and what ``_encode`` turns
    into these; any other type raises TypeError.
    """
    # imported here, not at module level, so that a text request loads no json
    from json.encoder import encode_basestring_ascii

    return _json(value, "\n", encode_basestring_ascii) + "\n"


def _json(value, newline: str, string) -> str:
    # newline is "\n" plus the indent of the line value starts on; string
    # writes a str as a JSON string.  Classes are matched exactly (bool is
    # not int here); any other goes through _encode, which raises TypeError
    # for a type it does not know.  An int in a container is written without
    # a call.
    cls = value.__class__
    if cls is str:
        return string(value)
    if cls is tuple or cls is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [int.__repr__(item) if item.__class__ is int else _json(item, inner, string)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if cls is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [string(key) + ": " + _json(value[key], inner, string)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if cls is int:
        return int.__repr__(value)
    return _json(_encode(value), newline, string)


# ---------------------------------------------------------------------------
# equation rendering


def _equation(model: MinitwistorModel, lhs: str, monomial, magnitude) -> str:
    # the terms of Q by descending a + b, then descending a: "+ " when the
    # numerator p is positive, else "- " (so a hand-built zero prints "- 0"),
    # then magnitude(|p|, q) unless |p|/q is 1, then monomial(a, b)
    terms = []
    for (a, b), coeff in sorted(model.q.terms, key=lambda item: (-sum(item[0]), -item[0][0])):
        p, q = coeff.numerator, coeff.denominator
        scale = "" if q == 1 and abs(p) == 1 else magnitude(abs(p), q)
        terms.append(("+ " if p > 0 else "- ") + scale + monomial(a, b))
    if not terms:
        return lhs + "0"
    terms[0] = terms[0][2:] if terms[0][0] == "+" else "-" + terms[0][2:]
    return lhs + " ".join(terms)


def equation_latex(model: MinitwistorModel) -> str:
    """The model equation z_{m+1} z_{m+2} = Q as a LaTeX line."""
    return _equation(
        model, f"z_{{{model.m + 1}}}z_{{{model.m + 2}}} = ",
        lambda a, b: f"z_{{{a}}}^{{2}}" if a == b else f"z_{{{a}}}z_{{{b}}}",
        lambda p, q: decimal(p) if q == 1 else f"\\tfrac{{{decimal(p)}}}{{{decimal(q)}}}",
    )


def equation_text(model: MinitwistorModel) -> str:
    """The model equation z_{m+1} z_{m+2} = Q as a plain-text line."""
    return _equation(
        model, f"z{model.m + 1}*z{model.m + 2} = ",
        lambda a, b: f"z{a}^2" if a == b else f"z{a}*z{b}",
        lambda p, q: decimal(p) + ("*" if q == 1 else f"/{decimal(q)}*"),
    )


def model_text(model: MinitwistorModel) -> str:
    lines = [
        f"n = {model.n}, m = {model.m}, surface of degree {model.surface_degree} "
        f"in CP^{model.ambient_dim}",
        f"lambdas: ({', '.join(format_scalar(l) for l in model.lambdas)}), c = {model.c_sign:+d}",
        f"dim V_m = {model.dim_vm}, dim W_m = {model.dim_wm}",
        "equation: " + equation_text(model),
    ]
    if model.singularities:
        for record in model.singularities:
            if record.kind == "cyclic-quotient-pair":
                lines.append(
                    f"singularity: conjugate pair of cyclic quotient points C^2/Z_{record.order}"
                )
            else:
                lines.append(
                    f"singularity: A_{record.order} over lambda_{record.index} = "
                    f"{format_scalar(record.location)}"
                )
    else:
        lines.append("singularity: none (smooth quadric)")
    lines.append(
        "reducible fibers over: "
        + ", ".join(format_scalar(v) for v in model.reducible_fibers)
    )
    if model.irreducible_marked_fibers:
        lines.append(
            "irreducible marked fibers over: "
            + ", ".join(format_scalar(v) for v in model.irreducible_marked_fibers)
        )
    lines.append(
        "moduli dimension: "
        + ("-" if model.moduli_dim is None else str(model.moduli_dim))
    )
    if model.fixed_lines:
        lines.append(
            "pointwise-fixed twistor lines at indices: "
            + ", ".join(str(i) for i in model.fixed_lines)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# discriminant and schedule rendering


def discriminant_text(report: DiscriminantReport) -> str:
    kind = "deformed" if report.deformed else "torus-invariant"
    lines = [f"discriminant locus ({kind} model):"]
    lines.append("  sections: " + ", ".join(report.sections))
    for index, length in report.reducible_fiber_chains:
        lines.append(f"  reducible fiber chain at index {index}: {length} curves")
    for index in report.irreducible_fibers:
        lines.append(f"  irreducible fiber at index {index}")
    if report.deformed:
        lines.append(f"  hyperplane sections: {report.hyperplane_sections} (= n + r - s)")
    lines.append("  multiplicities: possibly non-reduced (not computed)")
    return "\n".join(lines)


def discriminant_latex(report: DiscriminantReport) -> str:
    kind = "deformed" if report.deformed else "torus-invariant"
    rows = [f"sections & $\\Gamma,\\ \\overline{{\\Gamma}}$ & 2 \\\\"]
    for index, length in report.reducible_fiber_chains:
        rows.append(f"reducible fiber chain & $i = {index}$ & {length} \\\\")
    for index in report.irreducible_fibers:
        rows.append(f"irreducible fiber & $i = {index}$ & 1 \\\\")
    if report.deformed:
        rows.append(f"hyperplane sections & $n + r - s$ & {report.hyperplane_sections} \\\\")
    body = "\n".join(rows)
    return (
        f"% discriminant locus of the {kind} conic bundle\n"
        "\\begin{tabular}{lll}\n"
        "component & location & count \\\\\n"
        "\\hline\n"
        f"{body}\n"
        "\\end{tabular}"
    )


def schedule_text(schedule: BlowUpSchedule) -> str:
    lines = [
        f"blow-up schedule: {schedule.stage_count} stage(s), m = {schedule.m}, "
        f"max multiplicity = {schedule.max_multiplicity}",
        f"normal bundle of E_1: O({schedule.normal_bundle[0]}, {schedule.normal_bundle[1]}) pullback",
    ]
    for stage in schedule.stages:
        lines.append(f"  stage {stage.stage}: {stage.description}")
        if stage.centers:
            lines.append("    centers: " + ", ".join(stage.centers) + " (+ conjugates)")
    return "\n".join(lines)
