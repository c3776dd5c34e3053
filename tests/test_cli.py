from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitwistor.cli import _TABLES, build_parser, main
from minitwistor.errors import InternalInvariantError, invariant_violation
from minitwistor.invariants import SequenceAnalysis

from support import oriented_sequences, src_env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "minitwistor", *args], capture_output=True, env=src_env()
    )


def test_analyze_json_report():
    result = run_cli("analyze", "--seq", "1,2,5,3,1", "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["m"] == 5
    assert report["l"] == [1, 1, 3, 2, 2, 1]
    assert report["l_plus"] == [1, 1, 3, 0, 0, 0]
    assert report["l_minus"] == [0, 0, 0, 2, 2, 1]
    assert report["slack"] == 0 and report["deformable"] is False
    assert report["model"]["surface_degree"] == 10
    assert report["model"]["lambdas"] == ["0", "1", "2", "3", "4", "inf"]
    assert report["schedule"]["stages"][0]["centers"] == ["C_1", "~C_1"]
    assert report["discriminant_joyce"]["hyperplane_sections"] == 0


def test_analyze_latex_smooth_quadric():
    result = run_cli("analyze", "--seq", "1,1", "--format", "latex")
    assert result.returncode == 0
    assert "z_{2}z_{3} = z_{0}z_{1}" in result.stdout.decode()


def test_analyze_invalid_sequence_exit_code():
    result = run_cli("analyze", "--seq", "2,1,1")
    assert result.returncode == 2
    assert "k_2 must equal 1" in result.stderr.decode()


def test_analyze_rejects_bad_lambdas():
    result = run_cli("analyze", "--seq", "1,2,1", "--lambda", "0,2,1,inf")
    assert result.returncode == 2
    result = run_cli("analyze", "--seq", "1,2,1", "--lambda", "0,1/2,7/3,inf")
    assert result.returncode == 0


def test_lambdas_validated_once_per_request(count_calls):
    # the CLI only parses --lambda; rhs_polynomial validates it
    calls = count_calls("model", "validate_lambdas")
    requests = [
        [command, "--seq", "1,2,5,3,1", "--lambda", "0,1/2,1,7/3,5,inf", "--format", fmt]
        for command in ("equation", "analyze")
        for fmt in ("text", "json", "latex")
    ]
    for argv in requests:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert len(calls) == len(requests)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["equation", "--seq", "1,2,1", "--lambda", "0,2,1,inf"]) == 2
    assert "strictly increasing" in err.getvalue()
    assert len(calls) == len(requests) + 1


def test_analyze_byte_determinism():
    first = run_cli("analyze", "--seq", "1,2,5,13,8,3,1", "--format", "json")
    second = run_cli("analyze", "--seq", "1,2,5,13,8,3,1", "--format", "json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_equation_formats():
    result = run_cli("equation", "--seq", "1,2,1", "--format", "text")
    assert result.stdout.decode().strip() == "z3*z4 = z1*z2 - 3*z1^2 + 2*z0*z1"
    result = run_cli("equation", "--seq", "1,2,1", "--format", "latex")
    assert result.stdout.decode().strip() == "z_{3}z_{4} = z_{1}z_{2} - 3z_{1}^{2} + 2z_{0}z_{1}"
    result = run_cli("equation", "--seq", "1,2,1", "--format", "json")
    model = json.loads(result.stdout)
    assert model["m"] == 2
    assert model["rhs"]["coefficients"] == ["0", "2", "-3", "1", "0"]


def test_equation_with_c_sign():
    result = run_cli("equation", "--seq", "1,1", "--c", "-1", "--format", "text")
    assert result.stdout.decode().strip() == "z2*z3 = -z0*z1"


def test_deform_check():
    result = run_cli("deform-check", "--seq", "1,2,3,1,1", "--format", "json")
    data = json.loads(result.stdout)
    assert data["deformable"] is True and data["slack"] == 1
    assert data["discriminant_deformed"]["hyperplane_sections"] == 1

    result = run_cli("deform-check", "--seq", "1,2,3,4,5,1", "--format", "json")
    data = json.loads(result.stdout)
    assert data["deformable"] is False and data["slack"] == 0

    result = run_cli("deform-check", "--seq", "1,1,1,1")
    assert "LeBrun" in result.stdout.decode()


def test_schedule_command():
    result = run_cli("schedule", "--seq", "1,1,1", "--format", "json")
    data = json.loads(result.stdout)
    assert len(data["stages"]) == 1
    result = run_cli("schedule", "--seq", "1,2,5,3,1")
    assert "5 stage(s)" in result.stdout.decode()


def test_catalog_marked_and_u1(tmp_path):
    result = run_cli(
        "catalog", "--n", "4", "--classes", "marked", "--format", "json", "--no-cache"
    )
    data = json.loads(result.stdout)
    assert data["count"] == 9

    result = run_cli(
        "catalog", "--n", "4", "--classes", "u1", "--format", "json",
        "--cache-dir", str(tmp_path),
    )
    data = json.loads(result.stdout)
    assert data["delta"] == 7
    assert (tmp_path / "catalog_n4.json").exists()

    again = run_cli(
        "catalog", "--n", "4", "--classes", "u1", "--format", "json",
        "--cache-dir", str(tmp_path),
    )
    assert again.stdout == result.stdout


def test_catalog_rejects_a_cache_dir_it_would_ignore(tmp_path):
    # the marked listing reads no cache, and --no-cache skips it; either
    # with --cache-dir exits 2 and names the conflict, before any work
    for extra, other in (
        (["--classes", "marked"], "--classes marked"),
        (["--no-cache"], "--no-cache"),
        (["--classes", "marked", "--no-cache"], "--classes marked"),
    ):
        for fmt in ("text", "json"):
            argv = ["catalog", "--n", "4", *extra, "--format", fmt, "--cache-dir", str(tmp_path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 2, argv
            assert out.getvalue() == "", argv
            assert err.getvalue() == f"error: --cache-dir has no effect with {other}\n", argv
    assert list(tmp_path.iterdir()) == []
    # the marked listing still takes --no-cache, which the benchmark sends
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["catalog", "--n", "4", "--classes", "marked", "--no-cache"]) == 0
    assert out.getvalue().startswith("n = 4: 9 marked sequences up to reversal\n")


def test_catalog_rejects_an_empty_cache_dir(tmp_path, monkeypatch):
    # Path("") is the current directory: an empty --cache-dir exits 2 and
    # names the rule, before any work, and writes nothing there
    monkeypatch.chdir(tmp_path)
    for fmt in ("text", "json"):
        argv = ["catalog", "--n", "3", "--format", fmt, "--cache-dir", ""]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert out.getvalue() == "", argv
        assert err.getvalue() == "error: --cache-dir must name a directory, not the empty string\n"
    assert list(tmp_path.iterdir()) == []


def test_catalog_touches_no_file_without_a_cache_dir(tmp_path, monkeypatch, count_calls):
    # with no cache option, or with --no-cache, a catalog request prints the
    # same bytes, makes no cache and leaves HOME and the working directory
    # as empty as it found them
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(cwd)
    made = count_calls("catalog", "CatalogCache")
    for classes in ("u1", "marked"):
        for fmt in ("text", "json"):
            argv = ["catalog", "--n", "6", "--classes", classes, "--format", fmt]
            code, expected = run_main([*argv, "--no-cache"])
            assert code == 0 and expected, argv
            assert run_main(argv) == (0, expected), argv
    assert made == []
    assert list(home.iterdir()) == list(cwd.iterdir()) == []


def test_tables_delta():
    result = run_cli("tables", "delta", "--format", "json")
    data = json.loads(result.stdout)
    assert [row["delta"] for row in data["rows"]] == [1, 1, 2, 3, 7, 15]


def test_tables_delta_reaches_past_the_enumeration_limit():
    # delta(n) is a closed form: tables delta is bounded by the family limit
    # (n <= 500), not by the level the enumeration serves (n <= 14)
    from minitwistor.catalog import growth_report
    from minitwistor.errors import InvalidParameterError

    for fmt in ("text", "json"):
        code, wide = run_main(["tables", "delta", "--n-max", "20", "--format", fmt])
        assert code == 0, fmt
        code, narrow = run_main(["tables", "delta", "--n-max", "14", "--format", fmt])
        assert code == 0, fmt
        if fmt == "json":
            wide, narrow = json.loads(wide)["rows"], json.loads(narrow)["rows"]
            assert len(wide) == 21 and wide[:15] == narrow
        else:
            wide, narrow = wide.splitlines(), narrow.splitlines()
            assert len(wide) == 22 and wide[:16] == narrow
    with pytest.raises(InvalidParameterError):
        growth_report(-1)


def test_tables_fibonacci():
    result = run_cli("tables", "fibonacci", "--n-max", "7")
    lines = [line for line in result.stdout.decode().splitlines() if line and line[0].isdigit()]
    assert len(lines) == 6
    assert lines[-1].startswith("7  (1,2,5,13,21,8,3,1)")


def test_tables_lebrun_and_involutive():
    result = run_cli("tables", "lebrun", "--n", "4", "--format", "json")
    data = json.loads(result.stdout)
    assert data["count"] == 4

    result = run_cli("tables", "involutive", "--n", "7", "--format", "json")
    data = json.loads(result.stdout)
    assert data["count"] == 4
    assert [m["slack"] for m in data["members"]] == [None, 5, 3, 1]


def test_tables_requires_n():
    result = run_cli("tables", "lebrun")
    assert result.returncode == 2


def run_main(argv):
    """Exit code and stdout of an in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_tables_reject_empty_ranges(capsys):
    assert main(["tables", "delta", "--n-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n-max >= 0" in captured.err
    assert main(["tables", "fibonacci", "--n-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n-max >= 2" in captured.err


def test_internal_invariant_violation_exits_3(monkeypatch):
    """An identity that fails, while the request is analyzed or while its
    output is rendered, exits 3 with one stderr line and no stdout."""
    import minitwistor.cli
    import minitwistor.invariants

    multiplicities = minitwistor.invariants._multiplicities

    def wrong_m(k):
        diffs, l, m = multiplicities(k)
        return diffs, l, m + 1

    def failing_trace(rec):
        raise invariant_violation("trace", rec.k, "level scan length differs from m")

    def failing(stage):
        def render(value):
            raise InternalInvariantError(f"{stage}: rendering failed")

        return render

    seq = ["--seq", "1,2,5,3,1"]
    cases = (
        (minitwistor.invariants, "_multiplicities", wrong_m, ["analyze", "--seq", "1,2,1"],
         "analyze_sequence: (1,2,1):"),
        # the rest fail after the first lines of the output are ready
        (SequenceAnalysis, "trace", property(failing_trace), ["analyze", *seq],
         "trace: (1,2,5,3,1):"),
        (minitwistor.cli, "discriminant_text", failing("discriminant_text"),
         ["deform-check", *seq], "discriminant_text:"),
        (minitwistor.cli, "discriminant_latex", failing("discriminant_latex"),
         ["analyze", *seq, "--format", "latex"], "discriminant_latex:"),
    )
    for owner, name, replacement, argv, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, replacement)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code == 3, argv
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("internal invariant violation: " + message), argv
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_analyze_latex_builds_no_schedule(count_calls):
    calls = count_calls("conic_bundle", "blow_up_schedule")
    argv = ["analyze", "--seq", "1,2,5,3,1"]
    assert run_main(argv + ["--format", "latex"])[0] == 0
    assert calls == []
    for fmt in ("text", "json"):
        assert run_main(argv + ["--format", fmt])[0] == 0
    assert len(calls) == 2


def run_captured(argv):
    """Exit code, stdout and stderr of an in-process CLI call, parser exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_or_reject(argv):
    """Exit code and stdout of an in-process CLI call, parser errors included."""
    return run_captured(argv)[:2]


#: One small valid request per subcommand and tables kind, without --format.
SMALL_REQUESTS = {
    "analyze": ["analyze", "--seq", "1,2,1"],
    "equation": ["equation", "--seq", "1,2,1"],
    "deform-check": ["deform-check", "--seq", "1,2,1"],
    "schedule": ["schedule", "--seq", "1,2,1"],
    "catalog": ["catalog", "--n", "3", "--no-cache"],
    "delta": ["tables", "delta", "--n-max", "3"],
    "fibonacci": ["tables", "fibonacci", "--n-max", "3"],
    "lebrun": ["tables", "lebrun", "--n", "4"],
    "involutive": ["tables", "involutive", "--n", "3"],
}


def accepted_formats():
    """The --format choices of each subcommand, as the parser declares them,
    and of each tables kind, as the tables table declares them."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    formats = {
        name: next(a.choices for a in subparser._actions if a.dest == "format")
        for name, subparser in sub.choices.items()
    }
    kinds = {kind: entry[3] for kind, entry in _TABLES.items()}
    assert set(formats.pop("tables")) == {fmt for fmts in kinds.values() for fmt in fmts}
    return {**formats, **kinds}


def test_every_accepted_format_changes_the_output():
    formats = accepted_formats()
    assert formats.keys() == SMALL_REQUESTS.keys()
    for name, argv in SMALL_REQUESTS.items():
        outputs = []
        for fmt in formats[name]:
            code, out = run_or_reject(argv + ["--format", fmt])
            assert code == 0 and out, (name, fmt)
            outputs.append(out)
        assert len(set(outputs)) == len(outputs), name
    for command in ("analyze", "equation"):
        argv = SMALL_REQUESTS[command]
        signs = {c: run_or_reject(argv + ["--c", c]) for c in ("+1", "1", "-1")}
        assert signs["+1"] == signs["1"] != signs["-1"], command


def test_options_a_command_does_not_take_exit_2():
    for argv in (
        ["tables", "delta", "--n", "3"],
        ["tables", "fibonacci", "--n", "3"],
        ["tables", "lebrun", "--n-max", "3"],
        ["tables", "delta", "--format", "latex"],
        ["schedule", "--seq", "1,2,1", "--format", "latex"],
        ["deform-check", "--seq", "1,2,1", "--format", "latex"],
    ):
        assert run_or_reject(argv) == (2, ""), argv


#: sha256 of the help text of the top level and of each subcommand, and of
#: two usage errors on stderr, recorded with COLUMNS=80 before the width was
#: fixed
HELP_DIGESTS = {
    ("--help",): "35ba70ef9818eac9e4fd7ffd0ea848cac45016c0aad2451d0abdc5e034b58b74",
    ("analyze", "--help"): "d80c37f6a784dc23ccb9e135d94c05d8b7983024e8e46b7498041d9186ba7f28",
    ("equation", "--help"): "5e1472958c6e3917f6c35c590cc9576cca9973b50ea7ad820bb1963e1743a9f9",
    ("deform-check", "--help"): "3525ab271542df97dfd5185f3a071091e7062b5a78f132b57790b52b3cbe81ba",
    ("schedule", "--help"): "cf9c70eed85c3fec7450e91848bd058d03535bace817f4ea27a22e5de569d15b",
    ("catalog", "--help"): "11476255eeb807f861981b47f3d93099244712096abd4652bf6c6477d59c2b90",
    ("tables", "--help"): "4bc8c8b2fe5a218887fd97bdafe31e1c9b91ad572922c2d7ccedc37ff5a4d6cd",
    ("catalog", "--n", "x"): "2101b38c4f0b9dda6aaad8706be4d2f74f2c86a8bc2191ec648d1041c66f91de",
    ("tables", "delta", "--n", "3"): "968e16f7b7b0888984747b1c8d651f68b64a9f10b8e3e4adafe02f9f1c1a17ff",
}


def test_help_and_usage_bytes_do_not_depend_on_the_terminal(monkeypatch):
    for columns in ("30", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv, digest in HELP_DIGESTS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            text = out.getvalue() if "--help" in argv else err.getvalue()
            assert (code, hashlib.sha256(text.encode()).hexdigest()) == (
                0 if "--help" in argv else 2, digest
            ), (columns, argv)


def test_a_fresh_process_reads_its_argv():
    # main(None) reads sys.argv, which no in-process call reaches
    for argv, code in (
        (("--help",), 0), (("analyze", "--help"), 0), (("tables", "delta", "--n", "3"), 2)
    ):
        result = run_cli(*argv)
        text, other = (result.stdout, result.stderr) if code == 0 else (result.stderr, result.stdout)
        assert (result.returncode, hashlib.sha256(text).hexdigest()) == (code, HELP_DIGESTS[argv])
        assert other == b"", argv


def test_a_request_adds_options_only_to_its_subcommand(monkeypatch):
    import minitwistor.cli

    built, inits = [], []
    original_init = argparse.ArgumentParser.__init__

    def recording(command=None):
        built.append(build_parser(command))
        return built[-1]

    def counting(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(minitwistor.cli, "build_parser", recording)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_main(["analyze", "--seq", "1,2,1"])[0] == 0
    (parser,) = built
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = [*SEQ_COMMANDS, "catalog", "tables"]
    assert list(sub.choices) == commands
    # the subcommands the request does not name are never parsed with or
    # printed, and get no parser at all
    assert [name for name, subparser in sub.choices.items() if subparser is not None] == [
        "analyze"
    ]
    assert [action.dest for action in sub.choices["analyze"]._actions] == [
        "help", "seq", "lambdas", "c", "format"
    ]
    inits.clear()
    assert run_or_reject(["schedule", "--seq", "1,2,1"])[0] == 0
    assert inits == ["minitwistor", "minitwistor schedule"]
    inits.clear()
    # with no subcommand named, the full build makes every parser
    assert run_or_reject(["--help"])[0] == 0
    assert inits == ["minitwistor", *(f"minitwistor {name}" for name in commands)]


def test_equation_past_the_int_to_str_limit():
    # three 2000-digit interior lambdas give coefficients of about 14000 digits
    big = [str(10**1999 + i) for i in range(3)]
    argv = ["equation", "--seq", "1,2,5,3,1", "--lambda", ",".join(["0", "1", *big, "inf"])]
    formats = ("text", "latex", "json")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        rendered = {fmt: run_main(argv + ["--format", fmt]) for fmt in formats}
        sys.set_int_max_str_digits(0)
        expected = {fmt: run_main(argv + ["--format", fmt]) for fmt in formats}
    finally:
        sys.set_int_max_str_digits(saved)
    assert rendered == expected
    assert all(code == 0 for code, _ in rendered.values())
    assert max(len(token) for token in rendered["text"][1].split()) > 4300


def test_closed_stdout_pipe_exits_quietly():
    # about 185 kB of output, far past the pipe buffer, so the writer hits
    # the closed pipe mid-stream
    proc = subprocess.Popen(
        [sys.executable, "-m", "minitwistor", "catalog", "--classes", "marked", "--n", "10",
         "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"n = 10: 8440 marked sequences up to reversal\n"
    assert err == b""


def test_lambda_past_the_str_to_int_limit():
    # a 4400-digit lambda is read past CPython's 4300-digit str-to-int limit;
    # on (1,2,1) the right-hand side is u1 (u1 - u4)(u1 - L u4) u4
    digits = "1" * 4400
    argv = ["equation", "--seq", "1,2,1", "--lambda", f"0,1,{digits},inf", "--format", "json"]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        big = int(digits)
        expected = ["0", str(big), str(-(big + 1)), "1", "0"]
        sys.set_int_max_str_digits(4300)
        code, out = run_main(argv)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    report = json.loads(out)
    assert report["rhs"]["coefficients"] == expected
    assert report["lambdas"] == ["0", "1", digits, "inf"]


def test_sequence_entry_past_the_str_to_int_limit(capsys):
    # a 5000-digit entry is read past CPython's 4300-digit str-to-int limit,
    # so it fails the rule it breaks, as a 50-digit entry does, not the parse
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for digits in (50, 5000):
            assert main(["analyze", "--seq", f"1,{'7' * digits},1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "ray chain breaks at k_4" in captured.err, digits
    finally:
        sys.set_int_max_str_digits(saved)


def test_malformed_long_lambda_message_is_short(capsys):
    token = "1" * 4999 + "x"
    assert main(["equation", "--seq", "1,2,1", "--lambda", f"0,1,{token},inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 200
    assert "(5000 characters)" in captured.err


SEQ_COMMANDS = ("analyze", "equation", "deform-check", "schedule")
LAMBDA_TOKENS = ("0", "1", "2", "1/2", "7/3", "-1", "inf", "-inf", "2/0", "x", "", "1e3", "99999")
JUNK_TOKENS = ("--bogus", "--seq", "--n", "--format", "--lambda", "-h", "extra")
LEADING_TOKENS = ("-", "-1", "--", "-a b", "--bogus", "")
VALID_SEQUENCES = tuple(seq for n in range(8) for seq in oriented_sequences(n))


def increasing_lambdas(steps):
    """The tokens 0, lambda_2, ..., inf, with each step p/q added to the last."""
    tokens, value = ["0"], Fraction(0)
    for p, q in steps:
        value += Fraction(p, q)
        tokens.append(str(value))
    return tokens + ["inf"]


@st.composite
def cli_argv(draw, cache_dir):
    """An argv over every subcommand, valid or not.  The sizes stay small
    where no work limit exists yet (ROADMAP.md): sequences have at most 9
    entries of at most 30.  Every level is at most 7 or above its limit,
    which must exit 2 before any work: catalog --n takes levels above the
    enumeration limit (n <= 14), and tables delta and fibonacci --n-max and
    tables lebrun and involutive --n levels above the family limit
    (n <= 500).  catalog gets no cache option, --no-cache or a temporary
    --cache-dir."""
    command = draw(st.sampled_from(SEQ_COMMANDS + ("catalog", "tables")))
    argv = [command]
    # main names the command by the first argument without a leading "-";
    # these tokens put a dash-led or empty argument before it
    if draw(st.integers(min_value=0, max_value=7)) == 7:
        argv.insert(0, draw(st.sampled_from(LEADING_TOKENS)))
    small_n = st.integers(min_value=-2, max_value=7).map(str)
    level_n = st.one_of(small_n, st.integers(min_value=15, max_value=10**6).map(str))
    family_n = st.one_of(small_n, st.integers(min_value=501, max_value=10**6).map(str))
    if command in SEQ_COMMANDS:
        entries = draw(
            st.one_of(
                st.sampled_from(VALID_SEQUENCES),
                st.lists(st.integers(min_value=-1, max_value=30), max_size=9),
            )
        )
        argv += ["--seq", ",".join(map(str, entries)) or draw(st.sampled_from(("", "x", "1,,1")))]
        if command in ("analyze", "equation"):
            if draw(st.booleans()):
                step = st.integers(min_value=1, max_value=9)
                size = max(len(entries) - 1, 0)
                lambdas = draw(
                    st.one_of(
                        st.lists(st.tuples(step, step), min_size=size, max_size=size).map(
                            increasing_lambdas
                        ),
                        st.lists(st.sampled_from(LAMBDA_TOKENS), max_size=11),
                    )
                )
                argv += ["--lambda", ",".join(lambdas)]
            if draw(st.booleans()):
                argv += ["--c", draw(st.sampled_from(("+1", "1", "-1", "0", "x")))]
    elif command == "catalog":
        argv += ["--n", draw(level_n), "--classes", draw(st.sampled_from(("u1", "marked", "x")))]
        argv += draw(st.sampled_from(([], ["--no-cache"], ["--cache-dir", cache_dir])))
    else:
        which = draw(st.sampled_from(("delta", "fibonacci", "lebrun", "involutive", "x")))
        argv.append(which)
        sizes = {
            ("delta", "--n-max"): family_n,
            ("fibonacci", "--n-max"): family_n,
            ("lebrun", "--n"): family_n,
            ("involutive", "--n"): family_n,
        }
        for flag in ("--n-max", "--n"):
            if draw(st.booleans()):
                argv += [flag, draw(sizes.get((which, flag), small_n))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "latex", "text", "x")))]
    if draw(st.booleans()):
        argv += draw(st.lists(st.sampled_from(JUNK_TOKENS), min_size=1, max_size=2))
    return argv


def test_absurd_level_exits_2_at_once():
    for argv, limit in (
        (["catalog", "--n", "5000", "--no-cache"], "limit n <= 14"),
        (["catalog", "--classes", "marked", "--n", "15", "--no-cache"], "limit n <= 14"),
        (["tables", "delta", "--n-max", "5000"], "limit n <= 500"),
        (["tables", "lebrun", "--n", "1000000"], "limit n <= 500"),
        (["tables", "involutive", "--n", "1000000"], "limit n <= 500"),
        (["tables", "fibonacci", "--n-max", "1000000"], "limit n <= 500"),
    ):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out.getvalue() == "", argv
        assert limit in err.getvalue(), argv


def test_large_m_exits_2_before_the_model(count_calls):
    from minitwistor.catalog import family_fibonacci
    from minitwistor.model import _MAX_M

    multiplied = count_calls("model", "_multiply")
    # the staircase 1, 2, ..., L + 1, 1 has m = L + 1; Fibonacci n = 30 has
    # m = 1,346,269, whose model would never finish
    staircase = [*range(1, _MAX_M + 2), 1]
    for seq in (staircase, family_fibonacci(30)):
        for command in ("equation", "analyze"):
            argv = [command, "--seq", ",".join(map(str, seq))]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert time.perf_counter() - start < 1, argv[:2]
            assert code == 2, argv[:2]
            assert out.getvalue() == "", argv[:2]
            assert f"model limit m <= {_MAX_M}" in err.getvalue(), argv[:2]
    assert multiplied == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(tmp_path_factory, data):
    argv = data.draw(cli_argv(str(tmp_path_factory.getbasetemp() / "fuzz-cache")))
    code, out, err = run_captured(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err, argv
    if code != 0:
        assert out == "", argv


def assert_same_as_the_full_build(argv):
    import minitwistor.cli

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minitwistor.cli, "build_parser", lambda command=None: build_parser())
        expected = run_captured(argv)
    assert run_captured(argv) == expected, argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_prints_what_the_full_parser_prints(tmp_path_factory, data):
    argv = data.draw(cli_argv(str(tmp_path_factory.getbasetemp() / "full-build-cache")))
    assert_same_as_the_full_build(argv)


def test_usage_errors_and_help_match_the_full_parser():
    for argv in (
        [], ["-h"], ["bogus"], ["tables", "delta", "--n", "3"], ["catalog", "--n", "x"],
        *([command, "--help"] for command in (*SEQ_COMMANDS, "catalog", "tables")),
        # argparse reads the first argument without a leading "-" as the command
        ["--bogus", "analyze", "--seq", "1,2,1"], ["--bogus", "tables", "delta"],
        ["--", "schedule", "--seq", "1,2,1"], ["-1", "analyze"], ["-", "catalog"],
        # "-a b" (it holds a space) and "" read as the command; "-h" and its
        # prefix "--he" as the top-level help
        ["-a b", "analyze"], ["", "analyze"], ["-h", "analyze"], ["--he", "catalog"],
    ):
        assert_same_as_the_full_build(argv)
