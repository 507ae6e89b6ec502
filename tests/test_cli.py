"""Command-line behaviour: output documents, modes, config, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from cohdual.algebra import Element, ModuleShape, TruncationBox
from cohdual.cli import build_parser, main, parse_shape_spec
from cohdual.duality import GAMMA_FULL
from cohdual.exprio import element_to_document, from_document, write_document
from cohdual.fields import PrimeField
from cohdual.independence import DeltaSequence, make_d


@pytest.fixture(autouse=True)
def _clean_config(monkeypatch):
    monkeypatch.delenv("COHDUAL_CONFIG", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_doc(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_shape_spec_spellings():
    assert parse_shape_spec("R", 2).roles == ("series", "series")
    assert parse_shape_spec("E", 2).roles == ("inverse", "inverse")
    assert parse_shape_spec("H:1", 3).roles == ("inverse", "series", "series")
    assert parse_shape_spec("D:1", 3).roles == ("series", "inverse", "inverse")
    assert parse_shape_spec("series,inverse").roles == ("series", "inverse")
    with pytest.raises(ValueError):
        parse_shape_spec("R")
    with pytest.raises(ValueError):
        parse_shape_spec("Q", 2)
    with pytest.raises(ValueError):
        parse_shape_spec("series,inverse", 3)


def test_dfam_document(capsys):
    code, doc = run_doc(capsys, "dfam", "--power", "2", "--lmax", "3")
    assert code == 0
    assert doc["kind"] == "element"
    assert doc["text"] == "1 + Y^-1*X + Y^-4*X^2 + Y^-9*X^3"
    assert doc["box"] == [3, 9]


def test_dfam_box_of_the_wrong_arity_is_a_usage_error(capsys):
    for box in ("5", "5,5,5"):
        code, out, err = run_cli(capsys, "dfam", "--power", "1", "--lmax", "2", "--box", box)
        assert (code, out) == (64, "")
        assert err == "error: shape and box disagree on the variable count\n"


def test_dfam_output_is_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "dfam", "--power", "3", "--lmax", "5")
    code2, out2, _ = run_cli(capsys, "dfam", "--power", "3", "--lmax", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "dfam", "--power", "1", "--lmax", "4",
                           "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode("ascii")


def test_delta_document_and_window(capsys):
    code, doc = run_doc(capsys, "delta", "1 + Y^-1*X", "--window", "0:3")
    assert code == 0
    assert doc["kind"] == "delta_profile"
    assert doc["start"] == 0
    assert doc["entries"] == [0, -1, None, None]


def test_delta_fit_failure_exits_one(capsys):
    code, doc = run_doc(capsys, "delta", "1 + Y^-1*X",
                        "--fit", "2", "--tail-start", "0")
    assert code == 1
    assert doc["fit"] is None
    assert doc["fit_power"] == 2
    assert from_document(doc) == DeltaSequence(0, (0, -1) + (None,) * 7)


def test_delta_fit_needs_tail_start(capsys):
    code, _, err = run_cli(capsys, "delta", "1 + Y^-1*X", "--fit", "2")
    assert code == 64
    assert "tail-start" in err


def test_delta_tail_start_needs_fit(capsys):
    code, out, err = run_cli(capsys, "delta", "1 + Y^-1*X", "--tail-start", "3")
    assert (code, out) == (64, "")
    assert err == "usage error: --fit and --tail-start need each other\n"


def test_delta_reversed_window_is_named(capsys):
    code, out, err = run_cli(capsys, "delta", "X*Y^-1", "--window", "3:1")
    assert (code, out) == (64, "")
    assert err == "error: window [3, 1] is reversed: LO > HI\n"


def test_delta_reads_element_documents(capsys, tmp_path):
    path = tmp_path / "element.json"
    write_document(element_to_document(make_d(2, 6)), path)
    code, doc = run_doc(capsys, "delta", "@" + str(path))
    assert code == 0
    assert doc["entries"] == [0, -1, -4, -9, -16, -25, -36]


def test_missing_element_document(capsys, tmp_path):
    code, _, err = run_cli(capsys, "delta", "@" + str(tmp_path / "gone.json"))
    assert code == 64
    assert err


def test_act_and_derive_human_mode(capsys):
    code, out, _ = run_cli(capsys, "act", "Y", "1 + Y^-1*X", "--mode", "human")
    assert code == 0
    assert out == "X\n"
    code, out, _ = run_cli(capsys, "derive", "-j", "1", "1 + Y^-1*X",
                           "--mode", "human")
    assert code == 0
    assert out == "-Y^-1 - 2*Y^-2*X\n"


def test_human_mode_writes_its_text_to_out(capsys, tmp_path):
    path = tmp_path / "act.txt"
    code, out, _ = run_cli(capsys, "act", "Y", "1 + Y^-1*X", "--mode", "human",
                           "--out", str(path))
    assert code == 0
    assert out == path.read_text() == "X\n"


# one request per subcommand: regular is a report, the delta fit fails (exit
# 1) and the indep window is too short (exit 2)
REQUESTS = {
    "cohomology": ("cohomology", "-n", "1", "-i", "1", "--window", "2"),
    "dfam": ("dfam", "--power", "2", "--lmax", "3"),
    "delta": ("delta", "Y^-1+X*Y^-3", "--fit", "1", "--tail-start", "0"),
    "act": ("act", "Y", "1 + Y^-1*X"),
    "derive": ("derive", "-j", "1", "1 + Y^-1*X"),
    "pair": ("pair", "X^-1*Y^-2", "X*Y^2", "--shape", "R", "-n", "2"),
    "gamma": ("gamma", "--shape", "E", "-n", "2", "--gens", "0,1"),
    "regular": ("regular", "-n", "3", "-i", "2", "--bound", "2"),
    "check": ("check", "--suite", "io", "--seed", "5"),
    "indep": ("indep", "1", "Y^10000000", "--lmax", "10", "--trunc", "10000000"),
}
EXITS = {"delta": 1, "indep": 2}


@pytest.mark.parametrize("mode", ["document", "human"])
@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_out_holds_exactly_what_stdout_gets(capsys, tmp_path, command, mode):
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, *REQUESTS[command], "--mode", mode, "--out", str(path))
    assert (code, err) == (EXITS.get(command, 0), "")
    assert out
    if mode == "document":
        assert path.read_bytes() == out.encode("ascii")
        assert json.loads(out)["kind"]
    else:
        assert path.read_text() == out


# the option strings of each subcommand, in the order its --help lists them
OPTIONS = {
    "cohomology": ["-n", "--nvars", "-i", "--index", "--window"],
    "dfam": ["--power", "--lmax", "--box"],
    "delta": ["--window", "--fit", "--tail-start", "-n", "--nvars", "--shape", "--box"],
    "act": ["-n", "--nvars", "--shape", "--box"],
    "derive": ["-j", "--variable", "-n", "--nvars", "--shape", "--box"],
    "pair": ["--out-box", "-n", "--nvars", "--shape", "--box"],
    "gamma": ["--shape", "-n", "--nvars", "--gens"],
    "regular": ["-n", "--nvars", "-i", "--index", "--bound"],
    "check": ["--suite", "--seed"],
    "indep": ["--lmax"],
}


def test_every_subcommand_lists_its_options_then_the_common_four():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(commands.choices) == list(OPTIONS) == list(REQUESTS)
    for name, sub in commands.choices.items():
        got = [option for action in sub._actions for option in action.option_strings]
        assert got == ["-h", "--help", *OPTIONS[name], "--field", "--trunc", "--out", "--mode"]


@pytest.mark.parametrize("argv", [("act", "X", "Y^-2", "--box"),
                                  ("dfam", "--power", "1", "--lmax", "2", "--box"),
                                  ("pair", "X^-1", "X", "--out-box")])
def test_every_box_reader_names_the_form(capsys, argv):
    assert run_cli(capsys, *argv, "1,x") == (64, "", "error: cannot read box bounds from '1,x'\n")


def test_pair_human_mode(capsys):
    code, out, _ = run_cli(capsys, "pair", "X^-1*Y^-2", "X*Y^2",
                           "--shape", "R", "-n", "2", "--mode", "human")
    assert code == 0
    assert out == "1\n"


def test_gamma_document(capsys):
    code, doc = run_doc(capsys, "gamma", "--shape", "E", "-n", "2",
                        "--gens", "0,1")
    assert code == 0
    assert doc["kind"] == "torsion_support"
    assert doc["result"] == GAMMA_FULL


@pytest.mark.parametrize("argv, n", [
    (("act", "X", "Z^-1", "--shape", "series,series,inverse"), 3),
    (("derive", "-j", "2", "Y^-1*Z^-2", "--shape", "series,inverse,inverse"), 3),
    (("pair", "X^-1", "X*Z^-1", "--shape", "series,inverse,inverse"), 3),
    (("delta", "1 + Y^-1*X", "--shape", "series,inverse"), 2),
])
def test_a_role_list_carries_its_own_variable_count(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "-n", str(n)) == (0, out, "")


@pytest.mark.parametrize("argv", [("act", "X", "Y^-2"),
                                  ("gamma", "--shape", "E", "--gens", "0")])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_a_variable_count_below_one_is_a_usage_error(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv, "-n", n)
    assert (code, out) == (64, "")
    assert err == f"usage error: -n must be at least 1, got {n}\n"


def test_cohomology_verifies(capsys):
    code, doc = run_doc(capsys, "cohomology", "-n", "1", "-i", "1",
                        "--window", "2")
    assert code == 0
    assert doc["kind"] == "realization_check"
    assert doc["passed"] is True
    assert doc["nonzero_count"] == 2


def test_cohomology_refuses_a_negative_variable_count(capsys):
    code, out, err = run_cli(capsys, "cohomology", "-n", "-1", "-i", "1")
    assert (code, out) == (64, "")
    assert err == "error: need 1 <= i <= n, got i=1, n=-1\n"


def test_regular_verifies(capsys):
    code, out, _ = run_cli(capsys, "regular", "-n", "2", "-i", "1",
                           "--bound", "2", "--mode", "human")
    assert code == 0
    assert "verified: yes" in out


def test_regular_refuses_bound_zero(capsys):
    code, out, err = run_cli(capsys, "regular", "-n", "3", "-i", "2", "--bound", "0")
    assert (code, out) == (64, "")
    assert err == "error: the box must leave room for the action; need bound >= 1\n"


@pytest.mark.parametrize("window", ["3", "a:b", "1:2:3", "0:1:2", "a:1"])
def test_delta_malformed_window_names_the_form(capsys, window):
    code, out, err = run_cli(capsys, "delta", "X*Y^-1", "--window", window)
    assert (code, out) == (64, "")
    assert err == f"error: cannot read the window LO:HI from {window!r}\n"


def test_indep_certificate(capsys):
    code, doc = run_doc(capsys, "indep", "1", "Y", "--lmax", "12")
    assert code == 0
    assert doc["kind"] == "independence_certificate"
    assert (doc["m0"], doc["a"], doc["b"]) == (2, 0, 1)
    assert doc["nonzero"] is True


def test_indep_torsion_is_inconclusive(capsys):
    code, doc = run_doc(capsys, "indep", "Y - X", "--lmax", "12")
    assert code == 2
    assert doc["kind"] == "inconclusive_window"
    assert doc["required_lmax"] is None


def test_indep_short_window_names_a_sufficient_one(capsys):
    code, doc = run_doc(capsys, "indep", "0", "1", "--lmax", "2")
    assert code == 2
    assert doc["required_lmax"] == 3


def test_check_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "io", "--seed", "5",
                           "--mode", "human")
    assert code == 0
    assert "suite io with seed 5: all passed" in out
    assert out.startswith("ok")


def test_usage_errors_exit_64(capsys):
    assert run_cli(capsys, "bogus")[0] == 64
    assert run_cli(capsys, "dfam", "--power", "1", "--lmax", "2", "--nope")[0] == 64
    assert run_cli(capsys, "delta", "++")[0] == 64
    assert run_cli(capsys, "delta", "X^99")[0] == 64
    assert run_cli(capsys)[0] == 64


@pytest.mark.parametrize("expression", ["\u0663*Y^-1", "Y^-\u0661", "2/\u0663*Y^-1"])
def test_digits_of_other_scripts_are_a_usage_error(capsys, expression):
    code, out, err = run_cli(capsys, "act", "X", expression)
    assert (code, out) == (64, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("expression, message", [
    ("X^", "expected an integer exponent after '^' (at position 2)"),
    ("3/ X", "expected a denominator after '/' (at position 3)"),
    ("X*", "expected a variable after '*' (at position 2)"),
    ("2 3", "a coefficient may only open a term (at position 2)"),
])
def test_malformed_expressions_name_their_position(capsys, expression, message):
    assert run_cli(capsys, "act", "X", expression, "--shape", "R") == (
        64, "", f"error: {message}\n")


def test_an_over_long_exponent_names_its_position(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string digit limit")
    digits = "1" * (limit + 1)
    with pytest.raises(ValueError) as too_long:
        int(digits)
    assert run_cli(capsys, "act", "X", "X^" + digits, "--shape", "R") == (
        64, "", f"error: {too_long.value} (at position 0)\n")


NON_ASCII_INTEGERS = ("\u0663", "1_0")  # int() reads both, as 3 and 10


def _integer_options():
    """(subcommand, option strings) of every option whose type reads an integer."""
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    return [(name, action.option_strings)
            for name, sub in commands.choices.items()
            for action in sub._actions if getattr(action.type, "__name__", "") == "int"]


def test_every_integer_option_is_covered():
    """--trunc on all ten subcommands, -n on the four that take elements, 14 more."""
    assert len(_integer_options()) == 10 + 4 + 14
    assert ("indep", ["--lmax"]) in _integer_options()


@pytest.mark.parametrize("text", NON_ASCII_INTEGERS)
@pytest.mark.parametrize("command, options", _integer_options())
def test_integer_options_take_ascii_digits_only(capsys, command, options, text):
    code, out, err = run_cli(capsys, command, options[-1], text)
    assert (code, out) == (64, "")
    assert err == f"usage error: argument {'/'.join(options)}: invalid int value: {text!r}\n"


def test_integer_options_still_read_signs_and_spaces(capsys):
    code, doc = run_doc(capsys, "dfam", "--power", "+1", "--lmax", " 3 ")
    assert code == 0 and doc["box"] == [3, 3]


@pytest.mark.parametrize("text", NON_ASCII_INTEGERS)
@pytest.mark.parametrize("argv, message", [
    (("act", "X", "Y^-1", "--shape", "H:{}"), "cannot read the position in 'H:{}'"),
    (("act", "X", "Y^-1", "--shape", "D:{}", "-n", "3"), "cannot read the position in 'D:{}'"),
    (("act", "X", "Y^-1", "--box", "{},4"), "cannot read box bounds from '{},4'"),
    (("dfam", "--power", "1", "--lmax", "2", "--box", "2,{}"),
     "cannot read box bounds from '2,{}'"),
    (("pair", "X^2*Y^-1", "X^-1*Y^2", "--shape", "H:1", "--out-box", "0,{}"),
     "cannot read box bounds from '0,{}'"),
    (("gamma", "--shape", "series,inverse", "--gens", "{}"),
     "cannot read the variable indices I,J,... from --gens '{}'"),
    (("delta", "Y^-1", "--window", "0:{}"), "cannot read the window LO:HI from '0:{}'"),
])
def test_integer_fields_take_ascii_digits_only(capsys, argv, message, text):
    code, out, err = run_cli(capsys, *(arg.format(text) for arg in argv))
    assert (code, out) == (64, "")
    assert err == f"error: {message.format(text)}\n"


def test_zero_denominator_is_a_usage_error(capsys):
    for argv in (("act", "Y", "1/0*X"), ("delta", "3/0")):
        code, out, err = run_cli(capsys, *argv, "--field", "rational")
        assert code == 64
        assert out == ""
        assert "zero denominator" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("box, exponents", [
    ([True, 4], [1, -2]),
    ([2, 4], [2.5, -2]),
    ([2, 4], ["2", -2]),
    ([2, 4.0], [1, -2]),
])
def test_non_integer_json_is_a_usage_error(capsys, tmp_path, box, exponents):
    doc = element_to_document(make_d(1, 2))
    doc["box"] = box
    doc["terms"] = [{"exponents": exponents, "coefficient": "1"}]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "act", "1", "@" + str(path))
    assert code == 64
    assert out == ""
    assert "JSON integers" in err


@pytest.mark.parametrize("key, value", [
    ("coefficient", "3\n"), ("coefficient", "\u0663"), ("field", "prime: 7"),
    ("field", "prime:+7"), ("field", "prime:1_1"),
])
def test_loose_scalars_and_field_descriptors_are_usage_errors(capsys, tmp_path, key, value):
    """A coefficient with a trailing newline or a digit of another script, or
    a prime written with a space, a sign or an underscore, is refused in one
    line."""
    doc = element_to_document(make_d(1, 2))
    if key == "field":  # the rest of the request is over the prime int() reads
        doc["field"] = value
        field = ("--field", f"prime:{int(value[len('prime:'):])}")
    else:
        doc["terms"][0]["coefficient"] = value
        field = ()
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "act", "1", "@" + str(path), *field)
    assert (code, out) == (64, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if key == "field":
        assert run_cli(capsys, "act", "1", "X^-1", "--field", value)[:2] == (64, "")


@pytest.fixture
def gf7_documents(tmp_path):
    """Paths of two GF(7) element documents: d7, a d-family member, and p7,
    a polynomial in two series variables."""
    paths = {}
    for name, element in (("d7", make_d(1, 2, field=PrimeField(7))),
                          ("p7", Element.from_terms(ModuleShape.series_shape(2),
                                                    TruncationBox.uniform(2, 8),
                                                    {(1, 0): 3}, field=PrimeField(7)))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(write_document(element_to_document(element)))
    return paths


@pytest.mark.parametrize("argv", [
    ("act", "-n", "2", "--shape", "D:1", "1/2*X", "@{d7}"),
    ("pair", "-n", "2", "--shape", "D:1", "1/2*X^-1", "@{d7}"),
    ("indep", "@{p7}", "1/2*X"),
])
def test_mixed_fields_are_a_usage_error(capsys, gf7_documents, argv):
    """Rational expressions against GF(7) documents are refused in one line."""
    code, out, err = run_cli(capsys, *(arg.format(**gf7_documents) for arg in argv))
    assert (code, out) == (64, "")
    assert err == "error: mixed coefficient fields: prime:7 and rational\n"


@pytest.mark.parametrize("argv, code", [
    (("derive", "-j", "0", "@{d7}"), 64),
    (("derive", "-j", "0", "@{d7}", "--mode", "human"), 64),
    (("act", "@{p7}", "@{d7}"), 64),
    (("indep", "@{p7}", "--lmax", "20"), 64),
    (("indep", "@{p7}", "--lmax", "2"), 2),
    (("delta", "@{d7}"), 0),
])
def test_a_document_over_another_field_is_refused_where_it_is_written(
        capsys, gf7_documents, argv, code):
    """An element of a GF(7) document in a rational request is refused with
    the frame error when it meets the request's elements or is to be
    written; a request that writes no element of it (a profile, an
    inconclusive window) answers as over any field."""
    got, out, err = run_cli(capsys, *(arg.format(**gf7_documents) for arg in argv))
    assert got == code
    if code == 64:
        assert (out, err) == ("", "error: mixed coefficient fields: prime:7 and rational\n")


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_config_file_presets_field(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field": "prime:7", "trunc": 5}))
    monkeypatch.setenv("COHDUAL_CONFIG", str(config))
    code, doc = run_doc(capsys, "act", "3", "5*X", "--shape", "R", "-n", "2")
    assert code == 0
    assert doc["field"] == "prime:7"
    assert doc["text"] == "X"
    assert doc["box"] == [5, 5]


def test_config_flag_overrides_file(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field": "prime:7"}))
    monkeypatch.setenv("COHDUAL_CONFIG", str(config))
    code, doc = run_doc(capsys, "act", "3", "5*X", "--shape", "R", "-n", "2",
                        "--field", "rational")
    assert code == 0
    assert doc["field"] == "rational"
    assert doc["text"] == "15*X"


def test_config_file_errors_exit_64(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    monkeypatch.setenv("COHDUAL_CONFIG", str(config))
    assert run_cli(capsys, "dfam", "--power", "1", "--lmax", "2")[0] == 64

    config.write_text(json.dumps({"color": "mauve"}))
    assert run_cli(capsys, "dfam", "--power", "1", "--lmax", "2")[0] == 64

    monkeypatch.setenv("COHDUAL_CONFIG", str(tmp_path / "absent.json"))
    assert run_cli(capsys, "dfam", "--power", "1", "--lmax", "2")[0] == 64


@pytest.mark.parametrize("config", [
    {"trunc": True}, {"trunc": "5"}, {"trunc": 2.0}, {"seed": "5"},
    {"seed": False}, {"seed": None}, {"field": 7}, {"mode": ["human"]},
    {"trunc": True, "seed": "5"},
])
def test_config_values_are_not_coerced(capsys, tmp_path, monkeypatch, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv("COHDUAL_CONFIG", str(path))
    code, out, err = run_cli(capsys, "act", "Y", "Y^-1")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: config key ") and err.count("\n") == 1


def test_config_integers_are_read(capsys, tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trunc": 1, "seed": 5, "mode": "human"}))
    monkeypatch.setenv("COHDUAL_CONFIG", str(path))
    code, out, _ = run_cli(capsys, "act", "Y", "Y^-1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "check", "--suite", "io")
    assert code == 0
    assert "with seed 5" in out


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cohdual", "dfam", "--power", "1", "--lmax", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "element"
    assert doc["text"] == "1 + Y^-1*X + Y^-2*X^2 + Y^-3*X^3"


def test_unexpected_exception_exits_70(capsys, monkeypatch):
    import cohdual.duality as duality

    def broken(shape, gens):
        raise KeyError("inverse")

    monkeypatch.setattr(duality, "gamma_of_shape", broken)
    code, out, err = run_cli(capsys, "gamma", "--shape", "E", "-n", "2", "--gens", "0")
    assert code == 70
    assert out == ""
    assert err == "internal error: KeyError: 'inverse'\n"


def test_all_zero_coefficients_exit_64(capsys):
    code, out, err = run_cli(capsys, "indep", "0", "0")
    assert (code, out) == (64, "")
    assert err == "error: every coefficient polynomial is zero\n"


@pytest.mark.parametrize("poly", ["1", "X"])
def test_a_negative_lmax_is_named_whatever_the_box(capsys, poly):
    """A constant coefficient would make the box's X-bound -1: the lmax
    check comes first, so both give its message."""
    code, out, err = run_cli(capsys, "indep", poly, "--lmax", "-1")
    assert (code, out) == (64, "")
    assert err == "error: lmax must be nonnegative, got -1\n"


def test_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "nope")
    assert (code, out) == (64, "")
    assert err == ("usage error: argument --suite: invalid choice: 'nope' (choose from "
                   "'algebra', 'cech', 'duality', 'independence', 'io', 'all')\n")


def test_check_help_lists_the_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--help")
    assert code == 0
    assert "--suite {algebra,cech,duality,independence,io,all}" in out


def test_cli_suite_names_match_the_checks_module():
    import cohdual.cli as cli
    from cohdual.checks import suite_names

    assert cli.SUITE_NAMES == suite_names()


@pytest.mark.parametrize("argv", [("act", "X", "Y^-2", "--box", "1"),
                                  ("delta", "X*Y^-1", "--box", "4")])
def test_a_box_with_too_few_bounds_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (64, "")
    assert err == "error: shape and box disagree on the variable count\n"


@pytest.mark.parametrize("gens", ["a", "0,,1", "1.5", "0,x"])
def test_gamma_malformed_gens_names_the_form(capsys, gens):
    code, out, err = run_cli(capsys, "gamma", "--shape", "E", "--gens", gens)
    assert (code, out) == (64, "")
    assert err == f"error: cannot read the variable indices I,J,... from --gens {gens!r}\n"


def test_indep_names_a_window_past_the_old_scan_limit(capsys):
    code, doc = run_doc(capsys, "indep", "1", "Y^10000000", "--lmax", "10",
                        "--trunc", "10000000")
    assert code == 2
    assert doc["required_lmax"] == 3165


def test_indep_window_behind_a_dip_is_named_at_once(capsys):
    """With r_2 = Y^5 and r_3 = X^(10^12) the lower condition fails on about
    10^8 degrees; the window is read off that failure interval, not found by
    scanning it."""
    a = 10 ** 12
    started = time.perf_counter()
    code, doc = run_doc(capsys, "indep", "0", "Y^5", f"X^{a}", "--trunc", str(a),
                        "--lmax", "10")
    assert time.perf_counter() - started < 1
    assert code == 2
    lo, hi = 1, a  # the least t = l - a with t^3 - (a + t)^2 > -5, by its own bisection
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** 3 - (a + mid) ** 2 > -5 else (mid + 1, hi)
    assert doc["required_lmax"] == a + lo + 2
