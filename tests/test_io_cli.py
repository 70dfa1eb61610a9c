import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gonil import cli
from gonil import io as gonil_io
from gonil.catalog import build_example, de5_data
from gonil.double_ext import ExtensionDataError, extend2
from gonil.io import (
    MAX_DIM,
    MAX_FILE_BYTES,
    MAX_RATIONAL_CHARS,
    FormatError,
    algebra_from_dict,
    algebra_to_dict,
    extension_data_from_dict,
    extension_data_to_dict,
    load_algebra,
    load_extension_data,
    parse_rational,
    save_algebra,
)
from gonil.cli import MAX_BOUND, MAX_NORMAL_FORM_M, MAX_SAMPLES, main
from gonil.go_engine import GOEngineError, go_certificate_at, go_random_audit
from gonil.isotropy import isotropy_algebra
from gonil.lie import EngelError
from gonil.linalg import Matrix


@pytest.fixture
def run_cli(capsys):
    """``gonil ARGS`` in-process: (exit code, stdout); the ``-m`` entry point has its own subprocess tests."""

    def run(*args):
        code = main(list(args))
        return code, capsys.readouterr().out

    return run


def test_round_trip_bit_exact(tmp_path):
    for name in ("heis3", "de5", "paper_2_3"):
        m = build_example(name).algebra
        path = tmp_path / f"{name}.json"
        save_algebra(path, m)
        loaded, _ = load_algebra(path)
        assert loaded == m
        # a second write is byte-identical
        path2 = tmp_path / f"{name}_again.json"
        save_algebra(path2, loaded)
        assert path.read_text() == path2.read_text()


def test_rationals_serialize_in_lowest_terms():
    m = build_example("de5").algebra
    data = algebra_to_dict(m)
    for row in data["form"]:
        for entry in row:
            f = Fraction(entry)
            assert str(f) == entry


def test_loader_rejects_asymmetric_form():
    data = {"dim": 2, "brackets": {}, "form": [["0", "1"], ["2", "0"]]}
    with pytest.raises(FormatError, match="symmetric"):
        algebra_from_dict(data)


def test_loader_rejects_jacobi_violation():
    data = {
        "dim": 3,
        "brackets": {"0,1": {"0": "1"}, "0,2": {"1": "1"}, "1,2": {"0": "1"}},
        "form": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    with pytest.raises(FormatError, match="Jacobi"):
        algebra_from_dict(data)


def test_loader_rejects_degenerate_form():
    data = {"dim": 2, "brackets": {}, "form": [["1", "0"], ["0", "0"]]}
    with pytest.raises(FormatError, match="nondegenerate"):
        algebra_from_dict(data)


def test_loader_refuses_boolean_dim(tmp_path, capsys):
    data = {"dim": True, "brackets": {}, "form": [["1"]]}
    with pytest.raises(FormatError, match="'dim' must be a positive integer"):
        algebra_from_dict(data)
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out == "ERROR: 'dim' must be a positive integer\n"


def test_loader_refuses_a_pair_named_twice():
    # "00,1" parses to the same pair as "0,1"; neither may silently win
    identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    data = {"dim": 3, "brackets": {"0,1": {"2": "1"}, "00,1": {"2": "5"}}, "form": identity}
    with pytest.raises(FormatError, match=r"bracket keys '0,1' and '00,1' both name the pair \(0,1\)"):
        algebra_from_dict(data)


def test_loader_rejects_bad_bracket_key():
    data = {"dim": 2, "brackets": {"1,0": {"0": "1"}}, "form": [["1", "0"], ["0", "1"]]}
    with pytest.raises(FormatError, match="0 <= i < j"):
        algebra_from_dict(data)


def test_loader_rejects_float_entries():
    data = {"dim": 1, "brackets": {}, "form": [[1.5]]}
    with pytest.raises(FormatError, match="rational"):
        algebra_from_dict(data)


def test_extension_data_round_trip():
    from gonil.catalog import de5_data

    _, data = de5_data()
    d = extension_data_to_dict(data)
    back = extension_data_from_dict(d)
    assert back.derivation == data.derivation
    assert back.omega == data.omega
    assert back.phi == data.phi
    assert back.mu == data.mu


def test_cli_check_ok_and_malformed(tmp_path, run_cli):
    save_algebra(tmp_path / "ok.json", build_example("heis3").algebra)
    code, out = run_cli("check", str(tmp_path / "ok.json"))
    assert code == 0 and "STATUS: OK" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "brackets": {}, "form": [["0", "1"], ["2", "0"]]}))
    code, out = run_cli("check", str(bad))
    assert code == 2 and "symmetric" in out


def test_cli_go_refuted_and_deterministic(run_cli):
    code1, out1 = run_cli("go", "catalog:filiform4", "--samples", "50", "--seed", "1", "--bound", "5")
    code2, out2 = run_cli("go", "catalog:filiform4", "--samples", "50", "--seed", "1", "--bound", "5")
    assert code1 == code2 == 1
    assert out1 == out2  # byte-identical report
    assert "VERDICT: REFUTED" in out1


def test_cli_go_consistent_exit_zero(run_cli):
    code, out = run_cli("go", "catalog:heis3", "--samples", "25", "--seed", "2")
    assert code == 0
    assert "VERDICT: CONSISTENT" in out


def test_cli_go_at(run_cli):
    code, out = run_cli("go-at", "catalog:heis3", "--vector", "1,2,3")
    assert code == 0 and "RESULT: FEASIBLE" in out and "K: 0" in out
    code, out = run_cli("go-at", "catalog:filiform4", "--vector", "1,0,1,0")
    assert code == 1 and "INFEASIBLE" in out


def test_cli_linear_go(run_cli):
    code, out = run_cli("linear-go", "catalog:de5")
    assert code == 0 and "RESULT: FEASIBLE" in out
    code, out = run_cli("linear-go", "catalog:filiform4")
    assert code == 1 and "RESULT: INFEASIBLE" in out


def test_cli_reduce_writes_quotient(tmp_path, run_cli):
    out_path = tmp_path / "reduced.json"
    code, out = run_cli("reduce", "catalog:de5", "--output", str(out_path))
    assert code == 0
    assert "CASE: DEG1_SEMIDEFINITE" in out
    assert "FLAG[iii].orthogonal_central: PASS" in out
    loaded, _ = load_algebra(out_path)
    assert loaded.dim == 3


def test_cli_reduce_rejects_nondegenerate(run_cli):
    code, out = run_cli("reduce", "catalog:heis3")
    assert code == 1 and "nondegenerate" in out


def test_cli_extend_round_trip(tmp_path, run_cli):
    base = tmp_path / "base.json"
    save_algebra(base, build_example("abelian_n").algebra)
    data_path = tmp_path / "data.json"
    d = [["0", "0", "0", "0"] for _ in range(4)]
    d[1][0] = "1"
    omega = [["0", "0", "0", "0"] for _ in range(4)]
    omega[0][1], omega[1][0] = "1", "-1"
    data_path.write_text(json.dumps({"D": d, "phi": ["0"] * 4, "omega": omega, "mu": "0"}))
    extended = tmp_path / "extended.json"
    code, out = run_cli("extend", str(base), "--data", str(data_path), "--output", str(extended))
    assert code == 0 and "EXTENDED_DIM: 6" in out
    code, out = run_cli("reduce", str(extended), "--output", str(tmp_path / "back.json"))
    assert code == 0
    loaded, _ = load_algebra(tmp_path / "back.json")
    assert loaded == build_example("abelian_n").algebra


def test_cli_catalog_and_verify_paper(tmp_path, run_cli):
    code, out = run_cli("catalog", "paper_2_3", "--output", str(tmp_path / "p.json"))
    assert code == 0
    loaded, names = load_algebra(tmp_path / "p.json")
    assert loaded.dim == 12 and names and names[0] == "f1"
    code, out = run_cli("verify-paper")
    assert code == 0
    assert "SUMMARY: PASS" in out
    assert out.count("FAIL") == 0


def test_cli_unknown_file_is_malformed(run_cli):
    code, out = run_cli("check", "/nonexistent/file.json")
    assert code == 2


def test_cli_bad_vectors_are_malformed(run_cli):
    for vec in ("0,0,0", "1,2", "1,2,x"):
        code, _out = run_cli("go-at", "catalog:heis3", "--vector", vec)
        assert code == 2, vec


def test_cli_normal_forms_too_small_is_malformed(run_cli):
    code, out = run_cli("normal-forms", "--q", "1", "--m", "2")
    assert code == 2 and "m >= 3" in out


def test_cli_normal_forms_family(run_cli):
    code, out = run_cli("normal-forms", "--q", "2", "--m", "6", "--family", "2", "--u1", "1/2", "--v1", "3")
    assert code == 0
    assert "ABELIAN_VERIFIED: yes" in out
    assert "FAMILY_DIM: 6" in out


def test_cli_invariants_paper(run_cli):
    code, out = run_cli("invariants", "catalog:paper_2_3")
    assert code == 0
    assert "SIGNATURE: 8,4,0" in out
    assert "STEP: 4" in out
    assert "DEGENERACY_CASE: NONDEGENERATE" in out


def test_main_function_direct(capsys):
    assert main(["check", "catalog:heis3"]) == 0
    out = capsys.readouterr().out
    assert "STATUS: OK" in out


@pytest.fixture
def no_fraction_in_io(monkeypatch):
    """Make gonil.io unable to build a Fraction, so a refused string provably builds nothing."""

    def refuse(*args):
        raise AssertionError(f"Fraction{args!r} built from a string that should be refused")

    monkeypatch.setattr(gonil_io, "Fraction", refuse)


@pytest.mark.parametrize(
    "text",
    ["1e999999999", "1E5", "2.5e-3", "-1e+9", "1_000", "inf", "nan", "0x10", "1/2/3", "1/", ".", "", " ",
     "9" * (MAX_RATIONAL_CHARS + 1), "1/" + "7" * MAX_RATIONAL_CHARS],
)
def test_parse_rational_refuses_without_building_the_integer(text, no_fraction_in_io):
    with pytest.raises(FormatError):
        parse_rational(text)


def test_parse_rational_accepted_format():
    assert parse_rational("3") == 3
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+2/4") == Fraction(1, 2)  # normalized to lowest terms
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("9" * MAX_RATIONAL_CHARS) == int("9" * MAX_RATIONAL_CHARS)
    with pytest.raises(FormatError, match="zero denominator"):
        parse_rational("1/0")


def _bare_integer_files(tmp_path, place, value):
    """The command line that reads value, a bare JSON integer, at place: an algebra's form or bracket, or extension data."""
    base = {"dim": 2, "brackets": {}, "form": [[1, 0], [0, 1]]}
    data = {"D": [[0, 0], [0, 0]], "phi": [0, 0], "omega": [[0, 0], [0, 0]], "mu": 0}
    if place == "form":
        base["form"][0][0] = value
    elif place == "bracket":
        base = {"dim": 3, "brackets": {"0,1": {"2": value}}, "form": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    elif place == "D":
        data["D"][1][0] = value
    elif place == "omega":
        data["omega"][0][1], data["omega"][1][0] = value, -value
    elif place == "phi":
        data["phi"][0] = value
    else:
        data["mu"] = value
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "data.json").write_text(json.dumps(data))
    if place in ("form", "bracket"):
        return ["check", str(tmp_path / "base.json")]
    return ["extend", str(tmp_path / "base.json"), "--data", str(tmp_path / "data.json")]


@pytest.mark.parametrize("place", ["form", "bracket", "D", "phi", "omega", "mu"])
def test_a_bare_json_integer_meets_the_rational_bound(place, tmp_path, capsys):
    longest = 10**MAX_RATIONAL_CHARS - 1  # 1,000 nines
    assert main(_bare_integer_files(tmp_path, place, longest)) == 0
    capsys.readouterr()
    assert main(_bare_integer_files(tmp_path, place, longest + 1)) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith("ERROR: ")
    assert out.endswith(f"integer longer than {MAX_RATIONAL_CHARS} digits\n")


def test_loader_refuses_exponent_rational(no_fraction_in_io):
    data = {"dim": 1, "brackets": {}, "form": [["1e999999999"]]}
    with pytest.raises(FormatError, match=r"form\[0\]\[0\]: not a rational"):
        algebra_from_dict(data)


def test_cli_refuses_exponent_rationals(no_fraction_in_io, capsys):
    assert main(["go-at", "catalog:heis3", "--vector", "1e999999999,1,1"]) == 2
    assert capsys.readouterr().out.startswith("ERROR: bad vector: not a rational")
    for flag in ("--u1", "--v1"):
        assert main(["normal-forms", "--q", "2", "--m", "6", "--family", "2", flag, "1e999999999"]) == 2
        assert capsys.readouterr().out.startswith("ERROR: not a rational")


@pytest.fixture
def no_matrix_built(monkeypatch):
    """Every normal-forms builder replaced by one that fails the test when called."""
    import gonil.normal_forms as nf

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built")

    for name in ("reference_gram", "iwasawa_nilpotent_basis", "maximal_abelian_family", "q2_element"):
        monkeypatch.setattr(nf, name, refuse)


def test_cli_normal_forms_m_upper_limit(capsys, no_matrix_built):
    for extra in ([], ["--family", "1"]):
        assert main(["normal-forms", "--q", "2", "--m", str(MAX_NORMAL_FORM_M + 1)] + extra) == 2
        assert capsys.readouterr().out == f"ERROR: --m is at most {MAX_NORMAL_FORM_M}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--q", "1", "--m", "6", "--family", "1"], "--family needs --q 2"),
        (["--q", "1", "--m", "3", "--family", "1"], "--family needs --q 2"),
        (["--q", "2", "--m", "4", "--family", "2", "--u1", "1", "--v1", "1"], "family 2 needs m >= 5"),
        (["--q", "2", "--m", "6", "--family", "3", "--v1", "0"], "--u1 and --v1 need --family 2"),
        (["--q", "2", "--m", "6", "--family", "1", "--u1", "1"], "--u1 and --v1 need --family 2"),
        (["--q", "2", "--m", "6", "--u1", "1/2", "--v1", "3"], "--u1 and --v1 need --family 2"),
        (["--q", "2", "--m", "6", "--v1", "1e999999999"], "--u1 and --v1 need --family 2"),
    ],
)
def test_cli_normal_forms_refusal_is_one_error_line(args, message, capsys, request):
    if message != "family 2 needs m >= 5":  # the flags alone are refused, before any matrix is built
        request.getfixturevalue("no_matrix_built")
    assert main(["normal-forms", *args]) == 2
    assert capsys.readouterr().out == f"ERROR: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--q", "2", "--m", "6"],  # buffered, the report fits the stdout buffer: the pipe breaks at the final flush
        ["--q", "2", "--m", "16", "--family", "1"],  # buffered, it does not: the pipe breaks mid-report
        ["--q", "1", "--m", "6", "--family", "1"],  # a refusal's ERROR line meets the closed pipe
    ],
    ids=["small-report", "large-report", "refusal"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_exits_two_without_traceback(args, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:  # every print meets the closed pipe at once
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gonil.cli", "normal-forms", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_cli_go_samples_upper_limit(capsys):
    assert main(["go", "catalog:heis3", "--seed", "1", "--samples", str(MAX_SAMPLES + 1)]) == 2
    assert capsys.readouterr().out == f"ERROR: --samples is at most {MAX_SAMPLES}\n"


def test_cli_go_bound_upper_limit(capsys, monkeypatch):
    assert main(["go", "catalog:heis3", "--seed", "1", "--samples", "3", "--bound", str(MAX_BOUND)]) == 0
    assert f"BOUND: {MAX_BOUND}\n" in capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built")

    for name in ("go_random_audit", "isotropy_algebra"):
        monkeypatch.setattr(cli, name, refuse)
    for bound in (MAX_BOUND + 1, int("9" * 4000)):
        assert main(["go", "catalog:paper_2_3", "--samples", "200", "--seed", "1", "--bound", str(bound)]) == 2
        assert capsys.readouterr().out == f"ERROR: --bound is at most {MAX_BOUND}\n"


def _library_message(call):
    with pytest.raises((GOEngineError, FormatError)) as exc:
        call()
    return str(exc.value)


def test_cli_refuses_bad_go_parameters_before_the_isotropy_solve(capsys, monkeypatch):
    # Each message is the library's own, and no isotropy algebra is built first.
    m = build_example("heis3").algebra
    h = isotropy_algebra(m)
    parameters = {
        ("--samples", "0"): lambda: go_random_audit(m, h, 0, 1),
        ("--samples", "-5"): lambda: go_random_audit(m, h, -5, 1),
        ("--bound", "0"): lambda: go_random_audit(m, h, 5, 1, bound=0),
    }
    vectors = {
        "0,0,0": lambda: go_certificate_at(m, h, [0, 0, 0]),
        "1,2": lambda: go_certificate_at(m, h, [1, 2]),
        "1,2,x": lambda: cli._parse_vector("1,2,x"),
    }
    expected = {key: f"ERROR: {_library_message(call)}\n" for key, call in {**parameters, **vectors}.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("an isotropy algebra was built")

    for name in ("go_random_audit", "isotropy_algebra", "go_certificate_at"):
        monkeypatch.setattr(cli, name, refuse)
    for flag, value in parameters:
        assert main(["go", "catalog:heis3", "--seed", "1", flag, value]) == 2
        assert capsys.readouterr().out == expected[flag, value]
    for vector in vectors:
        assert main(["go-at", "catalog:heis3", "--vector", vector]) == 2
        assert capsys.readouterr().out == expected[vector]


def test_cli_engel_error_is_an_error_line_with_exit_one(monkeypatch, capsys):
    def no_flag(m, h=None):
        raise EngelError("no common kernel vector")

    monkeypatch.setattr(cli, "reduce_algebra", no_flag)
    assert main(["reduce", "catalog:de5"]) == 1
    assert capsys.readouterr().out == "ERROR: no common kernel vector\n"


def _deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize(
    "command",
    [
        lambda tmp: ["check", tmp],
        lambda tmp: ["reduce", "catalog:de5", "--output", tmp],
        lambda tmp: ["check", _deep_json(Path(tmp))],
        lambda tmp: ["extend", "catalog:de5", "--data", _deep_json(Path(tmp))],
    ],
    ids=["check-directory", "reduce-output-directory", "check-deep-json", "extend-deep-json"],
)
def test_cli_unreadable_and_deeply_nested_files_are_malformed(command, tmp_path, capsys):
    assert main(command(str(tmp_path))) == 2
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("ERROR: ")] == out.splitlines()[-1:]
    assert err == ""


def test_cli_internal_error_exits_three_and_other_codes_keep_their_meaning(monkeypatch, capsys):
    assert main(["check", "catalog:heis3"]) == 0
    assert main(["reduce", "catalog:heis3"]) == 1
    assert main(["check", "/nonexistent/file.json"]) == 2
    capsys.readouterr()

    def broken(m):
        raise AssertionError("internal: closure check disagrees with the kernel")

    monkeypatch.setattr(cli, "isotropy_algebra", broken)
    assert main(["isotropy", "catalog:heis3"]) == 3
    assert capsys.readouterr().out == "ERROR: internal: closure check disagrees with the kernel\n"


def _de5_extension_args(tmp_path):
    base, data = de5_data()
    save_algebra(tmp_path / "base.json", base)
    (tmp_path / "data.json").write_text(json.dumps(extension_data_to_dict(data)))
    return [str(tmp_path / "base.json"), "--data", str(tmp_path / "data.json")]


def test_extension_data_refusals_print_their_message_in_one_error_line(tmp_path, capsys):
    # Each breaks de5's data in one place; validate refuses it before any bracket is built.
    base, data = de5_data()
    valid = ["extend", *_de5_extension_args(tmp_path)]
    out, broken_path = tmp_path / "extended.json", tmp_path / "broken.json"
    for message, broken in (
        ("omega is not antisymmetric", replace(data, omega=Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))),
        ("derivation is not nilpotent", replace(data, derivation=Matrix.identity(3))),
    ):
        with pytest.raises(ExtensionDataError, match=f"^{message}$"):
            extend2(base, broken)
        broken_path.write_text(json.dumps(extension_data_to_dict(broken)))
        assert main([*valid[:3], str(broken_path), "--output", str(out)]) == 2
        assert capsys.readouterr() == (f"ERROR: {message}\n", "")
        assert not out.exists()
    assert main([*valid, "--output", str(out)]) == 0
    assert "EXTENDED_DIM: 5" in capsys.readouterr().out.splitlines() and out.exists()


@pytest.mark.parametrize(
    "command",
    [lambda tmp: ["reduce", "catalog:de5"], lambda tmp: ["extend", *_de5_extension_args(tmp)]],
    ids=["reduce", "extend"],
)
def test_cli_unwritable_output_prints_only_the_error_line(command, tmp_path, capsys):
    argv = command(tmp_path)
    assert main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert main([*argv, "--output", str(tmp_path)]) == 2  # a directory cannot be written as a file
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR: ") and str(tmp_path) in lines[0]


@pytest.mark.parametrize("args", [["--help"], ["normal-forms", "--help"]], ids=["gonil", "normal-forms"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_help_to_closed_stdout_exits_two_without_traceback(args, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:  # argparse's own write meets the closed pipe
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gonil.cli", *args], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("args", [["--help"], ["normal-forms", "--help"]], ids=["gonil", "normal-forms"])
def test_cli_help_to_open_pipe_is_argparse_text(args, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "gonil.cli", *args], capture_output=True, text=True)
    assert main(args) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    assert proc.stdout.startswith("usage: gonil")
    if args == ["--help"]:
        assert all(name in proc.stdout for name in cli.COMMANDS)


def test_cli_usage_error_goes_to_stderr_only():
    proc = subprocess.run([sys.executable, "-m", "gonil.cli", "go", "catalog:heis3"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: gonil go")
    assert "error: the following arguments are required: --seed" in proc.stderr


def test_every_algebra_command_refuses_a_missing_file_in_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    names = [name for name, (_fn, _help, specs) in cli.COMMANDS.items() if cli.ALGEBRA in specs]
    assert len(names) == 9
    for name in names:
        required = [flag for flag, options in cli.COMMANDS[name][2] if options.get("required")]
        assert main([name, missing, *[part for flag in required for part in (flag, "1")]]) == 2, name
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.startswith("ERROR: ") and missing in out, name


def test_readme_cli_examples_name_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"^gonil (\S+)", block, re.MULTILINE))
    assert [name for name in cli.COMMANDS if name not in named] == []


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)  # its asserts are the example's checks
    assert namespace["quotient"].m0.dim == 3 and namespace["report"].verdict == "CONSISTENT"


@pytest.mark.parametrize(
    "args",
    [["check", "catalog:heis3"], ["go", "catalog:heis3", "--seed", "1"], ["--help"], ["check", "catalog:nope"]],
    ids=["check", "go", "help", "error"],
)
def test_cli_stdout_closed_at_the_descriptor_exits_two_without_traceback(args):
    # Python starts with sys.stdout None when fd 1 is closed; DEVNULL would leave it open.
    proc = subprocess.run(
        [sys.executable, "-m", "gonil.cli", *args],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (2, "")


def _euclidean_abelian_file(tmp_path, dim):
    path = tmp_path / f"abelian{dim}.json"
    form = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    path.write_text(json.dumps({"dim": dim, "brackets": {}, "form": form}))
    return str(path)


def test_loader_refuses_dim_above_the_limit_before_reading_the_rest():
    assert MAX_DIM == 64  # the limit the README states
    with pytest.raises(FormatError, match=f"^'dim' is at most {MAX_DIM}$"):
        algebra_from_dict({"dim": MAX_DIM + 1, "brackets": "not read", "form": "not read"})


@pytest.mark.parametrize(
    "dim, code, out",
    [(MAX_DIM, 0, "STATUS: OK\n"), (MAX_DIM + 1, 2, f"ERROR: 'dim' is at most {MAX_DIM}\n")],
    ids=["at-limit", "above-limit"],
)
def test_cli_check_bounds_the_file_dim(tmp_path, capsys, dim, code, out):
    assert main(["check", _euclidean_abelian_file(tmp_path, dim)]) == code
    assert capsys.readouterr().out == out


def test_extension_data_refuses_phi_past_the_limit_before_reading_the_rest():
    # D and omega are neither shaped nor parsed: a wrong shape would name them instead.
    with pytest.raises(FormatError, match=f"'phi' has at most {MAX_DIM - 2} entries"):
        extension_data_from_dict({"D": [], "phi": ["0"] * (MAX_DIM - 1), "omega": []})


def _de5_coupling_args(tmp_path, dim):
    """extend arguments for the Euclidean abelian base of this dim, with D e1 = e2 and omega(e1, e2) = 1."""
    d = [["0"] * dim for _ in range(dim)]
    omega = [["0"] * dim for _ in range(dim)]
    d[1][0], omega[0][1], omega[1][0] = "1", "1", "-1"
    data = tmp_path / f"data{dim}.json"
    data.write_text(json.dumps({"D": d, "phi": ["0"] * dim, "omega": omega}))
    return ["extend", _euclidean_abelian_file(tmp_path, dim), "--data", str(data)]


def test_cli_extend_writes_only_files_that_check_accepts(tmp_path, capsys):
    out = tmp_path / "extended.json"
    assert main([*_de5_coupling_args(tmp_path, MAX_DIM - 1), "--output", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR: ") and str(MAX_DIM - 2) in lines[0]
    assert not out.exists()
    assert main([*_de5_coupling_args(tmp_path, MAX_DIM - 2), "--output", str(out)]) == 0
    assert f"EXTENDED_DIM: {MAX_DIM}" in capsys.readouterr().out.splitlines()
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().out == "STATUS: OK\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_cli_check_refuses_an_endless_file_in_one_error_line(capsys):
    assert main(["check", "/dev/zero"]) == 2
    assert capsys.readouterr().out == f"ERROR: file is longer than {MAX_FILE_BYTES} bytes\n"


def test_loaders_read_a_file_at_the_byte_bound_and_refuse_one_past_it(tmp_path, monkeypatch, capsys):
    assert MAX_FILE_BYTES == 16 * 2**20  # the bound the README states
    algebra = Path(_euclidean_abelian_file(tmp_path, 3))
    data = tmp_path / "data.json"
    data.write_text(json.dumps(extension_data_to_dict(de5_data()[1])))
    for path, load in ((algebra, load_algebra), (data, load_extension_data)):
        monkeypatch.setattr(gonil_io, "MAX_FILE_BYTES", path.stat().st_size)
        load(path)
        over = tmp_path / f"over-{path.name}"
        over.write_bytes(path.read_bytes() + b" ")  # still valid JSON: only its length is refused
        with pytest.raises(FormatError, match=f"^file is longer than {path.stat().st_size} bytes$"):
            load(over)
    monkeypatch.setattr(gonil_io, "MAX_FILE_BYTES", algebra.stat().st_size)
    assert main(["check", str(algebra)]) == 0
    assert main(["check", str(tmp_path / "over-abelian3.json")]) == 2
    assert capsys.readouterr().out == f"STATUS: OK\nERROR: file is longer than {algebra.stat().st_size} bytes\n"
