import json
from pathlib import Path

import pytest

import lightsectors.package
from lightsectors.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def a2_file(tmp_path):
    code = main(["scenario", "a2", "--emit", str(tmp_path / "a2.scenario")])
    assert code == 0
    return tmp_path / "a2.scenario"


def test_scenario_emit_and_analyze(capsys, a2_file):
    code, out, err = run_cli(capsys, "analyze", str(a2_file))
    assert code == 0
    assert "extension: Interacting (collapsed 2 -> 1)" in out


def test_analyze_machine_deterministic(capsys, a2_file):
    code1, out1, _ = run_cli(capsys, "analyze", str(a2_file), "--format", "machine")
    code2, out2, _ = run_cli(capsys, "analyze", str(a2_file), "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["scenario"] == "a2"


def test_analyze_out_path(tmp_path, capsys, a2_file):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(a2_file), "--format", "machine",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["nodes"] == 2


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.scenario"))
    assert code == 2
    assert "error:" in err


def test_analyze_invalid_scenario(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("format_version: 1\nname: x\ndim: 2\ngram:\n0 1\n1 0\ncycles:\n1 0\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "skew" in err


def test_invariant_failure_is_internal_error(capsys, monkeypatch, a2_file):
    commutes_all = lightsectors.package.commutes_all
    monkeypatch.setattr(lightsectors.package, "commutes_all", lambda lam: not commutes_all(lam))
    code, out, err = run_cli(capsys, "analyze", str(a2_file))
    assert code == 3 and out == ""
    assert err == f"internal error: {a2_file}: transport and atom verdicts must coincide\n"


def test_batch_internal_error_names_file(capsys, monkeypatch, tmp_path):
    for name in ("a1xa1", "a2"):
        assert main(["scenario", name, "--emit", str(tmp_path / f"{name}.scenario")]) == 0
    commutes_all = lightsectors.package.commutes_all
    monkeypatch.setattr(lightsectors.package, "commutes_all", lambda lam: not commutes_all(lam))
    code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--batch")
    assert code == 3 and out == ""
    first = tmp_path / "a1xa1.scenario"
    assert err == f"internal error: {first}: transport and atom verdicts must coincide\n"


def test_verify_four_node_fixture(capsys):
    code, out, _ = run_cli(capsys, "verify", str(DATA / "four_node_blocks.scenario"))
    assert code == 0
    assert "verification: PASS" in out


def test_verify_three_node_not_applicable(capsys, tmp_path):
    path = tmp_path / "three.scenario"
    assert main(["scenario", "three_node", "--emit", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "not applicable" in out


def test_verify_no_partition(capsys, a2_file):
    code, out, _ = run_cli(capsys, "verify", str(a2_file))
    assert code == 1


def test_scenario_invalid_params(capsys):
    code, _, err = run_cli(capsys, "scenario", "a2", "--coupling", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "scenario", "quintic_orbits", "--orbits", "10,10")
    assert code == 2


@pytest.mark.parametrize("name", ["a2", "three_node"])
@pytest.mark.parametrize("coupling, message", [
    ("0", "{name} coupling must be nonzero"),
    ("1/0", "zero denominator in rational '1/0'"),
    ("1.5", "malformed rational '1.5'"),
])
def test_scenario_coupling_is_read_by_the_file_rule(capsys, name, coupling, message):
    code, out, err = run_cli(capsys, "scenario", name, "--coupling", coupling)
    assert (code, out, err) == (2, "", f"error: {message.format(name=name)}\n")


@pytest.mark.parametrize("name", ["a1xa1", "quintic_orbits"])
@pytest.mark.parametrize("coupling", ["2", "1/0", "1.5"])
def test_scenario_coupling_refused_first_by_a_model_without_one(capsys, name, coupling):
    code, out, err = run_cli(capsys, "scenario", name, "--coupling", coupling)
    assert (code, out, err) == (2, "", f"error: {name} does not take the coupling parameter\n")


@pytest.mark.parametrize("orbits, bad", [
    ("2_5,25,25,25,25", "2_5"),
    ("+25,25,25,25,25", "+25"),
    (" 25,25,25,25,25", " 25"),
    ("\u0662\u0665,25,25,25,25", "\u0662\u0665"),  # Arabic-Indic digits
    ("25,,25,25,50", ""),
])
def test_scenario_orbits_take_ascii_digits_only(capsys, orbits, bad):
    # The rule of dim and partition entries in scenario files.
    code, out, err = run_cli(capsys, "scenario", "quintic_orbits", "--orbits", orbits)
    assert code == 2 and out == ""
    assert repr(bad) in err


def test_scenario_unknown_name_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scenario", "nope"])
    assert info.value.code != 0


def test_unknown_verb_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code != 0


def test_batch_analyze(tmp_path, capsys):
    for name in ("a1xa1", "a2"):
        assert main(["scenario", name, "--emit", str(tmp_path / f"{name}.scenario")]) == 0
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--batch",
                           "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert [doc["scenario"] for doc in payload] == ["a1xa1", "a2"]


def test_batch_empty_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path), "--batch")
    assert code == 2


def test_quintic_scenario_emit(tmp_path, capsys):
    path = tmp_path / "q.scenario"
    assert main(["scenario", "quintic_orbits", "--emit", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "verification: PASS" in out


def test_input_errors_name_file_line_and_field(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("format_version: 1\nname: x\ndim: 2\ngram:\n0 1\n-1 0\ncycles:\n1 0\n"
                   "partition:\n1 x\n")
    for verb in ("analyze", "verify"):
        code, out, err = run_cli(capsys, verb, str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: line 10, field 'partition': "), err


def test_entries_past_int_text_limit_render_exactly(capsys, tmp_path):
    # Each input entry has 3000 digits, within the parser's limit; their
    # pairing (10**3000 - 1)**2 has 6000, past the interpreter's 4300-digit
    # limit on int-to-str conversion.
    nines = "9" * 3000
    path = tmp_path / "big.scenario"
    path.write_text("format_version: 1\nname: big\ndim: 2\ngram:\n0 1\n-1 0\n"
                    f"cycles:\n{nines} 0\n0 {nines}\n")
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0, err
    assert json.loads(out)["interaction_matrix"] == [["0", square], ["-" + square, "0"]]
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0 and square in out, err


def test_batch_names_failing_file_and_stops(tmp_path, capsys):
    assert main(["scenario", "a2", "--emit", str(tmp_path / "a.scenario")]) == 0
    missing_gram = tmp_path / "b.scenario"
    missing_gram.write_text("format_version: 1\nname: b\ndim: 2\ncycles:\n1 0\n")
    code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--batch", "--format", "machine")
    assert code == 2 and out == ""
    assert err == f"error: {missing_gram}: field 'gram': required field missing\n"


@pytest.mark.parametrize("verb", ["analyze", "verify"])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_lax_drops_an_unknown_grid_field(capsys, tmp_path, verb, fmt):
    """An unknown grid field between gram: and cycles: is dropped under
    --lax, with the report of the file without it; without --lax it is an
    input error naming its line."""
    text = (DATA / "four_node_blocks.scenario").read_text()
    path = tmp_path / "extra.scenario"
    path.write_text(text.replace("cycles:", "extra_grid:\n1 2 3\n4 5\ncycles:"))
    code, expected, _ = run_cli(capsys, verb, str(DATA / "four_node_blocks.scenario"),
                                "--format", fmt)
    assert code == 0
    code, out, err = run_cli(capsys, verb, str(path), "--format", fmt, "--lax")
    assert (code, out, err) == (0, expected, "")
    code, out, err = run_cli(capsys, verb, str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 8, field 'extra_grid': unknown field\n"


def _report_option_lines(capsys, verb):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    return [line for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith(("--format", "--out", "--lax"))]


def test_analyze_and_verify_share_the_report_options(capsys):
    analyze = _report_option_lines(capsys, "analyze")
    assert len(analyze) == 3
    assert _report_option_lines(capsys, "verify") == analyze
