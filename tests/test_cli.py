"""End-to-end command-line tests: parsing diagnostics, exit codes, output
formats, and determinism of the JSON emitters."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import loopcorr
from loopcorr.cli import build_parser, main, parse_current_word, parse_word, render_word
from loopcorr.errors import ParseError, RealizationMismatch


def test_word_round_trip():
    for names in (("J+", "J-"), ("J3",), ("E", "F", "H"), ("J+", "J3", "J-")):
        assert parse_current_word(render_word(names)).names == names


def test_parse_accepts_extra_spaces():
    assert parse_word("Jp(1)   Jm(2)") == ("J+", "J-")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_word("Jp(1")
    assert err.value.offset == 5

    with pytest.raises(ParseError) as err:
        parse_word("Xx(1)")
    assert err.value.offset == 1
    assert "J3" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_word("Jp(2)")
    assert err.value.offset == 4

    with pytest.raises(ParseError):
        parse_word("")


def test_mixed_realizations_rejected():
    with pytest.raises(RealizationMismatch):
        parse_current_word("Jp(1) E(2)")


def test_eval_json_and_determinism(capsys):
    argv = ["eval", "Jp(1) Jm(2)", "--policy", "drop-loops", "--on-circle"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["word"] == "Jp(1) Jm(2)"
    assert data["terms"]
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_empty_word_is_usage_error(capsys):
    assert main(["eval", ""]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["offset"] == 1


def test_eval_bad_word_diagnostic(capsys):
    assert main(["eval", "Jp(1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["offset"] == 5
    assert err["expected"] == [")"]


def test_commcheck_passes(capsys):
    assert main(["commcheck", "--realization", "A", "--context", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_ok"] is True
    assert len(data["cases"]) == 9


def test_diagrams_emit_dot(capsys):
    assert main(["diagrams", "J3(1) J3(2)"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph contraction") == 3

    assert main(["diagrams", "J3(1) J3(2)", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3
    assert data["looped"] == 0


def test_diagrams_json_counts_looped_emitted_diagrams(capsys):
    # "looped" counts the emitted diagrams that carry a loop, in the same
    # units as "count" (not the stub structures of a loop census)
    assert main(["diagrams", "Jp(1) Jm(2) Jp(3) Jm(4)", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 778
    assert data["looped"] == 199


def test_diagrams_realization_guard(capsys):
    assert main(["diagrams", "E(1) F(2)", "--realization", "K"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RealizationMismatch"


def test_oracle_scalar(capsys):
    assert main(["oracle", "ap(1) am(2)", "--trunc", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["real"] > 0
    assert abs(data["imag"]) < 1e-12


def test_oracle_current_word_off_circle(capsys):
    assert main(["oracle", "Jp(1) Jm(2)", "--trunc", "8", "--radius", "1/2",
                 "--kappa", "0.7", "--p", "0.3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["real"] != 0


def test_gram_single_word(capsys):
    assert main(["gram", "J3(1)", "--trunc", "12"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["words"] == ["J3(1)"]
    assert len(data["matrix"]) == 1
    assert data["hermiticity_residual"] <= 1e-10


@pytest.mark.parametrize("argv", [
    ["gram", "J3(1)", "--degree", "-1"],
    ["gram", "J3(1)", "--trunc", "-3"],
    ["oracle", "ap(1) am(2)", "--trunc", "-3"],
    ["oracle", "ap(1) am(2)", "--radius", "5"],
    ["oracle", "ap(1) am(2)", "--radius", "-1"],
    ["commcheck", "--context", "-1"],
    ["selfcheck", "--context", "-1"],
    ["selfcheck", "--context", "0", "--max-len", "-2"],
])
def test_sizes_that_cannot_be_honoured_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert argv[-2].lstrip("-") in err["message"]


def test_selfcheck_small(capsys):
    assert main(["selfcheck", "--context", "0", "--max-len", "1",
                 "--realization", "K", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "relations[drop-loops]: ok" in out
    assert "classical: ok" in out


def test_mu_file_scheme(tmp_path, capsys):
    scales = tmp_path / "mu.json"
    scales.write_text(json.dumps({"2": "1", "3": "1/2", "default": "0"}))
    assert main(["eval", "Jp(1) Jm(2)", "--policy", "mu", "--mu", str(scales)]) == 0
    with_mu = json.loads(capsys.readouterr().out)
    assert main(["eval", "Jp(1) Jm(2)", "--policy", "drop-loops"]) == 0
    without = json.loads(capsys.readouterr().out)
    assert with_mu != without


def test_xi_file_config(tmp_path, capsys):
    seq = tmp_path / "xi.json"
    seq.write_text(json.dumps({"kind": "geometric", "q": "1/3"}))
    assert main(["oracle", "ap(1) am(2)", "--xi", str(seq), "--trunc", "8"]) == 0
    alt = json.loads(capsys.readouterr().out)
    assert main(["oracle", "ap(1) am(2)", "--trunc", "8"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert alt["real"] != base["real"]


@pytest.mark.parametrize("argv, content", [
    (["oracle", "ap(1) am(2)", "--xi"], {"kind": "geometric"}),
    (["oracle", "ap(1) am(2)", "--xi"], {"kind": "geometric", "q": [1]}),
    (["oracle", "ap(1) am(2)", "--xi"], ["geometric"]),
    (["eval", "Jp(1) Jm(2)", "--policy", "mu", "--mu"], [1, 2]),
])
def test_malformed_config_files_are_usage_errors(argv, content, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    assert main(argv + [str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_dotted_policy_needs_unitary_sector(tmp_path, capsys):
    assert main(["eval", "Jp(1) Jm(2)", "--policy", "unitary-dotted"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"

    scales = tmp_path / "mu.json"
    scales.write_text(json.dumps({"default": "0"}))
    assert main(["eval", "Jp(1) Jm(2)", "--policy", "unitary-dotted",
                 "--sector", "unitary", "--mu", str(scales)]) == 0
    assert json.loads(capsys.readouterr().out)["terms"]


@pytest.mark.parametrize("argv", [
    ["eval", "Jp(1) Jm(2)"],
    ["commcheck", "--context", "0"],
    ["gram", "J3(1)", "--trunc", "4"],
])
def test_mu_file_rejected_under_drop_loops(argv, tmp_path, capsys):
    scales = tmp_path / "mu.json"
    scales.write_text(json.dumps({"2": "1"}))
    assert main(argv + ["--policy", "drop-loops", "--mu", str(scales)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "--mu" in err["message"]


def test_missing_loop_scales_reported(capsys):
    assert main(["eval", "Jp(1) Jm(2)", "--policy", "mu"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MissingMu"


@pytest.mark.parametrize("argv", [
    ["eval", "Jp(1) Jm(2)", "--kappa", "5"],
    ["eval", "Jp(1) Jm(2)", "--format", "dot"],
    ["selfcheck", "--trunc", "3"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A namespace that remembers which attributes were read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


_SMALL_INPUTS = {
    "eval": ["Jp(1) Jm(2)"],
    "commcheck": ["--context", "0"],
    "diagrams": ["J3(1) J3(2)"],
    "gram": ["J3(1)", "--trunc", "4"],
    "oracle": ["ap(1) am(2)", "--trunc", "4"],
    "selfcheck": ["--context", "0", "--max-len", "1"],
}


def test_every_accepted_flag_is_read():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(_SMALL_INPUTS)
    for name, sub in subparsers.items():
        args = parser.parse_args([name] + _SMALL_INPUTS[name], namespace=_ReadRecorder())
        args.__dict__.pop("_read", None)  # argparse itself reads every dest
        assert args.func(args) == 0, name
        accepted = {a.dest for a in sub._actions if a.dest != "help"}
        unread = accepted - args.__dict__.get("_read", set())
        assert not unread, f"{name} ignores {sorted(unread)}"


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopcorr.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "loopcorr.cli",
                           "eval", "Jp(1) Jm(2)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["word"] == "Jp(1) Jm(2)"
    assert proc.stderr == ""
