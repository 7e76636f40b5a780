"""Command-line interface: CSV output, exit codes, game-file handling."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgames.cli import main

GOOD_GAME = """\
players = 3
gamma = pi/4
payoff 000 = 3 3 3
payoff 001 = 2 2 5
payoff 010 = 2 5 2
payoff 011 = 0 4 4
payoff 100 = 5 2 2
payoff 101 = 4 0 4
payoff 110 = 4 4 0
payoff 111 = 1 1 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestPayoff:
    def test_all_qy_at_max_entanglement(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "pi/2",
            "--strategies", "QY", "QY", "QY",
        )
        assert code == 0
        assert out == ["payoff_0,payoff_1,payoff_2", "3,3,3"]

    def test_explicit_unitary_tokens(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "pi/2",
            "--strategies", "U(pi,0)", "U(pi,0)", "U(pi,0)",
        )
        assert code == 0
        assert out[1] == "3,3,3"

    def test_builtin_name_is_case_insensitive(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "PD3", "--gamma", "0",
            "--strategies", "D", "D", "D",
        )
        assert code == 0
        assert out[1] == "1,1,1"

    def test_missing_gamma_for_builtin_is_usage_error(self, capsys):
        code, _, err = run(capsys, "payoff", "--game", "pd3", "--strategies", "C", "C", "C")
        assert code == 2
        assert "gamma" in err

    def test_wrong_strategy_count_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "0", "--strategies", "C", "C"
        )
        assert code == 2
        assert "3" in err

    def test_malformed_strategy_token_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "0",
            "--strategies", "C", "C", "WOBBLE",
        )
        assert code == 2
        assert "WOBBLE" in err

    def test_gamma_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "2.0",
            "--strategies", "C", "C", "C",
        )
        assert code == 1
        assert "gamma" in err

    def test_out_of_domain_unitary_token_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "pd3", "--gamma", "0",
            "--strategies", "U(5,0)", "C", "C",
        )
        assert code == 1
        assert "theta" in err


class TestSweep:
    def test_three_nodes_reproduce_the_enhancement_curve(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--game", "pd3", "--strategies", "QY", "QY", "QY",
            "--points", "3",
        )
        assert code == 0
        assert out[0] == "gamma,payoff_0,payoff_1,payoff_2"
        assert out[1] == "0,1,1,1"
        assert out[2] == "0.785398163397,2,2,2"
        assert out[3] == "1.57079632679,3,3,3"

    def test_identical_runs_are_bit_identical(self, capsys):
        args = ("sweep", "--game", "pd3", "--strategies", "QY", "D", "C", "--points", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_point_count_must_be_at_least_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--game", "pd3", "--strategies", "C", "C", "C", "--points", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestNashCheck:
    def test_all_defect_fails_with_gap_two(self, capsys):
        code, out, err = run(
            capsys, "nash-check", "--game", "pd3", "--gamma", "pi/2",
            "--strategies", "D", "D", "D",
        )
        assert code == 0
        assert "nash=false" in err
        assert out[0] == "player,gap,best_theta,best_phi"
        for player in range(3):
            fields = out[1 + player].split(",")
            assert fields[0] == str(player)
            assert fields[1] == "2"
        assert out[-1] == "# nash=false"

    def test_all_qy_passes(self, capsys):
        code, out, err = run(
            capsys, "nash-check", "--game", "pd3", "--gamma", "pi/2",
            "--strategies", "QY", "QY", "QY",
        )
        assert code == 0
        assert "nash=true" in err
        assert out[-1] == "# nash=true"

    def test_epsilon_flag_changes_the_verdict(self, capsys):
        code, out, err = run(
            capsys, "nash-check", "--game", "pd3", "--gamma", "pi/2",
            "--strategies", "D", "D", "D", "--epsilon", "2.5",
        )
        assert code == 0
        assert "nash=true" in err


class TestEnumerate:
    def test_separable_game_lists_eight(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--game", "pd3", "--gamma", "0", "--set", "C,D,QY"
        )
        assert code == 0
        assert out[0] == "strategy_0,strategy_1,strategy_2,payoff_0,payoff_1,payoff_2"
        assert len(out) == 9
        assert all(line.endswith("1,1,1") for line in out[1:])

    def test_entangled_game_collapses_to_all_qy(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--game", "pd3", "--gamma", "pi/2", "--set", "C,D,QY"
        )
        assert code == 0
        assert out[1:] == ["QY,QY,QY,3,3,3"]

    def test_empty_set_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--game", "pd3", "--gamma", "0", "--set", ","
        )
        assert code == 2


class TestClassicalTable:
    def test_dumps_every_outcome(self, capsys):
        code, out, _ = run(capsys, "classical-table", "--game", "pd3")
        assert code == 0
        assert out[0] == "outcome,payoff_0,payoff_1,payoff_2"
        assert len(out) == 9
        assert "000,3,3,3" in out
        assert "100,5,2,2" in out
        assert "011,0,4,4" in out


class TestGameFiles:
    def test_file_gamma_is_used(self, capsys, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text(GOOD_GAME)
        code, out, _ = run(
            capsys, "payoff", "--game", str(path), "--strategies", "QY", "QY", "QY"
        )
        assert code == 0
        assert out[1] == "2,2,2"  # the file pins gamma = pi/4

    def test_gamma_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text(GOOD_GAME)
        code, out, _ = run(
            capsys, "payoff", "--game", str(path), "--gamma", "pi/2",
            "--strategies", "QY", "QY", "QY",
        )
        assert code == 0
        assert out[1] == "3,3,3"

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "payoff", "--game", str(tmp_path / "nope.txt"),
            "--strategies", "C", "C", "C",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["payoff", "--strategies", "C", "D", "QY"]],
        ids=["validate", "payoff"],
    )
    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(("# r\u00e9sum\u00e9\n" + GOOD_GAME).encode("latin-1"))
        code, out, err = run(capsys, command[0], "--game", str(path), *command[1:])
        assert code == 1
        assert out == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "UTF-8" in err

    def test_incomplete_file_refused_before_running(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(GOOD_GAME.replace("payoff 111 = 1 1 1\n", ""))
        code, _, err = run(
            capsys, "payoff", "--game", str(path), "--strategies", "C", "C", "C"
        )
        assert code == 1
        assert "111" in err


class TestValidate:
    def test_builtin_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate", "--game", "pd3")
        assert code == 0
        assert out == ["violation"]

    def test_good_file_is_valid(self, capsys, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text(GOOD_GAME)
        code, out, _ = run(capsys, "validate", "--game", str(path))
        assert code == 0
        assert out == ["violation"]

    def test_syntactically_broken_file_is_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("players = 3\ngamma = 0\npayoff 0000 = 1 2 3\n")
        code, _, err = run(capsys, "validate", "--game", str(path))
        assert code == 1
        assert "line 3" in err


class TestUsage:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["payoff", "--game", "pd3", "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


# Game-file lines to recombine: the good file's own lines plus broken ones.
_LINES = GOOD_GAME.splitlines() + [
    "players = 2", "players = x", "gamma = 0", "gamma = nan", "gamma = 9",
    "payoff 11 = 1 2", "payoff 000 = 1 inf 2", "payoff 000", "= 1", "# r\u00e9sum\u00e9", "",
]
_LATIN1_GAME = ("# r\u00e9sum\u00e9\n" + GOOD_GAME).encode("latin-1")

game_bytes = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda lines, encoding: "\n".join(lines).encode(encoding),
        st.lists(st.sampled_from(_LINES), max_size=14),
        st.sampled_from(["utf-8", "latin-1"]),
    ),
)
tokens = st.lists(
    st.one_of(
        st.sampled_from(["C", "D", "QY", "U(pi,0)", "U(5,0)", "U(nan,1)", "u(1, .5)", "-x"]),
        st.text(max_size=12),
    ),
    max_size=4,
)


def invoke(argv):
    """Run main(argv) with captured streams; argparse usage errors arrive as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, from_argparse = main(argv), False
        except SystemExit as exc:
            code, from_argparse = exc.code, True
    return code, from_argparse, out.getvalue(), err.getvalue()


class TestContract:
    """Any bytes as a game file and any strategy tokens: exit 0, 1 or 2, and a
    failure is one error line on stderr, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        content=game_bytes,
        command=st.sampled_from(["validate", "payoff"]),
        toks=tokens,
        gamma=st.one_of(st.none(), st.sampled_from(["pi/2", "0", "2", "nan", "x"])),
    )
    @example(content=_LATIN1_GAME, command="validate", toks=[], gamma=None)
    @example(content=_LATIN1_GAME, command="payoff", toks=["C", "D", "QY"], gamma=None)
    def test_any_input_keeps_the_exit_contract(self, content, command, toks, gamma):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "game.txt")
            with open(path, "wb") as handle:
                handle.write(content)
            argv = [command, "--game", path]
            if gamma is not None:
                argv += ["--gamma", gamma]
            if command == "payoff":
                argv += ["--strategies", *toks]
            code, from_argparse, out, err = invoke(argv)

        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if from_argparse:
            assert code == 2
            assert sum("error:" in line for line in err.splitlines()) == 1
        elif code:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert err == "" and out
