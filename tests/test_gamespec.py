"""Game definitions: the built-in dilemma, the file format, validation."""

import math

import pytest
from numpy.testing import assert_allclose

import oracles
from qgames import (
    DomainError,
    GameCompletenessError,
    GameFormatError,
    GameSpec,
    PayoffTable,
    parse_game_spec,
    prisoners_dilemma_3,
    render_game_spec,
    validate,
)

PD3_TEXT = """\
# three players, no entanglement
players = 3
gamma = 0

payoff 000 = 3 3 3
payoff 001 = 2 2 5
payoff 010 = 2 5 2
payoff 011 = 0 4 4
payoff 100 = 5 2 2
payoff 101 = 4 0 4
payoff 110 = 4 4 0
payoff 111 = 1 1 1
"""


class TestPrisonersDilemma3:
    def test_mutual_defection_pays_one_each(self):
        game = prisoners_dilemma_3(math.pi / 2)
        assert game.table.payoffs_for("111") == (1.0, 1.0, 1.0)

    def test_mutual_cooperation_pays_three_each(self):
        game = prisoners_dilemma_3(0.0)
        assert game.table.payoffs_for("000") == (3.0, 3.0, 3.0)

    def test_lone_defector_takes_five(self):
        game = prisoners_dilemma_3(math.pi / 4)
        assert game.table.payoffs_for("100") == (5.0, 2.0, 2.0)

    def test_full_table(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(game.table.as_array, oracles.PD3_ROWS, atol=0)

    def test_gamma_is_stored(self):
        assert prisoners_dilemma_3(0.3).gamma == 0.3

    @pytest.mark.parametrize("gamma", [-0.1, 2.0, math.nan])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(DomainError):
            prisoners_dilemma_3(gamma)

    def test_alice_column_follows_defector_count_pattern(self):
        """Alice's payoffs, scanned from lone-defector down to lone-cooperator."""
        game = prisoners_dilemma_3(0.0)
        order = ["100", "110", "101", "000", "001", "010", "111", "011"]
        column = [game.table.payoffs_for(bits)[0] for bits in order]
        assert column == [5.0, 4.0, 4.0, 3.0, 2.0, 2.0, 1.0, 0.0]


class TestParseGameSpec:
    def test_literal_text_equals_builtin(self):
        assert parse_game_spec(PD3_TEXT) == prisoners_dilemma_3(0.0)

    def test_gamma_tokens(self):
        text = PD3_TEXT.replace("gamma = 0", "gamma = pi/2")
        assert parse_game_spec(text).gamma == math.pi / 2
        text = PD3_TEXT.replace("gamma = 0", "gamma = pi/4")
        assert parse_game_spec(text).gamma == math.pi / 4

    def test_gamma_may_follow_the_payoff_lines(self):
        reordered = PD3_TEXT.replace("gamma = 0\n", "") + "gamma = 0\n"
        assert parse_game_spec(reordered) == prisoners_dilemma_3(0.0)

    def test_comments_and_blanks_ignored(self):
        noisy = PD3_TEXT.replace("payoff 111 = 1 1 1", "payoff 111 = 1 1 1  # all talk")
        assert parse_game_spec(noisy) == prisoners_dilemma_3(0.0)

    def test_missing_outcome_names_the_bitstring(self):
        text = PD3_TEXT.replace("payoff 111 = 1 1 1\n", "")
        with pytest.raises(GameCompletenessError, match="111"):
            parse_game_spec(text)

    def test_duplicate_outcome_rejected(self):
        text = PD3_TEXT + "payoff 111 = 9 9 9\n"
        with pytest.raises(GameCompletenessError, match="111"):
            parse_game_spec(text)

    @pytest.mark.parametrize("line", ["gamma = pi/2", "players = 3"])
    def test_duplicate_players_or_gamma_rejected(self, line):
        key = line.split()[0]
        with pytest.raises(GameFormatError, match=f"line 13: duplicate '{key}' line"):
            parse_game_spec(PD3_TEXT + line + "\n")

    def test_wrong_bitstring_length_reports_line_number(self):
        text = PD3_TEXT.replace("payoff 111 = 1 1 1", "payoff 0000 = 1 2 3")
        with pytest.raises(GameFormatError, match=r"line 12"):
            parse_game_spec(text)

    def test_payoff_before_players_rejected(self):
        text = "payoff 000 = 1 1 1\nplayers = 3\ngamma = 0\n"
        with pytest.raises(GameFormatError, match="players"):
            parse_game_spec(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(GameFormatError, match="unknown key"):
            parse_game_spec(PD3_TEXT + "flavor = spicy\n")

    def test_gamma_out_of_range_is_domain_error(self):
        text = PD3_TEXT.replace("gamma = 0", "gamma = 2.0")
        with pytest.raises(DomainError):
            parse_game_spec(text)

    def test_wrong_payoff_count(self):
        text = PD3_TEXT.replace("payoff 111 = 1 1 1", "payoff 111 = 1 1")
        with pytest.raises(GameFormatError, match="expected 3 payoffs"):
            parse_game_spec(text)

    def test_missing_players_line(self):
        with pytest.raises(GameFormatError, match="players"):
            parse_game_spec("gamma = 0\n")

    def test_missing_gamma_line(self):
        text = PD3_TEXT.replace("gamma = 0\n", "")
        with pytest.raises(GameFormatError, match="gamma"):
            parse_game_spec(text)

    def test_line_without_equals_sign(self):
        with pytest.raises(GameFormatError, match="line 1"):
            parse_game_spec("players 3\n")


class TestRenderRoundTrip:
    @pytest.mark.parametrize("gamma", [0.0, math.pi / 4, math.pi / 2, 0.12345678901234])
    def test_builtin_round_trips_exactly(self, gamma):
        spec = prisoners_dilemma_3(gamma)
        again = parse_game_spec(render_game_spec(spec))
        assert again == spec

    def test_two_player_asymmetric_round_trip(self):
        table = PayoffTable(
            2, {"00": (1.5, -2.25), "01": (0.0, 7.125), "10": (3.0, 0.5), "11": (-1.0, 1.0)}
        )
        spec = GameSpec(2, 1.0, table)
        again = parse_game_spec(render_game_spec(spec))
        assert again.n_players == spec.n_players
        assert again.gamma == pytest.approx(spec.gamma, abs=1e-12)
        for bits, row in spec.table.entries.items():
            assert again.table.entries[bits] == pytest.approx(row, abs=1e-12)


class TestValidate:
    def test_builtin_is_clean(self):
        assert validate(prisoners_dilemma_3(math.pi / 2)) == []

    def test_missing_outcome_is_one_violation(self):
        entries = dict(prisoners_dilemma_3(0.0).table.entries)
        del entries["101"]
        spec = GameSpec(3, 0.0, PayoffTable(3, entries))
        problems = validate(spec)
        assert len(problems) == 1
        assert "101" in problems[0]

    def test_gamma_out_of_range_is_one_violation(self):
        spec = GameSpec(3, 2.0, prisoners_dilemma_3(0.0).table)
        problems = validate(spec)
        assert len(problems) == 1
        assert "gamma" in problems[0]

    def test_table_player_mismatch(self):
        spec = GameSpec(2, 0.0, prisoners_dilemma_3(0.0).table)
        assert any("players" in p for p in validate(spec))

    def test_short_payoff_row(self):
        entries = dict(prisoners_dilemma_3(0.0).table.entries)
        entries["000"] = (3.0, 3.0)
        problems = validate(GameSpec(3, 0.0, PayoffTable(3, entries)))
        assert any("000" in p for p in problems)

    def test_malformed_key(self):
        entries = dict(prisoners_dilemma_3(0.0).table.entries)
        entries["00x"] = (0.0, 0.0, 0.0)
        problems = validate(GameSpec(3, 0.0, PayoffTable(3, entries)))
        assert any("00x" in p for p in problems)

    def test_non_finite_payoff(self):
        entries = dict(prisoners_dilemma_3(0.0).table.entries)
        entries["000"] = (math.inf, 3.0, 3.0)
        problems = validate(GameSpec(3, 0.0, PayoffTable(3, entries)))
        assert any("finite" in p for p in problems)
