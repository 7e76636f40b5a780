"""Exact best replies, Nash verification/enumeration, Pareto, gamma sweeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from qgames import (
    COOPERATE,
    DEFECT,
    QY,
    DomainError,
    GameSpec,
    PayoffTable,
    StrategyParams,
    best_response,
    enumerate_equilibria,
    epsilon_nash_check,
    expected_payoffs,
    pareto_check,
    payoff_sweep,
    payoffs_batch,
    prisoners_dilemma_3,
)

HALF_PI = math.pi / 2


def angle_pairs(profile):
    return [(p.theta, p.phi) for p in profile]


def seeded_games():
    """20 seeded (game, table rows, profile, player) cases: pd3 at random
    gammas and asymmetric integer tables for N = 2..5."""
    rng = np.random.default_rng(20261017)
    cases = []
    for index in range(20):
        n = 3 if index % 5 == 0 else 2 + index % 4
        gamma = float(rng.uniform(0.0, HALF_PI))
        if index % 5 == 0:
            game, rows = prisoners_dilemma_3(gamma), oracles.PD3_ROWS
        else:
            rows = rng.integers(-5, 6, size=(2**n, n)).astype(float)
            entries = {format(k, f"0{n}b"): tuple(row) for k, row in enumerate(rows)}
            game = GameSpec(n, gamma, PayoffTable(n, entries))
        profile = tuple(
            StrategyParams(rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI))
            for _ in range(n)
        )
        cases.append((game, rows, profile, int(rng.integers(n))))
    return cases


def seeded_enumerations():
    """20 seeded (game, table rows, candidate set) cases: pd3 and asymmetric
    integer tables for N = 2..6, sets of 2..4 members mixing C, D, QY with
    random strategies, at most 729 profiles each."""
    rng = np.random.default_rng(20261018)
    named = (COOPERATE, DEFECT, QY)
    cases = []
    for index in range(20):
        n = 3 if index % 4 == 0 else 2 + index % 5
        gamma = (0.0, HALF_PI, float(rng.uniform(0.0, HALF_PI)))[index % 3]
        if index % 4 == 0:
            game, rows = prisoners_dilemma_3(gamma), oracles.PD3_ROWS
        else:
            rows = rng.integers(-5, 6, size=(2**n, n)).astype(float)
            entries = {format(k, f"0{n}b"): tuple(row) for k, row in enumerate(rows)}
            game = GameSpec(n, gamma, PayoffTable(n, entries))
        size = 2 + index % 3
        while size**n > 729:
            size -= 1
        candidates = [
            named[rng.integers(3)]
            if rng.random() < 0.5
            else StrategyParams(rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI))
            for _ in range(size)
        ]
        cases.append((game, rows, candidates))
    return cases


def seeded_pd3_profiles():
    """12 seeded (gamma, profile) pairs of random strategies on pd3."""
    rng = np.random.default_rng(20261019)
    return [
        (
            float(rng.uniform(0.0, HALF_PI)),
            tuple(
                StrategyParams(rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI))
                for _ in range(3)
            ),
        )
        for _ in range(12)
    ]


def random_game(n, gamma, seed):
    """An asymmetric integer payoff table on n players."""
    rows = np.random.default_rng(seed).integers(-5, 6, size=(2**n, n)).astype(float)
    entries = {format(k, f"0{n}b"): tuple(row) for k, row in enumerate(rows)}
    return GameSpec(n, gamma, PayoffTable(n, entries))


def constant_game(n):
    """Every outcome pays every player 1, so no profile improves on another."""
    entries = {format(k, f"0{n}b"): (1.0,) * n for k in range(2**n)}
    return GameSpec(n, 0.7, PayoffTable(n, entries))


class TestBestResponse:
    def test_against_two_defectors_quantum_reply_wins(self):
        """The bit flip earns 1 against itself; the quantum reply earns 3."""
        game = prisoners_dilemma_3(HALF_PI)
        result = best_response(game, (DEFECT,) * 3, 0)
        assert result.best_params.theta == pytest.approx(math.pi, abs=1e-12)
        assert result.best_params.phi == pytest.approx(0.0, abs=1e-12)
        assert result.best_payoff == pytest.approx(3.0, abs=1e-12)
        assert result.gap == pytest.approx(2.0, abs=1e-12)

    def test_all_qy_cannot_be_beaten(self):
        game = prisoners_dilemma_3(HALF_PI)
        result = best_response(game, (QY,) * 3, 0)
        assert result.best_payoff == pytest.approx(3.0, abs=1e-6)
        assert result.gap <= 1e-9

    def test_cooperation_is_best_against_defect_qy(self):
        game = prisoners_dilemma_3(HALF_PI)
        result = best_response(game, (COOPERATE, DEFECT, QY), 0)
        assert result.best_payoff == pytest.approx(5.0, abs=1e-12)
        assert result.best_params.theta == 0.0
        assert result.gap <= 1e-9

    def test_player_index_out_of_range(self):
        with pytest.raises(IndexError):
            best_response(prisoners_dilemma_3(0.0), (DEFECT,) * 3, 3)

    def test_gap_never_negative(self, rng, random_params):
        game = prisoners_dilemma_3(0.9)
        for _ in range(5):
            profile = tuple(random_params() for _ in range(3))
            for player in range(3):
                assert best_response(game, profile, player).gap >= 0.0

    def test_search_reaches_the_analytic_suprema(self):
        """The exact reply lands on each hand-derived optimum."""
        cases = [
            (HALF_PI, (DEFECT, DEFECT, DEFECT), 3.0),
            (HALF_PI, (COOPERATE, DEFECT, QY), 5.0),
            (0.9, (QY, QY, QY), 1.0 + 2.0 * math.sin(0.9) ** 2),
        ]
        for gamma, profile, supremum in cases:
            result = best_response(prisoners_dilemma_3(gamma), profile, 0)
            assert result.best_payoff == pytest.approx(supremum, abs=1e-12)

    def test_deterministic_across_runs(self):
        game = prisoners_dilemma_3(0.8)
        profile = (StrategyParams(1.0, 0.3), DEFECT, QY)
        first = best_response(game, profile, 1)
        second = best_response(game, profile, 1)
        assert first == second
        assert first.best_params.theta.hex() == second.best_params.theta.hex()
        assert first.best_params.phi.hex() == second.best_params.phi.hex()

    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_grid_oracle(self, case):
        """Never below the independent grid-plus-refinement reply, and the
        reported payoff is the dense pipeline's value at best_params."""
        game, rows, profile, player = seeded_games()[case]
        result = best_response(game, profile, player)
        _, grid_best = oracles.grid_best_reply(rows, game.gamma, angle_pairs(profile), player)
        assert result.best_payoff >= grid_best - 1e-12
        trial = list(profile)
        trial[player] = result.best_params
        dense = oracles.dense_payoffs(rows, game.gamma, angle_pairs(trial))[player]
        assert result.best_payoff == pytest.approx(dense, abs=1e-9)


class TestEpsilonNashCheck:
    def test_all_qy_is_nash_at_max_entanglement(self):
        report = epsilon_nash_check(prisoners_dilemma_3(HALF_PI), (QY,) * 3, 1e-6)
        assert report.is_nash
        assert all(r.gap <= 1e-6 for r in report.per_player)

    def test_all_defect_fails_at_max_entanglement(self):
        report = epsilon_nash_check(prisoners_dilemma_3(HALF_PI), (DEFECT,) * 3, 1e-6)
        assert not report.is_nash
        assert max(r.gap for r in report.per_player) == pytest.approx(2.0, abs=1e-6)

    def test_all_defect_is_nash_without_entanglement(self):
        report = epsilon_nash_check(prisoners_dilemma_3(0.0), (DEFECT,) * 3, 1e-6)
        assert report.is_nash

    def test_verdict_follows_epsilon(self):
        game = prisoners_dilemma_3(HALF_PI)
        generous = epsilon_nash_check(game, (DEFECT,) * 3, 2.5)
        assert generous.is_nash  # the max gap of 2 is within 2.5
        assert generous.is_nash == (max(r.gap for r in generous.per_player) <= 2.5)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            epsilon_nash_check(prisoners_dilemma_3(0.0), (DEFECT,) * 3, -1.0)

    def test_stays_nash_for_every_entanglement(self):
        """All-QY survives across the whole entanglement range."""
        for gamma in np.linspace(0.0, HALF_PI, 11):
            report = epsilon_nash_check(prisoners_dilemma_3(float(gamma)), (QY,) * 3, 1e-6)
            assert report.is_nash, f"not Nash at gamma={gamma}"
            assert max(r.gap for r in report.per_player) <= 1e-12


class TestEnumerateEquilibria:
    def test_singleton_set_is_trivially_stable(self):
        game = prisoners_dilemma_3(0.3)
        assert enumerate_equilibria(game, [QY], 0.0) == [(QY, QY, QY)]

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            enumerate_equilibria(prisoners_dilemma_3(0.0), [], 1e-9)

    def test_separable_game_has_eight_defection_equivalents(self):
        """Without entanglement every {D, QY} profile is stable; anything
        with a cooperator is not."""
        game = prisoners_dilemma_3(0.0)
        found = enumerate_equilibria(game, [COOPERATE, DEFECT, QY], 1e-9)
        expected = [
            profile for profile in itertools.product((DEFECT, QY), repeat=3)
        ]
        assert found == expected
        for profile in found:
            assert_allclose(expected_payoffs(game, profile), [1, 1, 1], atol=1e-9)

    def test_separable_game_matches_dense_oracle(self):
        angles = [(0.0, 0.0), (math.pi, HALF_PI), (math.pi, 0.0)]
        oracle = oracles.set_relative_equilibria(oracles.PD3_ROWS, 0.0, angles, 1e-9)
        assert oracle == [
            c for c in itertools.product(range(3), repeat=3) if 0 not in c
        ]

    def test_max_entanglement_three_candidates_leaves_only_qy(self):
        game = prisoners_dilemma_3(HALF_PI)
        found = enumerate_equilibria(game, [COOPERATE, DEFECT, QY], 1e-9)
        assert found == [(QY, QY, QY)]
        angles = [(0.0, 0.0), (math.pi, HALF_PI), (math.pi, 0.0)]
        oracle = oracles.set_relative_equilibria(oracles.PD3_ROWS, HALF_PI, angles, 1e-9)
        assert oracle == [(2, 2, 2)]

    def test_max_entanglement_two_candidates_keeps_even_flip_counts(self):
        """Restricted to {D, QY} the three two-defector profiles also stand:
        they pay (3,3,3) and every in-set deviation drops the deviator to 1.
        Escaping them needs a strategy outside the set (cooperation earns 5)."""
        game = prisoners_dilemma_3(HALF_PI)
        found = enumerate_equilibria(game, [DEFECT, QY], 1e-9)
        assert found == [
            (DEFECT, DEFECT, QY),
            (DEFECT, QY, DEFECT),
            (QY, DEFECT, DEFECT),
            (QY, QY, QY),
        ]
        angles = [(math.pi, HALF_PI), (math.pi, 0.0)]
        oracle = oracles.set_relative_equilibria(oracles.PD3_ROWS, HALF_PI, angles, 1e-9)
        assert oracle == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]

    def test_two_candidate_collapse_from_eight_to_four(self):
        game0 = prisoners_dilemma_3(0.0)
        game1 = prisoners_dilemma_3(HALF_PI)
        assert len(enumerate_equilibria(game0, [DEFECT, QY], 1e-9)) == 8
        assert len(enumerate_equilibria(game1, [DEFECT, QY], 1e-9)) == 4

    def test_deterministic_product_order(self):
        game = prisoners_dilemma_3(0.0)
        first = enumerate_equilibria(game, [DEFECT, QY], 1e-9)
        second = enumerate_equilibria(game, [DEFECT, QY], 1e-9)
        assert first == second


    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_oracle_on_seeded_games(self, case):
        """The payoff-tensor enumeration agrees with the dict-and-loop
        enumeration on the dense pipeline."""
        game, rows, candidates = seeded_enumerations()[case]
        found = enumerate_equilibria(game, candidates)
        angles = angle_pairs(candidates)
        oracle = oracles.set_relative_equilibria(rows, game.gamma, angles, 1e-6)
        assert found == [tuple(candidates[i] for i in choice) for choice in oracle]


class TestParetoCheck:
    def test_all_qy_at_max_entanglement_is_optimal(self):
        assert pareto_check(prisoners_dilemma_3(HALF_PI), (QY,) * 3)

    def test_classical_mutual_defection_is_dominated(self):
        """(C,C,C) pays (3,3,3), strictly above the (1,1,1) of all-defect."""
        assert not pareto_check(prisoners_dilemma_3(0.0), (DEFECT,) * 3)

    def test_classical_mutual_cooperation_is_optimal(self):
        assert pareto_check(prisoners_dilemma_3(0.0), (COOPERATE,) * 3)

    def test_oversized_grids_are_thinned_but_corners_survive(self, monkeypatch):
        import qgames.equilibrium as eq

        monkeypatch.setattr(eq, "PARETO_MAX_PROFILES", 1000)
        # 101x51 per player would be ~1.4e11 profiles; the thinned grid must
        # still contain the all-cooperate corner that dominates all-defect.
        assert not pareto_check(prisoners_dilemma_3(0.0), (DEFECT,) * 3)
        assert pareto_check(prisoners_dilemma_3(0.0), (COOPERATE,) * 3)


    @pytest.mark.parametrize("case", range(12))
    def test_chunked_verdict_matches_profile_by_profile_scan(self, case, monkeypatch):
        """On a 4 x 4 grid per player (4096 profiles, in chunks of 16
        doubling to 512) the verdict equals the dense oracle's
        one-profile-at-a-time scan; the first dominator falls in the first
        chunk, in a later one, or nowhere."""
        import qgames.equilibrium as eq

        monkeypatch.setattr(eq, "PARETO_MAX_PROFILES", 4096)
        gamma, profile = seeded_pd3_profiles()[case]
        expected = oracles.grid_pareto_optimal(
            oracles.PD3_ROWS, gamma, angle_pairs(profile), 4, 4
        )
        assert pareto_check(prisoners_dilemma_3(gamma), profile) == expected

    def test_nine_players_are_refused_before_any_evaluation(self, monkeypatch):
        """Even a 2 x 2 grid per player is 4**9 = 262144 profiles."""
        import qgames.equilibrium as eq
        import qgames.protocol as protocol

        def no_evaluation(*args):
            raise AssertionError("pareto_check evaluated a profile")

        monkeypatch.setattr(eq, "payoffs_batch", no_evaluation)
        monkeypatch.setattr(protocol, "payoffs_batch", no_evaluation)
        with pytest.raises(DomainError, match="100000 profiles.*262144"):
            pareto_check(constant_game(9), (QY,) * 9)

    def test_eight_players_scan_all_65536_profiles(self, monkeypatch):
        """A constant table has no dominator, so the whole 2 x 2 grid per
        player (4**8 profiles) is scored."""
        import qgames.equilibrium as eq

        scored = []

        def counting(rows, gamma, u):
            scored.append(len(u))
            return payoffs_batch(rows, gamma, u)

        monkeypatch.setattr(eq, "payoffs_batch", counting)
        assert pareto_check(constant_game(8), (QY,) * 8)
        assert sum(scored) == 4**8


class TestPayoffSweep:
    def test_endpoints_and_midpoint(self):
        table = prisoners_dilemma_3(0.0).table
        rows = payoff_sweep(table, (QY,) * 3, [0.0, math.pi / 4, HALF_PI])
        assert_allclose(rows[0][1], [1, 1, 1], atol=1e-9)
        assert_allclose(rows[1][1], [2, 2, 2], atol=1e-9)
        assert_allclose(rows[2][1], [3, 3, 3], atol=1e-9)

    def test_output_order_matches_input_order(self):
        table = prisoners_dilemma_3(0.0).table
        gammas = [HALF_PI, 0.0, math.pi / 4]
        rows = payoff_sweep(table, (QY,) * 3, gammas)
        assert [g for g, _ in rows] == gammas

    def test_gamma_out_of_range_rejected(self):
        table = prisoners_dilemma_3(0.0).table
        with pytest.raises(DomainError):
            payoff_sweep(table, (QY,) * 3, [0.0, 2.0])

    def test_all_qy_payoff_grows_monotonically_with_entanglement(self):
        """Payoff follows 1 + 2 sin^2(gamma), strictly increasing inside."""
        table = prisoners_dilemma_3(0.0).table
        gammas = np.linspace(0.0, HALF_PI, 101)
        rows = payoff_sweep(table, (QY,) * 3, gammas)
        values = np.array([payoffs for _, payoffs in rows])
        expected = 1.0 + 2.0 * np.sin(gammas) ** 2
        for player in range(3):
            assert_allclose(values[:, player], expected, atol=1e-9)
        assert np.all(np.diff(values[:, 0]) > 0.0)


class TestPeakMemory:
    """Traced allocation peaks stay under 1.5 MB: the kernel works in chunks
    of at most 2**12 amplitudes, so neither the whole enumeration nor a
    large-N sweep is ever materialised as states at once."""

    PEAK_BYTES = 1_500_000

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_enumeration_of_eight_players(self):
        game = random_game(8, 0.9, seed=1)
        game.table.as_array  # the table is the game's data, built before tracing
        peak = self.traced_peak(
            lambda: enumerate_equilibria(game, [COOPERATE, DEFECT, QY])
        )
        assert peak <= self.PEAK_BYTES

    def test_sweep_of_twelve_players(self):
        game = random_game(12, 0.0, seed=2)
        game.table.as_array
        gammas = np.linspace(0.0, HALF_PI, 201)
        peak = self.traced_peak(lambda: payoff_sweep(game.table, (QY,) * 12, gammas))
        assert peak <= self.PEAK_BYTES
