"""The game pipeline: final states, expected payoffs, classical reductions."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from qgames import (
    COOPERATE,
    DEFECT,
    QY,
    DimensionError,
    DomainError,
    NormalizationError,
    StrategyParams,
    ValidationError,
    classical_mixed_payoffs,
    classical_payoff,
    expected_payoffs,
    final_state,
    payoffs_batch,
    prisoners_dilemma_3,
)
from qgames.protocol import checked_unitaries, chunk_rows

HALF_PI = math.pi / 2


def angle_pairs(profile):
    return [(p.theta, p.phi) for p in profile]


class TestFinalState:
    def test_no_entanglement_all_cooperate_is_vacuum(self):
        state = final_state(prisoners_dilemma_3(0.0), (COOPERATE,) * 3)
        assert_allclose(state.amplitudes, np.eye(8)[0], atol=1e-15)

    def test_max_entanglement_all_defect(self):
        """Defection commutes through the entangler: the state is -i|111>."""
        game = prisoners_dilemma_3(HALF_PI)
        state = final_state(game, (DEFECT,) * 3)
        expected = np.zeros(8, dtype=complex)
        expected[7] = -1j
        assert_allclose(state.amplitudes, expected, atol=1e-12)
        dense = oracles.dense_final_state(3, HALF_PI, angle_pairs((DEFECT,) * 3))
        assert_allclose(state.amplitudes, dense, atol=1e-12)

    def test_max_entanglement_all_qy(self):
        game = prisoners_dilemma_3(HALF_PI)
        state = final_state(game, (QY,) * 3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1j
        assert_allclose(state.amplitudes, expected, atol=1e-12)
        dense = oracles.dense_final_state(3, HALF_PI, angle_pairs((QY,) * 3))
        assert_allclose(state.amplitudes, dense, atol=1e-12)

    def test_profile_length_must_match(self):
        with pytest.raises(DimensionError):
            final_state(prisoners_dilemma_3(0.0), (COOPERATE, DEFECT))

    def test_normalized_for_random_profiles(self, rng, random_params):
        for _ in range(50):
            game = prisoners_dilemma_3(rng.uniform(0.0, HALF_PI))
            state = final_state(game, tuple(random_params() for _ in range(3)))
            assert abs(state.norm() - 1.0) < 1e-12

    def test_matches_dense_pipeline_on_random_profiles(self, rng, random_params):
        for _ in range(50):
            gamma = rng.uniform(0.0, HALF_PI)
            profile = tuple(random_params() for _ in range(3))
            state = final_state(prisoners_dilemma_3(gamma), profile)
            dense = oracles.dense_final_state(3, gamma, angle_pairs(profile))
            assert_allclose(state.amplitudes, dense, atol=1e-12)


class TestExpectedPayoffs:
    def test_all_qy_at_max_entanglement_pays_three(self):
        payoffs = expected_payoffs(prisoners_dilemma_3(HALF_PI), (QY,) * 3)
        assert_allclose(payoffs, [3.0, 3.0, 3.0], atol=1e-12)

    def test_cooperate_against_defect_qy_pays_five(self):
        payoffs = expected_payoffs(
            prisoners_dilemma_3(HALF_PI), (COOPERATE, DEFECT, QY)
        )
        assert payoffs[0] == pytest.approx(5.0, abs=1e-12)

    def test_classical_mutual_defection(self):
        payoffs = expected_payoffs(prisoners_dilemma_3(0.0), (DEFECT,) * 3)
        assert_allclose(payoffs, [1.0, 1.0, 1.0], atol=1e-12)

    def test_payoffs_stay_within_table_range(self, rng, random_params):
        game = prisoners_dilemma_3(0.7)
        for _ in range(25):
            payoffs = expected_payoffs(game, tuple(random_params() for _ in range(3)))
            assert np.all(payoffs >= 0.0 - 1e-12)
            assert np.all(payoffs <= 5.0 + 1e-12)

    def test_permuting_players_permutes_payoffs(self, rng, random_params):
        """The built-in game is symmetric; the engine must not break that."""
        gamma = 1.1
        game = prisoners_dilemma_3(gamma)
        profile = tuple(random_params() for _ in range(3))
        base = expected_payoffs(game, profile)
        for perm in itertools.permutations(range(3)):
            permuted = expected_payoffs(game, tuple(profile[i] for i in perm))
            assert_allclose(permuted, base[list(perm)], atol=1e-12)

    def test_classical_profiles_embed_faithfully(self):
        """{C, D} profiles reproduce the classical table at every gamma."""
        for gamma in (0.0, 0.3, math.pi / 4, 1.2, HALF_PI):
            game = prisoners_dilemma_3(gamma)
            for moves in itertools.product((COOPERATE, DEFECT), repeat=3):
                bits = "".join("1" if m == DEFECT else "0" for m in moves)
                assert_allclose(
                    expected_payoffs(game, moves),
                    classical_payoff(game, bits),
                    atol=1e-9,
                )


class TestClosedForms:
    """Hand-reduced payoff formulas; the simulator must match them exactly."""

    THETAS = np.linspace(0.0, math.pi, 41)
    PHIS = np.linspace(0.0, HALF_PI, 21)

    def test_deviation_against_two_defectors(self):
        game = prisoners_dilemma_3(HALF_PI)
        for theta in self.THETAS:
            for phi in self.PHIS:
                val = expected_payoffs(
                    game, (StrategyParams(theta, phi), DEFECT, DEFECT)
                )[0]
                closed = (1.0 + 2.0 * math.cos(phi) ** 2) * math.sin(theta / 2) ** 2
                assert val == pytest.approx(closed, abs=1e-9)

    def test_deviation_against_defector_and_qy(self):
        game = prisoners_dilemma_3(HALF_PI)
        for theta in self.THETAS:
            for phi in self.PHIS:
                val = expected_payoffs(
                    game, (StrategyParams(theta, phi), DEFECT, QY)
                )[0]
                closed = 0.5 * (
                    7.0
                    + 3.0 * math.cos(theta)
                    - 2.0 * math.sin(theta / 2) ** 2 * math.cos(2 * phi)
                )
                assert val == pytest.approx(closed, abs=1e-9)

    def test_deviation_against_two_qy_at_any_entanglement(self):
        for gamma in np.linspace(0.0, HALF_PI, 11):
            game = prisoners_dilemma_3(float(gamma))
            for theta in self.THETAS:
                for phi in self.PHIS:
                    val = expected_payoffs(
                        game, (StrategyParams(theta, phi), QY, QY)
                    )[0]
                    closed = (
                        1.0 + 2.0 * math.cos(phi) ** 2 * math.sin(gamma) ** 2
                    ) * math.sin(theta / 2) ** 2
                    assert val == pytest.approx(closed, abs=1e-9)


class TestSeparableGamePhase:
    """Without entanglement a {D, QY} profile lands on |111> with a phase
    -(-i)^n, n counting the bit-flip (D) players."""

    @pytest.mark.parametrize(
        "profile,phase",
        [
            ((QY, QY, QY), -1.0),  # n=0
            ((DEFECT, QY, QY), 1j),  # n=1
            ((DEFECT, DEFECT, QY), 1.0),  # n=2
            ((DEFECT, DEFECT, DEFECT), -1j),  # n=3
        ],
    )
    def test_phase_tracks_the_flip_count(self, profile, phase):
        state = final_state(prisoners_dilemma_3(0.0), profile)
        expected = np.zeros(8, dtype=complex)
        expected[7] = phase
        assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestOtherPlayerCounts:
    """The pipeline and the generalized entangler work for any 2..12 players."""

    def test_two_player_game_matches_dense_oracle(self, rng, random_params):
        from qgames import GameSpec, PayoffTable

        table = PayoffTable(
            2, {"00": (3, 3), "01": (0, 5), "10": (5, 0), "11": (1, 1)}
        )
        rows = np.array([table.entries[b] for b in ("00", "01", "10", "11")], float)
        for _ in range(20):
            gamma = rng.uniform(0.0, HALF_PI)
            game = GameSpec(2, gamma, table)
            profile = (random_params(), random_params())
            assert_allclose(
                expected_payoffs(game, profile),
                oracles.dense_payoffs(rows, gamma, angle_pairs(profile)),
                atol=1e-12,
            )

    def test_four_player_game_matches_dense_oracle(self, rng, random_params):
        from qgames import GameSpec, PayoffTable
        from qgames.qcore import outcome_bitstrings

        bits4 = outcome_bitstrings(4)
        rows = rng.uniform(0.0, 5.0, size=(16, 4))
        table = PayoffTable(4, {b: tuple(rows[i]) for i, b in enumerate(bits4)})
        for _ in range(10):
            gamma = rng.uniform(0.0, HALF_PI)
            game = GameSpec(4, gamma, table)
            profile = tuple(random_params() for _ in range(4))
            assert_allclose(
                expected_payoffs(game, profile),
                oracles.dense_payoffs(rows, gamma, angle_pairs(profile)),
                atol=1e-12,
            )


class TestPayoffsBatch:
    """The batched kernel against the dense oracle, on both sides of a chunk."""

    @pytest.mark.parametrize("per_row_gamma", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_oracle_around_the_chunk_size(self, n, per_row_gamma):
        rng = np.random.default_rng(7000 + 10 * n + per_row_gamma)
        rows = rng.uniform(-5.0, 5.0, size=(2**n, n))
        chunk = chunk_rows(n)
        # Per-row angles come from a small pool so the oracle's dense
        # entangler cache pays; every row still gets its own draw.
        pool = rng.uniform(0.0, HALF_PI, size=4)
        for size in (1, chunk - 1, chunk, chunk + 1):
            angles = np.stack(
                [rng.uniform(0.0, math.pi, (size, n)), rng.uniform(0.0, HALF_PI, (size, n))],
                axis=-1,
            )
            u = np.array([[oracles.dense_strategy(t, f) for t, f in row] for row in angles])
            gammas = rng.choice(pool, size) if per_row_gamma else np.full(size, pool[0])
            got = payoffs_batch(rows, gammas if per_row_gamma else pool[0], u)
            expected = [
                oracles.dense_payoffs(rows, gamma, row) for gamma, row in zip(gammas, angles)
            ]
            assert got.shape == (size, n)
            assert_allclose(got, expected, atol=1e-12)

    def test_norm_is_checked_on_every_row(self):
        """A non-unitary move in the last row of a second chunk is caught."""
        n = 8
        u = np.tile(np.eye(2, dtype=complex), (chunk_rows(n) + 1, n, 1, 1))
        u[-1, 3] *= 1.0 + 1e-6
        with pytest.raises(NormalizationError):
            payoffs_batch(np.zeros((2**n, n)), 0.5, u)

    def test_non_unitary_matrix_is_rejected_at_the_boundary(self):
        with pytest.raises(ValidationError):
            checked_unitaries([0.0, math.nan], [0.0, 0.0])


class TestClassicalPayoff:
    def test_all_cooperate(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(classical_payoff(game, "000"), [3, 3, 3], atol=0)

    def test_lone_cooperator_gets_nothing(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(classical_payoff(game, "011"), [0, 4, 4], atol=0)

    def test_lone_cooperator_last_seat(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(classical_payoff(game, "110"), [4, 4, 0], atol=0)

    def test_unknown_outcome_is_lookup_error(self):
        with pytest.raises(KeyError):
            classical_payoff(prisoners_dilemma_3(0.0), "0000")


class TestClassicalMixedPayoffs:
    def test_certain_cooperation(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(classical_mixed_payoffs(game, (1.0, 1.0, 1.0)), [3, 3, 3], atol=0)

    def test_certain_defection(self):
        game = prisoners_dilemma_3(0.0)
        assert_allclose(classical_mixed_payoffs(game, (0.0, 0.0, 0.0)), [1, 1, 1], atol=0)

    def test_uniform_coin_flips(self):
        """Equal-weight average of all eight outcome rows: 21/8 per player."""
        game = prisoners_dilemma_3(0.0)
        got = classical_mixed_payoffs(game, (0.5, 0.5, 0.5))
        assert_allclose(got, [2.625, 2.625, 2.625], atol=1e-15)
        assert_allclose(
            got, oracles.bernoulli_mixture_payoffs(oracles.PD3_ROWS, [0.5] * 3), atol=1e-12
        )

    def test_matches_enumeration_oracle(self, rng):
        game = prisoners_dilemma_3(0.0)
        for _ in range(30):
            probs = rng.uniform(0.0, 1.0, size=3)
            assert_allclose(
                classical_mixed_payoffs(game, probs),
                oracles.bernoulli_mixture_payoffs(oracles.PD3_ROWS, probs),
                atol=1e-12,
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_probability_domain(self, bad):
        with pytest.raises(DomainError):
            classical_mixed_payoffs(prisoners_dilemma_3(0.0), (0.5, bad, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            classical_mixed_payoffs(prisoners_dilemma_3(0.0), (0.5, 0.5))


class TestSeparableLimit:
    def test_quantum_game_reduces_to_classical_mixture(self, rng, random_params):
        """At zero entanglement, payoffs depend only on cos^2(theta/2)."""
        game = prisoners_dilemma_3(0.0)
        for _ in range(50):
            profile = tuple(random_params() for _ in range(3))
            mix = [math.cos(p.theta / 2) ** 2 for p in profile]
            assert_allclose(
                expected_payoffs(game, profile),
                classical_mixed_payoffs(game, mix),
                atol=1e-9,
            )

    def test_phi_never_matters_without_entanglement(self, rng):
        game = prisoners_dilemma_3(0.0)
        for _ in range(20):
            thetas = rng.uniform(0.0, math.pi, size=3)
            base = expected_payoffs(
                game, tuple(StrategyParams(t, 0.0) for t in thetas)
            )
            twisted = expected_payoffs(
                game,
                tuple(
                    StrategyParams(t, rng.uniform(0.0, HALF_PI)) for t in thetas
                ),
            )
            assert_allclose(twisted, base, atol=1e-9)
