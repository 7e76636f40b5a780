"""The full game pipeline: entangle, apply the players' strategies,
disentangle, measure, and score.

Every evaluation goes through one kernel on raw arrays, `payoffs_batch`,
which scores a whole batch of profiles at once. It uses the protocol's
product form instead of applying each stage to a state vector:

* J(gamma)|0...0> = cos(gamma/2)|0...0> + i sin(gamma/2)|1...1>, so after
  the local moves the state is cos(gamma/2) (x)_p U_p|0> + i sin(gamma/2)
  (x)_p U_p|1>: two products of one column per player.
* J(gamma)^dagger mixes each outcome with its bitwise complement, which is
  the same vector read backwards.
* Measuring is |amplitude|^2, contracted against the payoff table.

Inputs are checked once at the entry points (gamma range, profile length,
one unitarity check per distinct matrix); the kernel itself only re-checks
that every row's norm is 1 within 1e-9, as `qcore.probabilities` does.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NormalizationError, ValidationError
from .gamespec import GameSpec
from .qcore import ATOL_BOUNDARY, StateVector, is_unitary, validate_gamma
from .strategies import StrategyParams, unitaries_of

# Largest intermediate the kernel builds at once, in amplitudes: a chunk of
# B profiles on N players holds B * 2**N of them. Larger chunks buy no speed
# and cost memory: on a 2-vCPU x86 VM a 2**16 cap was no faster and raised
# peak resident memory by 16-22% on the enumeration and sweep benchmarks.
CHUNK_AMPLITUDES = 2**12


def chunk_rows(n_players: int) -> int:
    """Profiles per kernel chunk for n_players: at least 1, at most CHUNK_AMPLITUDES / 2**N."""
    return max(1, CHUNK_AMPLITUDES >> n_players)


def checked_unitaries(thetas, phis) -> np.ndarray:
    """The (k, 2, 2) strategy matrices for k angle pairs, each checked unitary once."""
    mats = unitaries_of(thetas, phis)
    for index, mat in enumerate(mats):
        if not is_unitary(mat):
            raise ValidationError(f"strategy matrix {index} is not unitary")
    return mats


def strategy_matrices(strategies: Sequence[StrategyParams]) -> np.ndarray:
    """The (k, 2, 2) matrices of k strategies, each checked unitary once."""
    return checked_unitaries([s.theta for s in strategies], [s.phi for s in strategies])


def profile_unitaries(profile: Sequence[StrategyParams], n_players: int) -> np.ndarray:
    """The (N, 2, 2) matrices of a profile of one strategy per player."""
    if len(profile) != n_players:
        raise DimensionError(f"profile has {len(profile)} strategies for {n_players} players")
    return strategy_matrices(profile)


def final_amplitudes(gamma, u: np.ndarray) -> np.ndarray:
    """Amplitudes before measurement, (B, 2**N), for B profiles of matrices u[B, N, 2, 2].

    gamma is a scalar or one angle per row. Nothing is validated and
    nothing is chunked; `payoffs_batch` bounds the batch size.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim:
        gamma = gamma[:, None]
    cos_half = np.cos(gamma / 2.0)
    sin_half = np.sin(gamma / 2.0)
    # Player 0 owns the most significant bit, so its column is the outermost
    # factor. Building from the last player inwards keeps numpy's inner loops
    # long; the gate's weights ride on the first factor built.
    zero = cos_half * u[:, -1, :, 0]
    one = (1j * sin_half) * u[:, -1, :, 1]
    for p in range(u.shape[1] - 2, -1, -1):
        zero = (u[:, p, :, 0, None] * zero[:, None, :]).reshape(len(u), -1)
        one = (u[:, p, :, 1, None] * one[:, None, :]).reshape(len(u), -1)
    moved = zero + one
    return cos_half * moved - (1j * sin_half) * moved[:, ::-1]


def payoffs_batch(rows: np.ndarray, gamma, u: np.ndarray) -> np.ndarray:
    """Expected payoffs of B profiles, (B, N): the protocol's one evaluation kernel.

    rows is the (2**N, N) payoff table in outcome-index order, gamma a
    scalar or one angle per row, and u the players' matrices, (B, N, 2, 2).
    Work is done in chunks of at most CHUNK_AMPLITUDES amplitudes. Inputs
    are not validated; every row's norm must be 1 within 1e-9.
    """
    n_rows, n_players = len(u), rows.shape[1]
    gamma = np.asarray(gamma, dtype=float)
    out = np.empty((n_rows, n_players))
    step = chunk_rows(n_players)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        amps = final_amplitudes(gamma[start:stop] if gamma.ndim else gamma, u[start:stop])
        probs = amps.real**2 + amps.imag**2
        total = probs.sum(axis=1)
        norms = np.sqrt(total)
        drifted = norms[abs(norms - 1.0) > ATOL_BOUNDARY]
        if drifted.size:
            raise NormalizationError(
                f"state norm is {float(drifted[0])!r}, expected 1 within 1e-9"
            )
        out[start:stop] = (probs / total[:, None]) @ rows
    return out


def final_state(game: GameSpec, profile: Sequence[StrategyParams]) -> StateVector:
    """State just before measurement: disentangle(strategies(entangle(|0...0>)))."""
    u = profile_unitaries(profile, game.n_players)
    return StateVector(game.n_players, final_amplitudes(validate_gamma(game.gamma), u[None])[0])


def expected_payoffs(game: GameSpec, profile: Sequence[StrategyParams]) -> np.ndarray:
    """Measurement-probability-weighted payoff for each player, as an (N,) array."""
    u = profile_unitaries(profile, game.n_players)
    return payoffs_batch(game.table.as_array, validate_gamma(game.gamma), u[None])[0]


def classical_payoff(game: GameSpec, outcome: str) -> np.ndarray:
    """Payoff row for a definite classical outcome; KeyError for unknown outcomes."""
    return np.array(game.table.payoffs_for(outcome), dtype=float)


def classical_mixed_payoffs(
    game: GameSpec, coop_probs: Sequence[float]
) -> np.ndarray:
    """Expected payoffs when each player independently cooperates with the
    given probability and defects otherwise."""
    if len(coop_probs) != game.n_players:
        raise DimensionError(
            f"got {len(coop_probs)} probabilities for {game.n_players} players"
        )
    weights = np.array([1.0])
    for prob in coop_probs:
        prob = float(prob)
        if not (math.isfinite(prob) and 0.0 <= prob <= 1.0):
            raise DomainError(f"cooperation probability must lie in [0, 1], got {prob!r}")
        weights = np.kron(weights, np.array([prob, 1.0 - prob]))
    return weights @ game.table.as_array
