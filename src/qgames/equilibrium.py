"""Exact best replies, epsilon-Nash verification, equilibrium enumeration
over finite strategy sets, Pareto checks, and entanglement sweeps.

Every answer is deterministic: candidates are scored in a fixed order and a
tie keeps the earliest candidate.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gamespec import GameSpec, PayoffTable
from .protocol import expected_payoffs, final_state
from .qcore import validate_gamma
from .strategies import (
    COOPERATE,
    DEFECT,
    PHI_MAX,
    QY,
    THETA_MAX,
    Profile,
    StrategyParams,
    params_of_octant_point,
)

# Far above the simulator's 1e-9 numerical noise and far below the smallest
# meaningful payoff gap of the built-in game (2).
DEFAULT_EPSILON = 1e-6

# The Pareto scan visits a full product grid of alternative profiles; axes
# start at 101 x 51 points per player and are thinned before scanning so the
# product never exceeds this many profiles.
PARETO_MAX_PROFILES = 100_000
_PARETO_THETA_NODES = 101
_PARETO_PHI_NODES = 51

_WEAK_TOL = 1e-9  # slack when comparing payoff vectors in the Pareto check

# unitary_of(theta, phi) = x0*U(C) + x1*U(QY) + x2*U(D) for the octant point
# x = (cos theta/2, sin theta/2 cos phi, sin theta/2 sin phi).
_CORNERS = (COOPERATE, QY, DEFECT)

# Faces of the octant as index sets into x, in candidate order: the three
# vertices, the three boundary arcs, then the interior.
_FACES = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))

_OCTANT_TOL = 1e-12  # eigenvector components this far below 0 still count as on the octant


@dataclass(frozen=True)
class BestResponseResult:
    """Best strategy found for one player with everyone else held fixed.

    `gap` is `best_payoff` minus the payoff of the player's incumbent
    strategy; the incumbent is always a candidate, so the gap is never
    negative.
    """

    best_params: StrategyParams
    best_payoff: float
    gap: float


@dataclass(frozen=True)
class NashReport:
    """Verdict of an epsilon-Nash check: is_nash iff max per-player gap <= epsilon."""

    is_nash: bool
    epsilon: float
    per_player: tuple[BestResponseResult, ...]


def best_response(
    game: GameSpec,
    profile: Sequence[StrategyParams],
    player: int,
) -> BestResponseResult:
    """The player's exact best reply with everyone else held fixed.

    The final state is linear in the player's octant point x (see _CORNERS),
    so the payoff is the quadratic form x^T Q x over the closed positive
    octant of the unit sphere, with Q built from three pipeline runs. A
    maximiser restricted to its nonzero coordinates is an eigenvector of
    that face's principal submatrix of Q, so the eigenvectors of the seven
    faces that lie on the octant always include one.

    Candidates are scored by the pipeline: the incumbent first, then each
    face's eigenvectors in _FACES order. A candidate replaces the best only
    with a strictly larger payoff, so ties keep the earliest candidate.
    """
    profile = tuple(profile)
    if not 0 <= player < game.n_players:
        raise IndexError(f"player index {player} out of range for {game.n_players} players")

    def with_move(params: StrategyParams) -> Profile:
        return profile[:player] + (params,) + profile[player + 1 :]

    def payoff_of(params: StrategyParams) -> float:
        return float(expected_payoffs(game, with_move(params))[player])

    current = profile[player]
    current_payoff = payoff_of(current)
    best_params, best_payoff = current, current_payoff

    psi = np.array([final_state(game, with_move(c)).amplitudes for c in _CORNERS])
    q = ((psi.conj() * game.table.as_array[:, player]) @ psi.T).real

    for face in _FACES:
        _, vectors = np.linalg.eigh(q[np.ix_(face, face)])
        for vector in vectors.T:
            if vector.sum() < 0.0:
                vector = -vector
            if vector.min() < -_OCTANT_TOL:
                continue
            x = np.zeros(3)
            x[list(face)] = vector
            params = params_of_octant_point(x)
            value = payoff_of(params)
            if value > best_payoff:
                best_params, best_payoff = params, value

    return BestResponseResult(best_params, best_payoff, best_payoff - current_payoff)


def epsilon_nash_check(
    game: GameSpec,
    profile: Sequence[StrategyParams],
    epsilon: float = DEFAULT_EPSILON,
) -> NashReport:
    """Run best_response for every player; the profile is an epsilon-Nash
    equilibrium when no player's gap exceeds epsilon."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be nonnegative, got {epsilon!r}")
    results = tuple(best_response(game, profile, player) for player in range(game.n_players))
    worst = max(result.gap for result in results)
    return NashReport(worst <= epsilon, epsilon, results)


def enumerate_equilibria(
    game: GameSpec,
    candidate_set: Sequence[StrategyParams],
    epsilon: float = DEFAULT_EPSILON,
) -> list[Profile]:
    """Set-relative Nash enumeration over candidate_set**N.

    A profile qualifies when no player can gain more than epsilon by
    switching to another member of the candidate set; deviations outside
    the set are not considered, and no completeness claim is made beyond
    it. Cost grows as len(candidate_set)**n_players. Profiles are returned
    in product order (player 0 varying slowest).
    """
    candidates = tuple(candidate_set)
    if not candidates:
        raise DomainError("candidate_set must be nonempty")
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be nonnegative, got {epsilon!r}")

    n = game.n_players
    indices = range(len(candidates))
    payoff_by_choice = {
        choice: expected_payoffs(game, tuple(candidates[i] for i in choice))
        for choice in itertools.product(indices, repeat=n)
    }

    equilibria: list[Profile] = []
    for choice in itertools.product(indices, repeat=n):
        own = payoff_by_choice[choice]
        stable = all(
            payoff_by_choice[choice[:p] + (alt,) + choice[p + 1 :]][p] <= own[p] + epsilon
            for p in range(n)
            for alt in indices
        )
        if stable:
            equilibria.append(tuple(candidates[i] for i in choice))
    return equilibria


def pareto_check(game: GameSpec, profile: Sequence[StrategyParams]) -> bool:
    """Grid-relative Pareto-optimality check; a sampling argument, not a proof.

    Scans the product of per-player (theta, phi) grids and returns False as
    soon as some sampled profile weakly improves every player and strictly
    improves at least one (with 1e-9 slack against rounding). The per-axis
    point counts are deterministically halved until the product holds at
    most PARETO_MAX_PROFILES profiles; grid corners survive the thinning.
    """
    current = expected_payoffs(game, tuple(profile))

    n_theta, n_phi = _PARETO_THETA_NODES, _PARETO_PHI_NODES
    while (n_theta * n_phi) ** game.n_players > PARETO_MAX_PROFILES:
        if n_theta >= n_phi and n_theta > 2:
            n_theta = max(2, (n_theta + 1) // 2)
        elif n_phi > 2:
            n_phi = max(2, (n_phi + 1) // 2)
        else:
            break

    grid = [
        StrategyParams(theta, phi)
        for theta in np.linspace(0.0, THETA_MAX, n_theta)
        for phi in np.linspace(0.0, PHI_MAX, n_phi)
    ]
    for alternative in itertools.product(grid, repeat=game.n_players):
        payoffs = expected_payoffs(game, alternative)
        if np.all(payoffs >= current - _WEAK_TOL) and np.any(payoffs > current + _WEAK_TOL):
            return False
    return True


def payoff_sweep(
    table: PayoffTable,
    profile: Sequence[StrategyParams],
    gamma_values: Sequence[float],
) -> list[tuple[float, np.ndarray]]:
    """Evaluate expected payoffs of one profile at each entanglement angle.

    Output order matches input order; every gamma is range-checked before
    any evaluation happens.
    """
    gammas = [validate_gamma(g) for g in gamma_values]
    profile = tuple(profile)
    return [
        (gamma, expected_payoffs(GameSpec(table.n_players, gamma, table), profile))
        for gamma in gammas
    ]
