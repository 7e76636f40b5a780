"""Exact best replies, epsilon-Nash verification, equilibrium enumeration
over finite strategy sets, Pareto checks, and entanglement sweeps.

Every answer is deterministic: candidates are scored in a fixed order and a
tie keeps the earliest candidate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gamespec import GameSpec, PayoffTable
from .protocol import (
    checked_unitaries,
    chunk_rows,
    expected_payoffs,
    final_amplitudes,
    payoffs_batch,
    profile_unitaries,
    strategy_matrices,
)
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
# product never exceeds this many profiles. Games where even 2 x 2 points per
# player exceed it (N >= 9) are refused.
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
    octant of the unit sphere, with Q built from one kernel call on the
    three corner profiles. A maximiser restricted to its nonzero coordinates
    is an eigenvector of that face's principal submatrix of Q, so the
    eigenvectors of the seven faces that lie on the octant always include one.

    Candidates are scored by a second kernel call: the incumbent first, then
    each face's eigenvectors in _FACES order. The first candidate with the
    largest payoff wins, so ties keep the earliest candidate.
    """
    profile = tuple(profile)
    if not 0 <= player < game.n_players:
        raise IndexError(f"player index {player} out of range for {game.n_players} players")
    gamma = validate_gamma(game.gamma)
    u = profile_unitaries(profile, game.n_players)
    rows = game.table.as_array

    def with_moves(mats: np.ndarray) -> np.ndarray:
        batch = np.repeat(u[None], len(mats), axis=0)
        batch[:, player] = mats
        return batch

    corners = strategy_matrices(_CORNERS)
    psi = final_amplitudes(gamma, with_moves(corners))
    q = ((psi.conj() * rows[:, player]) @ psi.T).real

    candidates = [profile[player]]
    for face in _FACES:
        _, vectors = np.linalg.eigh(q[np.ix_(face, face)])
        for vector in vectors.T:
            if vector.sum() < 0.0:
                vector = -vector
            if vector.min() < -_OCTANT_TOL:
                continue
            x = np.zeros(3)
            x[list(face)] = vector
            candidates.append(params_of_octant_point(x))

    mats = strategy_matrices(candidates)
    values = payoffs_batch(rows, gamma, with_moves(mats))[:, player]
    best = int(np.argmax(values))
    return BestResponseResult(
        candidates[best], float(values[best]), float(values[best] - values[0])
    )


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
    it. All len(candidate_set)**N profiles are scored by the batched kernel
    into one payoff tensor with an axis per player, and a profile is stable
    when each player's payoff is within epsilon of the maximum along that
    player's axis. Profiles are returned in product order (player 0 varying
    slowest).
    """
    candidates = tuple(candidate_set)
    if not candidates:
        raise DomainError("candidate_set must be nonempty")
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be nonnegative, got {epsilon!r}")
    gamma = validate_gamma(game.gamma)
    mats = strategy_matrices(candidates)

    n = game.n_players
    shape = (len(candidates),) * n
    tensor = np.empty(shape + (n,))
    payoffs = tensor.reshape(-1, n)
    for start, u in _product_chunks(mats, n, chunk_rows(n)):
        payoffs[start : start + len(u)] = payoffs_batch(game.table.as_array, gamma, u)

    stable = np.ones(shape, dtype=bool)
    for p in range(n):
        own = tensor[..., p]
        stable &= own.max(axis=p, keepdims=True) <= own + epsilon
    return [tuple(candidates[i] for i in choice) for choice in np.argwhere(stable)]


def pareto_check(game: GameSpec, profile: Sequence[StrategyParams]) -> bool:
    """Grid-relative Pareto-optimality check; a sampling argument, not a proof.

    Scans the product of per-player (theta, phi) grids and returns False as
    soon as some sampled profile weakly improves every player and strictly
    improves at least one (with 1e-9 slack against rounding). The per-axis
    point counts are deterministically halved until the product holds at
    most PARETO_MAX_PROFILES profiles; grid corners survive the thinning.
    When even a 2 x 2 grid per player exceeds that bound (N >= 9) the check
    raises DomainError before evaluating anything. Profiles are scored in
    product order in chunks that start at 16 and double, so an early
    dominator is found after one small kernel call.
    """
    n = game.n_players
    n_theta, n_phi = _PARETO_THETA_NODES, _PARETO_PHI_NODES
    while (n_theta * n_phi) ** n > PARETO_MAX_PROFILES:
        if n_theta >= n_phi and n_theta > 2:
            n_theta = max(2, (n_theta + 1) // 2)
        elif n_phi > 2:
            n_phi = max(2, (n_phi + 1) // 2)
        else:
            raise DomainError(
                f"pareto_check scans at most {PARETO_MAX_PROFILES} profiles, but even a "
                f"2x2 grid per player gives {4**n} for {n} players"
            )

    current = expected_payoffs(game, tuple(profile))
    thetas, phis = np.meshgrid(
        np.linspace(0.0, THETA_MAX, n_theta), np.linspace(0.0, PHI_MAX, n_phi), indexing="ij"
    )
    grid = checked_unitaries(thetas.ravel(), phis.ravel())

    for _, u in _product_chunks(grid, n, 16):
        payoffs = payoffs_batch(game.table.as_array, game.gamma, u)
        better = np.all(payoffs >= current - _WEAK_TOL, axis=1)
        if np.any(better & np.any(payoffs > current + _WEAK_TOL, axis=1)):
            return False
    return True


def payoff_sweep(
    table: PayoffTable,
    profile: Sequence[StrategyParams],
    gamma_values: Sequence[float],
) -> list[tuple[float, np.ndarray]]:
    """Evaluate expected payoffs of one profile at each entanglement angle.

    One batched kernel call scores the profile at every gamma. Output order
    matches input order; every gamma is range-checked before any evaluation
    happens.
    """
    gammas = [validate_gamma(g) for g in gamma_values]
    u = profile_unitaries(tuple(profile), table.n_players)
    batch = np.broadcast_to(u, (len(gammas),) + u.shape)
    return list(zip(gammas, payoffs_batch(table.as_array, np.array(gammas), batch)))


def _product_chunks(mats: np.ndarray, n_players: int, first: int):
    """Walk the profiles of mats**n_players in product order (player 0
    slowest), in chunks of `first` profiles that double up to the kernel's
    chunk_rows(n_players).

    Yields (start, u): the index of the chunk's first profile and its
    matrices, (b, N, 2, 2). Only one chunk of matrices exists at a time.
    """
    shape = (len(mats),) * n_players
    total = len(mats) ** n_players
    start, size, cap = 0, first, chunk_rows(n_players)
    while start < total:
        stop = min(start + min(size, cap), total)
        choice = np.unravel_index(np.arange(start, stop), shape)
        yield start, mats[np.stack(choice, axis=-1)]
        start, size = stop, 2 * size
