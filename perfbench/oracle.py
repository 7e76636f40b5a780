"""Reference payoffs used to check the benchmark's answers.

Nothing here calls into qgames. The protocol is restated from the paper:
J(gamma)|0...0> = cos(gamma/2)|0...0> + i sin(gamma/2)|1...1>, so after the
local moves U_0 x ... x U_{N-1} every amplitude is a sum of two products of
one matrix column per player, and J(gamma)^dagger mixes each outcome with its
bitwise complement. The checks therefore hold for any correct implementation,
grid-searched, exact or batched.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Outcome rows 000..111 of the paper's 3-player Prisoner's Dilemma.
PD3_ROWS = np.array(
    [[3, 3, 3], [2, 2, 5], [2, 5, 2], [0, 4, 4], [5, 2, 2], [4, 0, 4], [4, 4, 0], [1, 1, 1]],
    dtype=float,
)

NAMED = {"C": (0.0, 0.0), "D": (math.pi, math.pi / 2), "QY": (math.pi, 0.0)}


def angles_of(token: str) -> tuple[float, float]:
    """(theta, phi) of a strategy token as the benchmark writes them: C, D, QY or U(t,p)."""
    if token in NAMED:
        return NAMED[token]
    theta, phi = token[2:-1].split(",")
    return float(theta), float(phi)


def _columns(angles: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Per strategy, the columns U|0> and U|1>, as two (k, 2) arrays."""
    first, second = [], []
    for theta, phi in angles:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        first.append([c, -np.exp(-1j * phi) * s])
        second.append([np.exp(1j * phi) * s, c])
    return np.array(first, dtype=complex), np.array(second, dtype=complex)


def _measure(rows: np.ndarray, gamma: float, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Payoffs from the two product terms; a trailing axis of first/second is a batch."""
    cos_g, sin_g = math.cos(gamma / 2), math.sin(gamma / 2)
    moved = cos_g * first + 1j * sin_g * second
    final = cos_g * moved - 1j * sin_g * moved[::-1]
    return (np.abs(final) ** 2).T @ rows


def payoffs(rows: np.ndarray, gamma: float, angles: Sequence[tuple[float, float]]) -> np.ndarray:
    """Expected payoff per player of one profile of (theta, phi) pairs."""
    first, second = _columns(angles)
    a = b = np.ones(1, dtype=complex)
    for col0, col1 in zip(first, second):
        a, b = np.outer(a, col0).ravel(), np.outer(b, col1).ravel()
    return _measure(rows, gamma, a, b)


def classical_mix(rows: np.ndarray, coop_probs: Sequence[float]) -> np.ndarray:
    """Expected payoffs when player p cooperates with probability coop_probs[p]."""
    weights = np.ones(1)
    for p in coop_probs:
        weights = np.outer(weights, [p, 1.0 - p]).ravel()
    return weights @ rows


def stable_profiles(rows: np.ndarray, gamma: float, candidates: Sequence[tuple[float, float]],
                    epsilon: float) -> set[tuple[int, ...]]:
    """Index tuples of every set-relative equilibrium over candidates**N."""
    n = rows.shape[1]
    k = len(candidates)
    first, second = _columns(candidates)
    table = np.empty((k,) * n + (n,))

    def descend(prefix, a, b):
        if len(prefix) == n - 1:  # the last player's k choices in one batch
            batch_a = (a[:, None, None] * first.T[None]).reshape(-1, k)
            batch_b = (b[:, None, None] * second.T[None]).reshape(-1, k)
            table[prefix] = _measure(rows, gamma, batch_a, batch_b)
            return
        for i in range(k):
            descend(prefix + (i,), np.outer(a, first[i]).ravel(), np.outer(b, second[i]).ravel())

    descend((), np.ones(1, dtype=complex), np.ones(1, dtype=complex))
    stable = np.ones((k,) * n, dtype=bool)
    for p in range(n):
        own = table[..., p]
        stable &= own.max(axis=p, keepdims=True) <= own + epsilon
    return {tuple(int(i) for i in idx) for idx in zip(*np.nonzero(stable))}
