"""Independent dense-matrix reference implementations, used only by tests.

Everything here is deliberately longhand: explicit pairwise Kronecker
expansion, a truncated power series for the entangler, and plain
enumeration for expectations. Nothing calls into the package's own algebra,
so agreement between the two is a real cross-check.
"""

import functools
import itertools
import math

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# Outcome-index order 000..111; rows are (payoff_0, payoff_1, payoff_2).
PD3_ROWS = np.array(
    [
        [3, 3, 3],
        [2, 2, 5],
        [2, 5, 2],
        [0, 4, 4],
        [5, 2, 2],
        [4, 0, 4],
        [4, 4, 0],
        [1, 1, 1],
    ],
    dtype=float,
)


def kron_chain(mats):
    """Tensor product of a sequence of matrices, expanded pairwise."""
    out = np.array([[1.0]], dtype=complex)
    for mat in mats:
        out = np.kron(out, np.asarray(mat, dtype=complex))
    return out


def taylor_expm(matrix, terms=60):
    """Matrix exponential by truncated power series."""
    matrix = np.asarray(matrix, dtype=complex)
    result = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ matrix / k
        result = result + term
    return result


@functools.lru_cache(maxsize=256)
def dense_entangler(n, gamma, dagger=False):
    """exp(+-i gamma/2 X x ... x X) as a dense matrix via the series oracle.

    Cached per (n, gamma, dagger); the returned matrix is read-only.
    """
    sign = -1.0 if dagger else 1.0
    matrix = taylor_expm(sign * 1j * (gamma / 2.0) * kron_chain([SIGMA_X] * n))
    matrix.setflags(write=False)
    return matrix


def dense_strategy(theta, phi):
    """Reference strategy matrix, restated independently of the package."""
    return np.array(
        [
            [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
            [-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)],
        ],
        dtype=complex,
    )


def dense_final_state(n, gamma, angle_pairs):
    """Full 2^n x 2^n pipeline: disentangle @ local moves @ entangle @ |0...0>."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    moves = kron_chain([dense_strategy(t, f) for t, f in angle_pairs])
    return dense_entangler(n, gamma, dagger=True) @ moves @ dense_entangler(n, gamma) @ psi


def dense_payoffs(table_rows, gamma, angle_pairs):
    """Expected payoffs from the dense pipeline; table_rows is (2^n, n)."""
    table_rows = np.asarray(table_rows, dtype=float)
    n = table_rows.shape[1]
    psi = dense_final_state(n, gamma, angle_pairs)
    probs = np.abs(psi) ** 2
    return (probs / probs.sum()) @ table_rows


def bernoulli_mixture_payoffs(table_rows, coop_probs):
    """Expectation over independent cooperate/defect draws, by enumeration."""
    table_rows = np.asarray(table_rows, dtype=float)
    n = len(coop_probs)
    total = np.zeros(n)
    for index in range(2**n):
        bits = format(index, f"0{n}b")
        weight = 1.0
        for p, bit in enumerate(bits):
            weight *= coop_probs[p] if bit == "0" else 1.0 - coop_probs[p]
        total += weight * table_rows[index]
    return total


def set_relative_equilibria(table_rows, gamma, candidate_angles, epsilon):
    """Brute-force set-relative Nash enumeration on the dense pipeline.

    candidate_angles: list of (theta, phi) pairs. Returns the qualifying
    profiles as tuples of candidate indices, in product order.
    """
    n = np.asarray(table_rows).shape[1]
    indices = range(len(candidate_angles))
    cache = {
        choice: dense_payoffs(
            table_rows, gamma, [candidate_angles[i] for i in choice]
        )
        for choice in itertools.product(indices, repeat=n)
    }
    found = []
    for choice in itertools.product(indices, repeat=n):
        own = cache[choice]
        stable = all(
            cache[choice[:p] + (alt,) + choice[p + 1 :]][p] <= own[p] + epsilon
            for p in range(n)
            for alt in indices
        )
        if stable:
            found.append(choice)
    return found


def grid_best_reply(table_rows, gamma, angle_pairs, player):
    """Best reply by grid search plus refinement on the dense pipeline.

    A 25 x 13 grid over theta in [0, pi], phi in [0, pi/2]; each of three
    refinement rounds re-grids 9 x 9 points over a window a quarter the previous size,
    centred on the incumbent best and clipped to the domain. Returns the best
    (theta, phi) found and its payoff; grid-relative, so only a lower bound
    on the true maximum.
    """
    angle_pairs = list(angle_pairs)

    def payoff(point):
        trial = angle_pairs[:player] + [point] + angle_pairs[player + 1 :]
        return float(dense_payoffs(table_rows, gamma, trial)[player])

    best = max(
        ((t, f) for t in np.linspace(0, math.pi, 25) for f in np.linspace(0, math.pi / 2, 13)),
        key=payoff,
    )
    half = (math.pi / 2, math.pi / 4)
    for _ in range(3):
        half = (half[0] / 4, half[1] / 4)
        thetas = np.linspace(max(best[0] - half[0], 0), min(best[0] + half[0], math.pi), 9)
        phis = np.linspace(max(best[1] - half[1], 0), min(best[1] + half[1], math.pi / 2), 9)
        best = max([best] + [(t, f) for t in thetas for f in phis], key=payoff)
    return best, payoff(best)


def grid_pareto_optimal(table_rows, gamma, angle_pairs, n_theta, n_phi, tol=1e-9):
    """Profile-by-profile Pareto scan of an n_theta x n_phi grid per player
    on the dense pipeline.

    Returns False at the first grid profile (product order, theta varying
    slower than phi within a player) that weakly improves every player and
    strictly improves at least one, with tol slack; True when none does.
    """
    table_rows = np.asarray(table_rows, dtype=float)
    n = table_rows.shape[1]
    current = dense_payoffs(table_rows, gamma, angle_pairs)
    moves = [
        dense_strategy(t, f)
        for t in np.linspace(0, math.pi, n_theta)
        for f in np.linspace(0, math.pi / 2, n_phi)
    ]
    entangled = dense_entangler(n, gamma)[:, 0]  # J(gamma) |0...0>
    disentangle = dense_entangler(n, gamma, dagger=True)
    for alternative in itertools.product(moves, repeat=n):
        psi = disentangle @ (kron_chain(alternative) @ entangled)
        probs = np.abs(psi) ** 2
        payoffs = (probs / probs.sum()) @ table_rows
        if np.all(payoffs >= current - tol) and np.any(payoffs > current + tol):
            return False
    return True
