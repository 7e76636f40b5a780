"""Multiplayer quantum games in the entangling-gate protocol.

A profile of local strategies U(theta, phi) is played between an entangling
gate J(gamma) and its inverse; measuring the resulting state against a
per-outcome payoff table gives expected payoffs, over which Nash and Pareto
questions can be asked.
"""

__version__ = "0.1.0"

from .equilibrium import (
    DEFAULT_EPSILON,
    BestResponseResult,
    NashReport,
    best_response,
    enumerate_equilibria,
    epsilon_nash_check,
    pareto_check,
    payoff_sweep,
)
from .errors import (
    DimensionError,
    DomainError,
    GameCompletenessError,
    GameFormatError,
    NormalizationError,
    QGamesError,
    StrategySyntaxError,
    ValidationError,
)
from .gamespec import (
    GameSpec,
    PayoffTable,
    parse_game_spec,
    prisoners_dilemma_3,
    render_game_spec,
    validate,
)
from .protocol import (
    classical_mixed_payoffs,
    classical_payoff,
    expected_payoffs,
    final_state,
    payoffs_batch,
)
from .qcore import (
    StateVector,
    entangling_gate_apply,
    is_unitary,
    outcome_bitstrings,
    outcome_index,
    probabilities,
    tensor_apply,
)
from .strategies import (
    COOPERATE,
    DEFECT,
    QY,
    Profile,
    StrategyParams,
    classical_mix_prob,
    named,
    parse_strategy,
    strategy_token,
    unitary_of,
)

__all__ = [
    "__version__",
    "BestResponseResult",
    "COOPERATE",
    "DEFAULT_EPSILON",
    "DEFECT",
    "DimensionError",
    "DomainError",
    "GameCompletenessError",
    "GameFormatError",
    "GameSpec",
    "NashReport",
    "NormalizationError",
    "PayoffTable",
    "Profile",
    "QGamesError",
    "QY",
    "StateVector",
    "StrategyParams",
    "StrategySyntaxError",
    "ValidationError",
    "best_response",
    "classical_mix_prob",
    "classical_mixed_payoffs",
    "classical_payoff",
    "entangling_gate_apply",
    "enumerate_equilibria",
    "epsilon_nash_check",
    "expected_payoffs",
    "final_state",
    "is_unitary",
    "named",
    "outcome_bitstrings",
    "outcome_index",
    "pareto_check",
    "parse_game_spec",
    "parse_strategy",
    "payoff_sweep",
    "payoffs_batch",
    "prisoners_dilemma_3",
    "probabilities",
    "render_game_spec",
    "strategy_token",
    "tensor_apply",
    "unitary_of",
    "validate",
]
