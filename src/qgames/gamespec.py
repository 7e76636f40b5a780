"""Game definitions: payoff tables, the built-in 3-player dilemma, and the
declarative game-file format.

Constructors of PayoffTable and GameSpec are deliberately permissive so that
incomplete or out-of-range games can be represented and reported by
`validate`. The factory `prisoners_dilemma_3` and the parser
`parse_game_spec` only ever produce valid specs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .angles import parse_angle
from .errors import DomainError, GameCompletenessError, GameFormatError
from .qcore import MAX_PLAYERS, MIN_PLAYERS, outcome_bitstrings, validate_gamma


@dataclass(frozen=True)
class PayoffTable:
    """Per-outcome payoffs: bitstring (0=Cooperate, 1=Defect, player 0 first)
    mapped to one payoff per player."""

    n_players: int
    entries: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        normalized = {
            str(bits): tuple(float(v) for v in row) for bits, row in self.entries.items()
        }
        object.__setattr__(self, "entries", MappingProxyType(normalized))

    def payoffs_for(self, outcome: str) -> tuple[float, ...]:
        """Payoff row for one outcome bitstring; KeyError names unknown outcomes."""
        return self.entries[outcome]

    @cached_property
    def as_array(self) -> np.ndarray:
        """(2**N, N) float array with rows in outcome-index order."""
        rows = [self.entries[bits] for bits in outcome_bitstrings(self.n_players)]
        arr = np.array(rows, dtype=float)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class GameSpec:
    """A game: player count, entanglement angle gamma (radians), payoff table."""

    n_players: int
    gamma: float
    table: PayoffTable


# Outcome -> payoffs for the built-in 3-player Prisoner's Dilemma:
# mutual cooperation pays 3 each, mutual defection 1 each, a lone defector
# takes 5 against 2s, a lone cooperator takes 0 against 4s.
_PD3_ROWS = {
    "000": (3.0, 3.0, 3.0),
    "001": (2.0, 2.0, 5.0),
    "010": (2.0, 5.0, 2.0),
    "011": (0.0, 4.0, 4.0),
    "100": (5.0, 2.0, 2.0),
    "101": (4.0, 0.0, 4.0),
    "110": (4.0, 4.0, 0.0),
    "111": (1.0, 1.0, 1.0),
}


def prisoners_dilemma_3(gamma: float) -> GameSpec:
    """The built-in 3-player Prisoner's Dilemma at entanglement angle gamma."""
    gamma = validate_gamma(gamma)
    return GameSpec(3, gamma, PayoffTable(3, dict(_PD3_ROWS)))


def parse_game_spec(text: str) -> GameSpec:
    """Parse the line-oriented game-file format.

    Grammar: ``#`` starts a comment; blank lines are ignored;
    ``players = <int>``; ``gamma = <real | pi | pi/2 | pi/4>``;
    one ``payoff <bitstring> = <p_0> ... <p_{N-1}>`` line per outcome.
    Keys may appear in any order except that ``players`` must precede
    every payoff line. ``players`` and ``gamma`` appear once each, and every
    one of the 2^N outcomes must appear exactly once.
    """
    players: int | None = None
    gamma: float | None = None
    payoffs: dict[str, tuple[float, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise GameFormatError("expected '<key> = <value>'", line=lineno)
        key = key.strip()
        value = value.strip()
        if (key == "players" and players is not None) or (key == "gamma" and gamma is not None):
            raise GameFormatError(f"duplicate {key!r} line", line=lineno)

        if key == "players":
            try:
                players = int(value)
            except ValueError:
                raise GameFormatError(
                    f"players must be an integer, got {value!r}", line=lineno
                ) from None
            if not MIN_PLAYERS <= players <= MAX_PLAYERS:
                raise GameFormatError(
                    f"players must lie in [{MIN_PLAYERS}, {MAX_PLAYERS}], got {players}",
                    line=lineno,
                )
        elif key == "gamma":
            try:
                gamma = parse_angle(value)
            except ValueError as exc:
                raise GameFormatError(str(exc), line=lineno) from None
            gamma = validate_gamma(gamma)  # DomainError for out-of-range values
        elif key.startswith("payoff"):
            parts = key.split()
            if len(parts) != 2 or parts[0] != "payoff":
                raise GameFormatError(
                    "payoff lines look like 'payoff <bitstring> = <values>'",
                    line=lineno,
                )
            bits = parts[1]
            if players is None:
                raise GameFormatError(
                    "'players' must appear before any payoff line", line=lineno
                )
            if len(bits) != players or set(bits) - {"0", "1"}:
                raise GameFormatError(
                    f"outcome {bits!r} must be {players} characters of 0/1",
                    line=lineno,
                )
            if bits in payoffs:
                raise GameCompletenessError(
                    f"duplicate payoff line for outcome {bits!r}", line=lineno
                )
            fields = value.split()
            if len(fields) != players:
                raise GameFormatError(
                    f"expected {players} payoffs, got {len(fields)}", line=lineno
                )
            try:
                row = tuple(float(f) for f in fields)
            except ValueError:
                raise GameFormatError(
                    f"payoffs must be decimal reals, got {value!r}", line=lineno
                ) from None
            if not all(math.isfinite(v) for v in row):
                raise GameFormatError("payoffs must be finite", line=lineno)
            payoffs[bits] = row
        else:
            raise GameFormatError(f"unknown key {key!r}", line=lineno)

    if players is None:
        raise GameFormatError("missing 'players' line")
    if gamma is None:
        raise GameFormatError("missing 'gamma' line")
    missing = [b for b in outcome_bitstrings(players) if b not in payoffs]
    if missing:
        raise GameCompletenessError(
            "missing payoff line for outcome " + ", ".join(repr(b) for b in missing)
        )
    return GameSpec(players, gamma, PayoffTable(players, payoffs))


def render_game_spec(spec: GameSpec) -> str:
    """Serialize a valid spec so that parse_game_spec(render_game_spec(s)) == s.

    Reals are written with repr, which round-trips doubles exactly.
    """
    lines = [f"players = {spec.n_players}", f"gamma = {spec.gamma!r}"]
    for bits in outcome_bitstrings(spec.n_players):
        row = " ".join(repr(v) for v in spec.table.entries[bits])
        lines.append(f"payoff {bits} = {row}")
    return "\n".join(lines) + "\n"


def validate(spec: GameSpec) -> list[str]:
    """Check every structural invariant; returns violations (empty when valid).

    Violations are data, not exceptions: invalid specs are representable and
    this is the one place that reports everything wrong with them.
    """
    problems: list[str] = []

    n = spec.n_players
    players_ok = isinstance(n, int) and MIN_PLAYERS <= n <= MAX_PLAYERS
    if not players_ok:
        problems.append(
            f"n_players must be an integer in [{MIN_PLAYERS}, {MAX_PLAYERS}], got {n!r}"
        )
    try:
        validate_gamma(spec.gamma)
    except DomainError:
        problems.append(f"gamma must lie in [0, pi/2], got {spec.gamma!r}")

    if spec.table.n_players != n:
        problems.append(
            f"table is for {spec.table.n_players} players but the game has {n}"
        )
    if not players_ok:
        return problems

    expected = outcome_bitstrings(n)
    for bits in expected:
        if bits not in spec.table.entries:
            problems.append(f"missing payoff entry for outcome {bits!r}")
    for bits, row in spec.table.entries.items():
        if len(bits) != n or set(bits) - {"0", "1"}:
            problems.append(f"entry key {bits!r} is not a {n}-bit outcome")
            continue
        if len(row) != n:
            problems.append(
                f"outcome {bits!r} has {len(row)} payoffs, expected {n}"
            )
        if not all(math.isfinite(v) for v in row):
            problems.append(f"outcome {bits!r} has non-finite payoffs")
    return problems
