"""The two-parameter strategy manifold and its named points.

A strategy is a local unitary U(theta, phi) with theta in [0, pi] and
phi in [0, pi/2]. U(0, 0) is the identity (Cooperate), U(pi, pi/2) is the
bit flip i*sigma_x (Defect), and U(pi, 0) is i*sigma_y. Bounds are closed
and enforced strictly; angles are never wrapped or normalized.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .angles import format_real, parse_angle
from .errors import DomainError, StrategySyntaxError

THETA_MAX = math.pi
PHI_MAX = math.pi / 2


@dataclass(frozen=True)
class StrategyParams:
    """Point (theta, phi) on the strategy manifold, both angles in radians."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and 0.0 <= theta <= THETA_MAX):
            raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
        if not (math.isfinite(phi) and 0.0 <= phi <= PHI_MAX):
            raise DomainError(f"phi must lie in [0, pi/2], got {phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


COOPERATE = StrategyParams(0.0, 0.0)  # identity
DEFECT = StrategyParams(THETA_MAX, PHI_MAX)  # i*sigma_x, the bit flip
QY = StrategyParams(THETA_MAX, 0.0)  # i*sigma_y

Profile = tuple[StrategyParams, ...]

_NAMED = {
    "COOPERATE": COOPERATE,
    "C": COOPERATE,
    "DEFECT": DEFECT,
    "D": DEFECT,
    "QY": QY,
}


def named(name: str) -> StrategyParams:
    """Look up COOPERATE/DEFECT/QY (or the short forms C and D), case-insensitive."""
    try:
        return _NAMED[name.strip().upper()]
    except KeyError:
        raise KeyError(f"unknown strategy name: {name!r}") from None


def unitaries_of(thetas, phis) -> np.ndarray:
    """Stack of U(theta, phi) = [[cos t/2, e^{ip} sin t/2], [-e^{-ip} sin t/2, cos t/2]],
    one (2, 2) matrix per pair of angles, as a (k, 2, 2) complex array.

    The angles are not range-checked; StrategyParams does that.
    """
    half = np.asarray(thetas, dtype=float) / 2.0
    cos_half = np.cos(half)
    sin_half = np.sin(half)
    phase = np.exp(1j * np.asarray(phis, dtype=float))
    mats = np.empty(cos_half.shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = cos_half
    mats[..., 0, 1] = phase * sin_half
    mats[..., 1, 0] = -phase.conj() * sin_half
    mats[..., 1, 1] = cos_half
    return mats


def unitary_of(params: StrategyParams) -> np.ndarray:
    """The 2x2 unitary U(params.theta, params.phi) (see unitaries_of).

    The returned array is frozen and safe to share.
    """
    mat = unitaries_of(params.theta, params.phi)
    mat.setflags(write=False)
    return mat


def params_of_octant_point(x: Sequence[float]) -> StrategyParams:
    """Inverse of x = (cos t/2, sin t/2 cos p, sin t/2 sin p), for x on the
    closed positive octant of the unit sphere.

    With that x, unitary_of(t, p) = x0*U(C) + x1*U(QY) + x2*U(D). Components
    at or below zero are read as 0, and phi is 0 at the theta = 0 pole.
    """
    x0, x1, x2 = (float(v) if v > 0.0 else 0.0 for v in x)
    theta = 2.0 * math.atan2(math.hypot(x1, x2), x0)
    phi = math.atan2(x2, x1) if x1 or x2 else 0.0
    return StrategyParams(theta, phi)


def classical_mix_prob(params: StrategyParams) -> float:
    """Probability of Cooperate in the equivalent classical mixture: cos^2(theta/2).

    The equivalence holds for the unentangled game; phi never enters.
    """
    return math.cos(params.theta / 2.0) ** 2


_U_TOKEN = re.compile(r"U\(([^,()]+),([^,()]+)\)", re.IGNORECASE)


def parse_strategy(token: str) -> StrategyParams:
    """Parse CLI strategy syntax: C, D, QY, or U(<theta>,<phi>) in radians.

    Angles inside U(...) may be decimals or the tokens pi, pi/2, pi/4.
    Raises StrategySyntaxError for unparseable tokens; out-of-range angles
    in a well-formed token raise DomainError.
    """
    text = token.strip()
    upper = text.upper()
    if upper in _NAMED:
        return _NAMED[upper]
    match = _U_TOKEN.fullmatch(text)
    if match is None:
        raise StrategySyntaxError(
            f"cannot parse strategy token {token!r} "
            "(expected C, D, QY, or U(<theta>,<phi>))"
        )
    try:
        theta = parse_angle(match.group(1))
        phi = parse_angle(match.group(2))
    except ValueError as exc:
        raise StrategySyntaxError(f"bad angle in strategy token {token!r}: {exc}") from None
    return StrategyParams(theta, phi)


def strategy_token(params: StrategyParams) -> str:
    """Shortest token that parses back to params: a name or U(theta,phi)."""
    for name in ("C", "D", "QY"):
        if params == _NAMED[name]:
            return name
    return f"U({format_real(params.theta)},{format_real(params.phi)})"
