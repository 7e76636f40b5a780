"""Command-line front end. Emits headered CSV on stdout (comments prefixed
with '#'), diagnostics on stderr.

Exit status: 0 on success, 1 on domain/validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .angles import format_real, parse_angle
from .equilibrium import DEFAULT_EPSILON, enumerate_equilibria, epsilon_nash_check, payoff_sweep
from .errors import GameFormatError, QGamesError, StrategySyntaxError
from .gamespec import GameSpec, parse_game_spec, prisoners_dilemma_3, validate
from .protocol import expected_payoffs
from .qcore import outcome_bitstrings
from .strategies import parse_strategy, strategy_token


class _UsageError(Exception):
    """Bad invocation that argparse itself cannot catch (exit status 2)."""


def _positive_points(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("needs at least 2 points")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Simulate entangling-protocol quantum games and analyze their equilibria.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--game",
            required=True,
            help="builtin game name (pd3) or path to a game-spec file",
        )
        p.add_argument(
            "--gamma",
            default=None,
            help="entanglement angle in radians (decimal or pi, pi/2, pi/4); "
            "overrides the gamma of a game file",
        )

    def with_strategies(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--strategies",
            required=True,
            nargs="+",
            metavar="TOK",
            help="one token per player: C, D, QY, or U(<theta>,<phi>)",
        )

    p = sub.add_parser("payoff", help="expected payoff of one strategy profile")
    common(p)
    with_strategies(p)

    p = sub.add_parser("nash-check", help="epsilon-Nash verification of a profile")
    common(p)
    with_strategies(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = sub.add_parser("enumerate", help="set-relative Nash equilibria over a finite set")
    common(p)
    p.add_argument(
        "--set",
        required=True,
        dest="candidate_set",
        metavar="TOK,TOK,...",
        help="comma-separated strategy tokens forming the candidate set",
    )

    p = sub.add_parser("sweep", help="payoffs of one profile over a uniform gamma grid")
    common(p)
    with_strategies(p)
    p.add_argument("--points", type=_positive_points, default=101, help="gamma nodes on [0, pi/2]")

    p = sub.add_parser("classical-table", help="dump the classical payoff table")
    common(p)

    p = sub.add_parser("validate", help="check a game definition and list violations")
    common(p)

    return parser


def _parse_gamma_option(text: str) -> float:
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _read_game_file(path: str) -> GameSpec:
    """Parse a UTF-8 game file; bytes that do not decode are a format error."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GameFormatError(
                f"game file {path!r} is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from None
    return parse_game_spec(text)


def _load_game(args: argparse.Namespace, needs_gamma: bool) -> GameSpec:
    """Resolve --game/--gamma into a validated GameSpec."""
    if args.game.lower() == "pd3":
        if args.gamma is not None:
            gamma = _parse_gamma_option(args.gamma)
        elif needs_gamma:
            raise _UsageError("--gamma is required with the builtin pd3 game")
        else:
            gamma = 0.0
        return prisoners_dilemma_3(gamma)

    spec = _read_game_file(args.game)
    problems = validate(spec)
    if problems:
        raise QGamesError(f"invalid game file {args.game}: " + "; ".join(problems))
    if args.gamma is not None:
        gamma = _parse_gamma_option(args.gamma)
        spec = dataclasses.replace(spec, gamma=gamma)
        problems = validate(spec)
        if problems:
            raise QGamesError("; ".join(problems))
    return spec


def _parse_profile(tokens: list[str], n_players: int):
    if len(tokens) != n_players:
        raise _UsageError(f"expected {n_players} strategy tokens, got {len(tokens)}")
    return tuple(parse_strategy(token) for token in tokens)


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _payoff_header(n: int) -> list[str]:
    return [f"payoff_{p}" for p in range(n)]


def _cmd_payoff(args: argparse.Namespace) -> int:
    game = _load_game(args, needs_gamma=True)
    profile = _parse_profile(args.strategies, game.n_players)
    payoffs = expected_payoffs(game, profile)
    out = _writer()
    out.writerow(_payoff_header(game.n_players))
    out.writerow([format_real(v) for v in payoffs])
    return 0


def _cmd_nash_check(args: argparse.Namespace) -> int:
    game = _load_game(args, needs_gamma=True)
    profile = _parse_profile(args.strategies, game.n_players)
    report = epsilon_nash_check(game, profile, args.epsilon)
    out = _writer()
    out.writerow(["player", "gap", "best_theta", "best_phi"])
    for player, result in enumerate(report.per_player):
        out.writerow(
            [
                player,
                format_real(result.gap),
                format_real(result.best_params.theta),
                format_real(result.best_params.phi),
            ]
        )
    verdict = "true" if report.is_nash else "false"
    print(f"nash={verdict}", file=sys.stderr)
    print(f"# nash={verdict}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    game = _load_game(args, needs_gamma=True)
    tokens = [token for token in args.candidate_set.split(",") if token.strip()]
    if not tokens:
        raise _UsageError("--set needs at least one strategy token")
    candidates = [parse_strategy(token) for token in tokens]
    equilibria = enumerate_equilibria(game, candidates, DEFAULT_EPSILON)
    out = _writer()
    out.writerow(
        [f"strategy_{p}" for p in range(game.n_players)] + _payoff_header(game.n_players)
    )
    for profile in equilibria:
        payoffs = expected_payoffs(game, profile)
        out.writerow(
            [strategy_token(s) for s in profile] + [format_real(v) for v in payoffs]
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    game = _load_game(args, needs_gamma=False)  # per-node gammas replace it
    profile = _parse_profile(args.strategies, game.n_players)
    gammas = np.linspace(0.0, math.pi / 2, args.points)
    rows = payoff_sweep(game.table, profile, gammas)
    out = _writer()
    out.writerow(["gamma"] + _payoff_header(game.n_players))
    for gamma, payoffs in rows:
        out.writerow([format_real(gamma)] + [format_real(v) for v in payoffs])
    return 0


def _cmd_classical_table(args: argparse.Namespace) -> int:
    game = _load_game(args, needs_gamma=False)
    out = _writer()
    out.writerow(["outcome"] + _payoff_header(game.n_players))
    for bits in outcome_bitstrings(game.n_players):
        out.writerow([bits] + [format_real(v) for v in game.table.payoffs_for(bits)])
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.game.lower() == "pd3":
        spec = prisoners_dilemma_3(0.0)
    else:
        spec = _read_game_file(args.game)
    problems = validate(spec)
    out = _writer()
    out.writerow(["violation"])
    for problem in problems:
        out.writerow([problem])
    return 1 if problems else 0


_COMMANDS = {
    "payoff": _cmd_payoff,
    "nash-check": _cmd_nash_check,
    "enumerate": _cmd_enumerate,
    "sweep": _cmd_sweep,
    "classical-table": _cmd_classical_table,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, StrategySyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QGamesError, KeyError, IndexError) as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
