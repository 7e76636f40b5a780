"""Seeded inputs, queries and answer checks for the four benchmark workloads.

A workload is a sequence of rounds. Round r is generated from (workload,
seed, r), so runs with the same seed see the same inputs, and a run always
executes whole rounds: every run of a workload sees the same mix of query
kinds and only the numbers drawn from the seed change. The kinds in a round
are chosen so that the median query is a fixed kind (see each class).

Game files are generated here as text with the standard library only, so
that the set-up time measured around `import qgames` and the parser does
not include any import the benchmark itself needs. Only generated inputs
reach the program: game-file text, strategy tokens, angles and argv lists.
"""

from __future__ import annotations

import csv
import importlib
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable, NamedTuple

HALF_PI = math.pi / 2
TOL = 1e-9  # agreement required between the program and the reference
EPSILON = 1e-6  # the package's default Nash epsilon, restated


class Query(NamedTuple):
    """One closed-loop request: `call` runs it, `check` returns a problem or None."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


class Table(NamedTuple):
    """A generated game: its outcome rows (index order) and its file text."""

    n: int
    gamma: float
    rows: list[tuple[float, ...]]
    text: str


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def make_table(rng: random.Random, n: int) -> Table:
    """Asymmetric table: every player's payoff drawn independently from 0.00..5.00."""
    gamma = rng.uniform(0.0, HALF_PI)
    rows = [tuple(rng.randrange(501) / 100 for _ in range(n)) for _ in range(2**n)]
    lines = [f"players = {n}", f"gamma = {gamma!r}"]
    lines += [
        f"payoff {index:0{n}b} = " + " ".join(repr(v) for v in row)
        for index, row in enumerate(rows)
    ]
    return Table(n, gamma, rows, "\n".join(lines) + "\n")


def random_token(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(("C", "D", "QY"))
    return f"U({rng.uniform(0.0, math.pi)!r},{rng.uniform(0.0, HALF_PI)!r})"


def _oracle():
    # Imported lazily: the set-up probe must not load numpy before qgames.
    return importlib.import_module("oracle")


def _np_rows(rows):
    import numpy as np

    return np.array(rows, dtype=float)


class Workload:
    """Base class: `setup` is the timed set-up, `round` yields queries."""

    name = ""
    rounds_traced = 1  # rounds in a traced run; fixed so its counts repeat exactly

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, qg) -> None:
        """Build every GameSpec the workload uses through qgames' parser and constructors."""

    def prepare(self, workdir: Path) -> None:
        """Write input files; not part of the timed set-up."""

    def round(self, qg, r: int) -> list[Query]:
        raise NotImplementedError

    def _parse(self, qg, table: Table):
        spec = qg.parse_game_spec(table.text)
        problems = qg.validate(spec)
        if problems:
            raise RuntimeError(f"generated game is invalid: {problems}")
        return spec


# --- nash_search -------------------------------------------------------------

# Paper anchors on pd3: (all-players token, gamma, best reply payoff, gap).
NASH_ANCHORS = (
    ("D", HALF_PI, 3.0, 2.0),
    ("QY", HALF_PI, 3.0, 0.0),
    ("D", 0.0, 1.0, 0.0),
    ("QY", 0.0, 1.0, 0.0),
)
# Reference grid: a subset of the default 101 x 51 coarse grid.
REF_GRID = [
    (k * math.pi / 4, j * math.pi / 4) for k in range(5) for j in range(3)
]


class NashSearch(Workload):
    """One default-resolution best_response per query, one query per round.

    Rounds cycle through pd3 at a paper anchor, an N=2 table, pd3 at a seeded
    gamma, an N=3 table and an N=4 table, so three fifths of the queries are
    N=3 best replies and the median of any three or more consecutive rounds
    is one. The anchor rotates with the seed and the cycle.
    """

    name = "nash_search"
    tables_per_size = 2
    rounds_traced = 5
    cycle = (("pd3_anchor", 3), ("table", 2), ("pd3", 3), ("table", 3), ("table", 4))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(self.name, seed, "tables")
        self.tables = {
            n: [make_table(rng, n) for _ in range(self.tables_per_size)] for n in (2, 3, 4)
        }

    def setup(self, qg) -> None:
        self.specs = {n: [self._parse(qg, t) for t in ts] for n, ts in self.tables.items()}
        self.pd3 = {gamma: qg.prisoners_dilemma_3(gamma) for gamma in (0.0, HALF_PI)}

    def round(self, qg, r: int) -> list[Query]:
        rng = _rng(self.name, self.seed, r)
        kind, n = self.cycle[r % len(self.cycle)]
        if kind == "pd3_anchor":
            cycle_no = r // len(self.cycle)
            token, gamma, best, gap = NASH_ANCHORS[(self.seed + cycle_no) % len(NASH_ANCHORS)]
            return [self._query(qg, kind, self.pd3[gamma], None, [token] * 3,
                                rng.randrange(3), (best, gap))]
        gamma = rng.uniform(0.0, HALF_PI)
        if kind == "pd3":
            game, rows = qg.prisoners_dilemma_3(gamma), None
        else:
            index = rng.randrange(self.tables_per_size)
            game = qg.GameSpec(n, gamma, self.specs[n][index].table)
            rows = self.tables[n][index].rows
        tokens = [random_token(rng) for _ in range(n)]
        return [self._query(qg, f"{kind}_n{n}", game, rows, tokens, rng.randrange(n), None)]

    @staticmethod
    def _query(qg, kind, game, rows, tokens, player, expected) -> Query:
        profile = tuple(qg.parse_strategy(t) for t in tokens)
        gamma = game.gamma

        def call():
            return qg.best_response(game, profile, player)

        def check(res) -> str | None:
            oracle = _oracle()
            table = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            angles = [oracle.angles_of(t) for t in tokens]

            def payoff_with(point):
                trial = angles[:player] + [point] + angles[player + 1:]
                return float(oracle.payoffs(table, gamma, trial)[player])

            theta, phi = res.best_params.theta, res.best_params.phi
            if not (0.0 <= theta <= math.pi and 0.0 <= phi <= HALF_PI):
                return f"best_params ({theta}, {phi}) outside the strategy domain"
            at_best = payoff_with((theta, phi))
            if abs(res.best_payoff - at_best) > TOL:
                return f"best_payoff {res.best_payoff} but the payoff at best_params is {at_best}"
            incumbent = payoff_with(angles[player])
            if abs(res.gap - (res.best_payoff - incumbent)) > TOL:
                return f"gap {res.gap} is not best_payoff minus the incumbent payoff {incumbent}"
            reference = max(payoff_with(point) for point in REF_GRID)
            if res.best_payoff < reference - TOL:
                return f"best_payoff {res.best_payoff} below the reference grid's {reference}"
            if expected and (abs(res.best_payoff - expected[0]) > TOL
                             or abs(res.gap - expected[1]) > TOL):
                return f"anchor expects payoff {expected[0]} gap {expected[1]}, got " \
                       f"{res.best_payoff} gap {res.gap}"
            return None

        return Query(kind, call, check)


# --- scan_profiles -----------------------------------------------------------

NAMED_SET = ("C", "D", "QY")


class ScanProfiles(Workload):
    """enumerate_equilibria and pareto_check at defaults, gamma fixed per query.

    A round holds six cheap queries (pd3 enumerations, dominated profiles that
    exit early), seven {C,D,QY} enumerations on an N=6 table at different
    gammas (729 profiles each), enumerations on N=6, 7 and 8 tables, and one
    Pareto-optimal profile that forces a full scan (its kind rotates with seed
    and round). The median query is an N=6 enumeration, and there are seven
    of them per round so that the median rests on several samples.
    Four-member sets are used on pd3 and N=6 only: on N=8 they would take
    4**8 evaluations per query.
    """

    name = "scan_profiles"
    n6_per_round = 7

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(self.name, seed, "tables")
        self.tables = {key: make_table(rng, n) for key, n in
                       (("n6", 6), ("n6_four", 6), ("n7", 7), ("n8", 8))}

    def setup(self, qg) -> None:
        self.specs = {key: self._parse(qg, t) for key, t in self.tables.items()}
        self.pd3 = {gamma: qg.prisoners_dilemma_3(gamma) for gamma in (0.0, HALF_PI)}

    def round(self, qg, r: int) -> list[Query]:
        rng = _rng(self.name, self.seed, r)
        gamma = rng.uniform(0.0, HALF_PI)
        pd3 = qg.prisoners_dilemma_3(gamma)
        extra = f"U({rng.uniform(0.0, math.pi)!r},{rng.uniform(0.0, HALF_PI)!r})"
        four = NAMED_SET + (extra,)
        near_defect = [f"U({rng.uniform(2.9, math.pi)!r},{rng.uniform(1.35, HALF_PI)!r})"
                       for _ in range(3)]
        lone = ["C", "C", "C"]
        lone[rng.randrange(3)] = f"U({rng.uniform(0.1, 3.0)!r},{rng.uniform(0.0, HALF_PI)!r})"

        def table_game(key, at=gamma):
            return qg.GameSpec(self.tables[key].n, at, self.specs[key].table), \
                self.tables[key].rows

        n6 = [self._enumerate(qg, "n6", *table_game("n6", rng.uniform(0.0, HALF_PI)),
                              NAMED_SET, None) for _ in range(self.n6_per_round)]
        optimal = [
            ("pd3_optimal", pd3, ["C"] * 3),
            ("pd3_optimal_lone", self.pd3[0.0], lone),
            ("pd3_optimal", self.pd3[HALF_PI], ["QY"] * 3),
        ][(self.seed + r) % 3]
        return [
            self._enumerate(qg, "pd3_anchor", self.pd3[0.0], None, NAMED_SET, 8),
            self._pareto(qg, "pd3_dominated", pd3, near_defect, False),
            self._enumerate(qg, "pd3_four", pd3, None, four, None),
            *n6[:3],
            self._enumerate(qg, "pd3", qg.prisoners_dilemma_3(rng.uniform(0.0, HALF_PI)),
                            None, NAMED_SET, None),
            self._enumerate(qg, "n7", *table_game("n7"), NAMED_SET, None),
            *n6[3:5],
            self._enumerate(qg, "n6_four", *table_game("n6_four"), four, None),
            self._enumerate(qg, "n8", *table_game("n8"), NAMED_SET, None),
            self._pareto(qg, *optimal, True),
            self._enumerate(qg, "pd3_anchor", self.pd3[HALF_PI], None, NAMED_SET, 1),
            *n6[5:],
            self._pareto(qg, "pd3_dominated", pd3, ["D"] * 3, False),
        ]

    @staticmethod
    def _enumerate(qg, kind, game, rows, tokens, expected_count) -> Query:
        candidates = [qg.parse_strategy(t) for t in tokens]

        def call():
            return qg.enumerate_equilibria(game, candidates)

        def check(found) -> str | None:
            oracle = _oracle()
            table = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            angles = [oracle.angles_of(t) for t in tokens]
            got = set()
            for profile in found:
                choice = []
                for params in profile:
                    matches = [i for i, (t, p) in enumerate(angles)
                               if abs(params.theta - t) <= 1e-12 and abs(params.phi - p) <= 1e-12]
                    if not matches:
                        return f"returned a strategy outside the candidate set: {params}"
                    choice.append(matches[0])
                got.add(tuple(choice))
            if len(got) != len(found):
                return "returned a profile twice"
            if expected_count is not None and len(got) != expected_count:
                return f"the paper has {expected_count} equilibria here, got {len(got)}"
            want = oracle.stable_profiles(table, game.gamma, angles, EPSILON)
            if got != want:
                return f"equilibria differ from unilateral-deviation check: " \
                       f"extra {sorted(got - want)[:3]}, missing {sorted(want - got)[:3]}"
            return None

        return Query(f"enumerate_{kind}", call, check)

    @staticmethod
    def _pareto(qg, kind, game, tokens, expected: bool) -> Query:
        profile = tuple(qg.parse_strategy(t) for t in tokens)

        def call():
            return qg.pareto_check(game, profile)

        def check(verdict) -> str | None:
            oracle = _oracle()
            payoffs = oracle.payoffs(oracle.PD3_ROWS, game.gamma,
                                     [oracle.angles_of(t) for t in tokens])
            # Every pd3 outcome pays at most 9 in total, so a profile paying 9
            # is Pareto-optimal; all-C pays (3, 3, 3) at every gamma, so a
            # profile paying every player less than 3 is dominated.
            if expected and abs(payoffs.sum() - 9.0) > TOL:
                return f"input error: optimal profile pays {payoffs}"
            if not expected and payoffs.max() >= 3.0 - EPSILON:
                return f"input error: dominated profile pays {payoffs}"
            if bool(verdict) != expected:
                return f"pareto_check returned {verdict}, expected {expected}"
            return None

        return Query(f"pareto_{kind}", call, check)


# --- sweep_gamma -------------------------------------------------------------

SWEEP_NODES = 201
SWEEP_SIZES = range(3, 13)


class SweepGamma(Workload):
    """payoff_sweep of a seeded profile over 201 seeded gamma nodes.

    A round is all-QY on pd3 plus one sweep for each N from 3 to 12, so the
    median query is an N=7 sweep. Nodes are 0 plus 200 seeded draws, new for
    every query, so no (table, gamma) pair repeats and a per-gamma cache
    cannot pay off.
    """

    name = "sweep_gamma"
    rounds_traced = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(self.name, seed, "tables")
        self.tables = {n: make_table(rng, n) for n in SWEEP_SIZES}

    def setup(self, qg) -> None:
        self.specs = {n: self._parse(qg, t) for n, t in self.tables.items()}
        self.pd3 = qg.prisoners_dilemma_3(0.0)

    def round(self, qg, r: int) -> list[Query]:
        rng = _rng(self.name, self.seed, r)
        queries = [self._sweep(qg, "pd3_qy", self.pd3.table, None, ["QY"] * 3, rng)]
        for n in SWEEP_SIZES:
            tokens = [random_token(rng) for _ in range(n)]
            queries.append(self._sweep(qg, f"n{n}", self.specs[n].table,
                                       self.tables[n].rows, tokens, rng))
        return queries

    @staticmethod
    def _sweep(qg, kind, table, rows, tokens, rng) -> Query:
        profile = tuple(qg.parse_strategy(t) for t in tokens)
        gammas = [0.0] + sorted(rng.uniform(0.0, HALF_PI) for _ in range(SWEEP_NODES - 1))
        probe = rng.randrange(1, SWEEP_NODES)

        def call():
            return qg.payoff_sweep(table, profile, gammas)

        def check(result) -> str | None:
            oracle = _oracle()
            rows_arr = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            angles = [oracle.angles_of(t) for t in tokens]
            result = list(result)
            if len(result) != SWEEP_NODES:
                return f"{len(result)} nodes, expected {SWEEP_NODES}"
            for k, (gamma, values) in enumerate(result):
                if abs(gamma - gammas[k]) > 1e-15:
                    return f"node {k} is gamma {gamma}, expected {gammas[k]}"
                if rows is None and max(abs(v - (1 + 2 * math.sin(gamma) ** 2))
                                        for v in values) > TOL:
                    return f"all-QY pays {list(values)} at gamma {gamma}, not 1 + 2 sin^2"
            mixed = oracle.classical_mix(rows_arr, [math.cos(t / 2) ** 2 for t, _ in angles])
            if abs(result[0][1] - mixed).max() > TOL:
                return "gamma=0 node differs from the classical mixture"
            exact = oracle.payoffs(rows_arr, gammas[probe], angles)
            if abs(result[probe][1] - exact).max() > TOL:
                return f"node {probe} differs from the reference"
            return None

        return Query(f"sweep_{kind}", call, check)


# --- cli_batch ---------------------------------------------------------------

CLI_SIZES = range(2, 9)


def _csv_rows(out: str) -> list[list[str]]:
    return list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))


def _close(cells, values) -> bool:
    return len(cells) == len(values) and all(
        abs(float(c) - float(v)) <= TOL for c, v in zip(cells, values))


class CliBatch(Workload):
    """In-process `qgames.cli.main(argv)` calls with stdout and stderr captured.

    A round is 50 calls: 45 valid ones over payoff, sweep, enumerate,
    classical-table and validate on pd3 and N=2..8 game files, and 5
    malformed ones (a bad token, a wrong token count, gamma out of range, a
    missing payoff line, a non-UTF-8 file). The CLI contract is exit 0, 1 or
    2 with headered CSV, or one `error:` line and no traceback.
    """

    name = "cli_batch"
    rounds_traced = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(self.name, seed, "tables")
        self.tables = {n: make_table(rng, n) for n in CLI_SIZES}
        lines = self.tables[3].text.splitlines()
        del lines[2 + rng.randrange(8)]
        self.missing_line = "\n".join(lines) + "\n"
        self.latin1 = ("# résumé of a 3-player game\n" + self.tables[3].text).encode("latin-1")

    def setup(self, qg) -> None:
        self.cli = importlib.import_module("qgames.cli")
        self.specs = {n: self._parse(qg, t) for n, t in self.tables.items()}
        self.pd3 = qg.prisoners_dilemma_3(0.0)

    def prepare(self, workdir: Path) -> None:
        self.paths = {}
        for n, table in self.tables.items():
            self.paths[n] = workdir / f"game_n{n}.txt"
            self.paths[n].write_text(table.text, encoding="utf-8")
        self.missing_path = workdir / "missing_line.txt"
        self.missing_path.write_text(self.missing_line, encoding="utf-8")
        self.latin1_path = workdir / "latin1.txt"
        self.latin1_path.write_bytes(self.latin1)

    def round(self, qg, r: int) -> list[Query]:
        rng = _rng(self.name, self.seed, r)
        q = []

        def gamma_arg():
            return repr(rng.uniform(0.0, HALF_PI))

        def tokens(n):
            return [random_token(rng) for _ in range(n)]

        for _ in range(5):
            g = gamma_arg()
            q.append(self._payoff(["--game", "pd3", "--gamma", g], None, float(g), tokens(3)))
        for n in CLI_SIZES:
            q.append(self._payoff(["--game", str(self.paths[n])], self.tables[n].rows,
                                  self.tables[n].gamma, tokens(n)))
        for n in CLI_SIZES:
            g = gamma_arg()
            q.append(self._payoff(["--game", str(self.paths[n]), "--gamma", g],
                                  self.tables[n].rows, float(g), tokens(n)))
        q.append(self._error("bad_token", ["payoff", "--game", "pd3", "--gamma", gamma_arg(),
                                           "--strategies", "C", "QX", "D"], {2}))
        for game, rows in (("pd3", None), ("pd3", None), (2, self.tables[2].rows),
                           (3, self.tables[3].rows)):
            path = game if game == "pd3" else str(self.paths[game])
            q.append(self._sweep(path, rows, tokens(3 if rows is None else game)))
        q.append(self._error("wrong_count", ["payoff", "--game", str(self.paths[4]),
                                             "--strategies", *tokens(3)], {2}))
        for _ in range(2):
            g = gamma_arg()
            q.append(self._enumerate(["--game", "pd3", "--gamma", g], None, float(g),
                                     NAMED_SET))
        for n in range(2, 6):
            q.append(self._enumerate(["--game", str(self.paths[n])], self.tables[n].rows,
                                     self.tables[n].gamma, ("C", "D")))
        q.append(self._error("gamma_range", ["payoff", "--game", "pd3", "--gamma", "2.5",
                                             "--strategies", "C", "C", "C"], {1}))
        q.append(self._table("pd3", None, 3))
        for n in CLI_SIZES:
            q.append(self._table(str(self.paths[n]), self.tables[n].rows, n))
        q.append(self._error("missing_line", ["validate", "--game", str(self.missing_path)],
                             {1}))
        q.append(self._validate("pd3"))
        for n in CLI_SIZES:
            q.append(self._validate(str(self.paths[n])))
        non_utf8 = (["validate", "--game", str(self.latin1_path)] if r % 2 == 0 else
                    ["payoff", "--game", str(self.latin1_path), "--strategies", "C", "D", "QY"])
        q.append(self._error("non_utf8", non_utf8, {1, 2}))
        return q

    def _query(self, kind, argv, check) -> Query:
        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse reports usage errors this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return Query(kind, call, check)

    def _csv_query(self, kind, argv, header, check_rows) -> Query:
        def check(result) -> str | None:
            code, out, err = result
            if code != 0 or err:
                return f"exit {code}, stderr {err.strip()!r}"
            rows = _csv_rows(out)
            if not rows or rows[0] != header:
                return f"header {rows[:1]}, expected {header}"
            return check_rows(rows[1:])

        return self._query(kind, argv, check)

    def _error(self, kind, argv, codes) -> Query:
        def check(result) -> str | None:
            code, out, err = result
            lines = err.splitlines()
            if code not in codes or out or len(lines) != 1 or not lines[0].startswith("error:"):
                return f"exit {code}, stdout {out!r}, stderr {err!r}; expected exit in " \
                       f"{sorted(codes)} and one error: line"
            return None

        return self._query(f"error_{kind}", argv, check)

    def _payoff(self, game_args, rows, gamma, toks) -> Query:
        n = len(toks)

        def check_rows(rows_out) -> str | None:
            oracle = _oracle()
            table = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            want = oracle.payoffs(table, gamma, [oracle.angles_of(t) for t in toks])
            if len(rows_out) != 1 or not _close(rows_out[0], want):
                return f"payoffs {rows_out}, expected {list(want)}"
            return None

        return self._csv_query("payoff", ["payoff", *game_args, "--strategies", *toks],
                               [f"payoff_{p}" for p in range(n)], check_rows)

    def _sweep(self, path, rows, toks) -> Query:
        n = len(toks)

        def check_rows(rows_out) -> str | None:
            oracle = _oracle()
            table = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            angles = [oracle.angles_of(t) for t in toks]
            if len(rows_out) != 101:
                return f"{len(rows_out)} sweep rows, expected the default 101"
            first, last = rows_out[0], rows_out[-1]
            mixed = oracle.classical_mix(table, [math.cos(t / 2) ** 2 for t, _ in angles])
            if not _close(first, [0.0, *mixed]):
                return f"gamma=0 row {first} differs from the classical mixture {list(mixed)}"
            if not _close(last, [HALF_PI, *oracle.payoffs(table, HALF_PI, angles)]):
                return f"gamma=pi/2 row {last} differs from the reference"
            return None

        return self._csv_query("sweep", ["sweep", "--game", path, "--strategies", *toks],
                               ["gamma"] + [f"payoff_{p}" for p in range(n)], check_rows)

    def _enumerate(self, game_args, rows, gamma, toks) -> Query:
        n = 3 if rows is None else len(rows[0])

        def check_rows(rows_out) -> str | None:
            oracle = _oracle()
            table = oracle.PD3_ROWS if rows is None else _np_rows(rows)
            want = oracle.stable_profiles(table, gamma, [oracle.angles_of(t) for t in toks],
                                          EPSILON)
            got = set()
            for row in rows_out:
                if any(t not in toks for t in row[:n]):
                    return f"row {row} uses a token outside the set {toks}"
                choice = tuple(toks.index(t) for t in row[:n])
                payoffs = oracle.payoffs(table, gamma, [oracle.angles_of(t) for t in row[:n]])
                if not _close(row[n:], payoffs):
                    return f"row {row} payoffs differ from {list(payoffs)}"
                got.add(choice)
            if got != want:
                return f"equilibria {sorted(got)}, expected {sorted(want)}"
            return None

        return self._csv_query("enumerate", ["enumerate", *game_args, "--set", ",".join(toks)],
                               [f"strategy_{p}" for p in range(n)]
                               + [f"payoff_{p}" for p in range(n)], check_rows)

    def _table(self, path, rows, n) -> Query:
        def check_rows(rows_out) -> str | None:
            want = _oracle().PD3_ROWS if rows is None else rows
            if len(rows_out) != 2**n:
                return f"{len(rows_out)} outcome rows, expected {2**n}"
            for index, row in enumerate(rows_out):
                if row[0] != f"{index:0{n}b}" or not _close(row[1:], want[index]):
                    return f"row {row} differs from outcome {index}"
            return None

        return self._csv_query("classical_table", ["classical-table", "--game", path],
                               ["outcome"] + [f"payoff_{p}" for p in range(n)], check_rows)

    def _validate(self, path) -> Query:
        def check_rows(rows_out) -> str | None:
            return f"valid game reported violations {rows_out}" if rows_out else None

        return self._csv_query("validate", ["validate", "--game", path], ["violation"],
                               check_rows)


WORKLOADS = {w.name: w for w in (NashSearch, ScanProfiles, SweepGamma, CliBatch)}
