"""Span recording around the public functions of qgames' layers.

`Tracer.install` rebinds each traced name in every qgames module that holds
it (for example `expected_payoffs` lives in protocol, equilibrium, cli and
the package itself), so calls between modules pass through the wrappers.
Spans (name, start, end, parent, query id) are appended to flat arrays in
memory and written out once, at the end. A span's self time is its
duration minus the time its child spans cover. A name that no longer exists
in the package is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute). The entangling gate gives two span names,
# told apart by its `dagger` argument; StateVector.basis is a classmethod.
TARGETS = (
    ("qcore.basis", "qgames.qcore", "StateVector.basis"),
    ("qcore.entangle", "qgames.qcore", "entangling_gate_apply"),
    ("qcore.tensor_apply", "qgames.qcore", "tensor_apply"),
    ("qcore.is_unitary", "qgames.qcore", "is_unitary"),
    ("qcore.probabilities", "qgames.qcore", "probabilities"),
    ("strategies.unitary_of", "qgames.strategies", "unitary_of"),
    ("strategies.parse_strategy", "qgames.strategies", "parse_strategy"),
    ("protocol.final_state", "qgames.protocol", "final_state"),
    ("protocol.expected_payoffs", "qgames.protocol", "expected_payoffs"),
    ("equilibrium.best_response", "qgames.equilibrium", "best_response"),
    ("equilibrium.enumerate_equilibria", "qgames.equilibrium", "enumerate_equilibria"),
    ("equilibrium.pareto_check", "qgames.equilibrium", "pareto_check"),
    ("equilibrium.payoff_sweep", "qgames.equilibrium", "payoff_sweep"),
    ("gamespec.parse_game_spec", "qgames.gamespec", "parse_game_spec"),
    ("gamespec.validate", "qgames.gamespec", "validate"),
    ("cli.main", "qgames.cli", "main"),
)
QUERY = "query"
DISENTANGLE = "qcore.disentangle"


def _dagger(args, kwargs) -> bool:
    return bool(kwargs.get("dagger", args[2] if len(args) > 2 else False))


class Tracer:
    def __init__(self):
        self.names = [QUERY, DISENTANGLE] + [name for name, _, _ in TARGETS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.work = array("q")  # amplitudes updated, for the state-vector stages
        self.stack = [-1]
        self.current_query = -1
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int, work: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.query.append(self.current_query)
        self.work.append(work)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def span(self, name: str, fn, work_of=None, name_of=None):
        """Wrap fn so that each call records one span."""
        default_id = self.ids[name]
        tracer = self

        def traced(*args, **kwargs):
            name_id = name_of(args, kwargs) if name_of else default_id
            index = tracer._open(name_id, work_of(args, kwargs) if work_of else 0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                tracer.start[index] = started
                tracer.stack.pop()

        return traced

    def run_query(self, query_id: int, call):
        """Run one query inside a root span that carries its id."""
        self.current_query = query_id
        try:
            return self.span(QUERY, call)()
        finally:
            self.current_query = -1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        entangle_id = self.ids["qcore.entangle"]
        disentangle_id = self.ids[DISENTANGLE]
        special = {
            "qcore.entangle": dict(
                name_of=lambda a, k: disentangle_id if _dagger(a, k) else entangle_id,
                work_of=lambda a, k: 2 ** a[0].n_players),
            "qcore.tensor_apply": dict(work_of=lambda a, k: len(a[1]) * 2 ** len(a[1])),
        }
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if attr == "StateVector.basis":
                cls = getattr(module, "StateVector", None)
                bound = cls.__dict__.get("basis") if cls is not None else None
                if not isinstance(bound, classmethod):
                    self.absent.append(name)
                    continue
                self._rebind(cls, "basis", classmethod(self.span(name, bound.__func__)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.span(name, original, **special.get(name, {}))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qgames" or mod_name.startswith("qgames."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "query": np.frombuffer(self.query, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, over spans inside queries: calls, seconds, self seconds, work."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_time = duration - covered
        inside = a["query"] >= 0
        out = {}
        for name_id, name in enumerate(self.names):
            mask = inside & (a["name"] == name_id)
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "work": int(a["work"][mask].sum()),
            }
        return out
