"""Spans around the public functions of nilwords, recorded from outside.

`Tracer.install()` replaces each traced function in every nilwords module
that holds it (the defining module and every module that imported the name),
so a call is seen wherever its caller looks it up.  `uninstall()` puts the
originals back; untraced rounds run the unmodified program.

A span is (id, parent id, name, start ns, end ns, operation index).  Self time
of a span is its duration minus the time its child spans cover.  The
objective passed to scipy is called up to a few hundred thousand times per
round, so it is counted and timed as a leaf without a span record of its
own; its time still leaves the enclosing solver span's self time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from nilwords import scalar, search, verify

# Hooks receive (tracer, result, args, seconds) after a traced call returns
# and record the counts that a call count alone does not give.
def _letters(tr, result, args, seconds):
    tr.counts["lie_core.evaluate_word.letters"] += len(args[0].letters)


def _membership(tr, result, args, seconds):
    if any(frame[2] == "verify.invariance" for frame in tr.stack):
        tr.counts["region.membership.in_invariance"] += 1


def _evaluations(tr, result, args, seconds):
    tr.counts["search.evaluations"] += result.evaluations


def _synthesis(tr, result, args, seconds):
    tr.counts[f"search.synthesize_word.{result.stage}.calls"] += 1
    tr.counts[f"search.synthesize_word.{result.stage}.s"] += seconds


# (module, attribute, span name, hook) for the public functions traced.
TRACED = (
    ("nilwords.lie_core", "multiply", "lie_core.multiply", None),
    ("nilwords.lie_core", "bracket", "lie_core.bracket", None),
    ("nilwords.lie_core", "evaluate_word", "lie_core.evaluate_word", _letters),
    ("nilwords.words", "word_map_a", "words.word_map", None),
    ("nilwords.words", "word_map_b", "words.word_map", None),
    ("nilwords.words", "sigma_to_rword", "words.sigma_to_rword", None),
    ("nilwords.dynamics", "map_a_xy", "dynamics.map_xy", None),
    ("nilwords.dynamics", "map_b_xy", "dynamics.map_xy", None),
    ("nilwords.dynamics", "map_a_uvw", "dynamics.map_uvw", None),
    ("nilwords.dynamics", "map_b_uvw", "dynamics.map_uvw", None),
    ("nilwords.dynamics", "eval_uvw", "dynamics.eval_uvw", None),
    ("nilwords.region", "membership", "region.membership", _membership),
    ("nilwords.search", "nearest_reachable", "search.nearest_reachable", _evaluations),
    ("nilwords.search", "nearest_reachable_uvw", "search.nearest_reachable_uvw", _evaluations),
    ("nilwords.search", "diagonal_gap", "search.diagonal_gap", None),
    ("nilwords.search", "synthesize_word", "search.synthesize_word", _synthesis),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.stack: List[list] = []  # open frames: [id, start ns, name, child ns]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_index = -1
        self.active = False
        self._next_id = 0
        self._undo: List[tuple] = []

    # spans ------------------------------------------------------------

    def traced(self, fn: Callable, name: str, hook: Optional[Callable] = None, leaf: bool = False) -> Callable:
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            frame = [self._next_id, start, name, 0]
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[3]
                self.total_ns[name] += duration
                self.calls[name] += 1
                if parent is not None:
                    parent[3] += duration
                if not leaf:
                    self.spans.append(
                        (frame[0], parent[0] if parent else None, name, start, end, self.op_index)
                    )
            if hook is not None:
                hook(self, result, args, duration / 1e9)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, index: int, call: Callable[[], Any]) -> Any:
        """Run one operation as a root span named "op".  Only calls made
        inside an operation are recorded, not those its check makes."""
        self.op_index = index
        self.active = True
        try:
            return self.traced(call, "op")()
        finally:
            self.active = False

    # installation -----------------------------------------------------

    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("nilwords"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, span, hook in TRACED:
            original = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(original, self.traced(original, span, hook))
        for suite, fn in list(verify._SUITES.items()):
            self._undo.append((verify._SUITES, suite, fn))
            verify._SUITES[suite] = self.traced(fn, f"verify.{suite}", _suite_trials(suite))
        self._install_solvers()
        self._install_scalar_count()

    def _install_solvers(self) -> None:
        scipy_optimize = search.optimize

        def solver(name: str, hook: Callable) -> Callable:
            original = getattr(scipy_optimize, name)
            timed = self.traced(original, f"search.{name}", hook)

            def call(fun, x0, *args, **kwargs):
                objective = self.traced(fun, "search.objective", leaf=True)
                return timed(objective, x0, *args, **kwargs)

            return call

        proxy = types.SimpleNamespace(
            minimize=solver("minimize", _minimize_result),
            least_squares=solver("least_squares", _least_squares_result),
        )
        self._undo.append((search, "optimize", scipy_optimize))
        search.optimize = proxy

    def _install_scalar_count(self) -> None:
        original = scalar.Scalar.__init__

        def counting_init(obj, mode, value):
            if self.active:
                self.counts["scalar.objects"] += 1
            original(obj, mode, value)

        self._undo.append((scalar.Scalar, "__init__", original))
        scalar.Scalar.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # output -----------------------------------------------------------

    def write(self, path) -> None:
        """All spans, one JSON array per line: id, parent, name, start ns,
        end ns, operation index."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def _suite_trials(suite: str) -> Callable:
    def hook(tr, result, args, seconds):
        tr.counts[f"verify.{suite}.trials"] += args[1]

    return hook


def _minimize_result(tr, result, args, seconds):
    tr.counts["search.minimize.nfev"] += int(result.nfev)
    tr.counts["search.minimize.nit"] += int(result.nit)
    tr.counts["search.minimize.successes"] += int(bool(result.success))


def _least_squares_result(tr, result, args, seconds):
    tr.counts["search.least_squares.nfev"] += int(result.nfev)
    tr.counts["search.least_squares.njev"] += int(result.njev or 0)
