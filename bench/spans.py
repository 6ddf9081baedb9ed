"""Span recording for the traced benchmark run, with no edit to the program.

A :class:`Tracer` wraps qnot's public functions where the benchmark calls
them and, where one qnot module calls another module's public function,
the name bound in the calling module (``synthesis.psd_sqrt``,
``Machine.unitarity_error`` and so on).  Each wrapped call records a span
``(name, start, end, parent, set)``; a layer's self time is its span minus
the spans nested directly inside it.  Wrappers are installed for one set
and removed after it, so the untraced sets of a traced run execute the
program exactly as the untraced run does.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from qnot import feasibility, optimizer, serialize, simulator, states, synthesis


def _search_gamma_name(args, kwargs) -> str:
    return "optimizer.search_gamma_" + kwargs["policy"].value


# (object whose attribute is called, attribute, layer name).  A layer
# appears once per module that calls it, so nested calls are caught too.
LAYERS = (
    (states, "gram", "states.gram"),
    (feasibility, "gram", "states.gram"),
    (synthesis, "gram", "states.gram"),
    (optimizer, "gram", "states.gram"),
    (feasibility, "check_exact_unitary", "feasibility.check_exact_unitary"),
    (synthesis, "check_exact_unitary", "feasibility.check_exact_unitary"),
    (feasibility, "check_exact_with_probe", "feasibility.check_exact_with_probe"),
    (feasibility, "check_probabilistic", "feasibility.check_probabilistic"),
    (feasibility, "build_probe_unitary", "feasibility.build_probe_unitary"),
    (feasibility, "build_exact_unitary", "feasibility.build_exact_unitary"),
    (synthesis, "build_exact_unitary", "feasibility.build_exact_unitary"),
    (feasibility, "unitary_completion", "linalg.unitary_completion"),
    (synthesis, "unitary_completion", "linalg.unitary_completion"),
    (synthesis, "psd_sqrt", "linalg.psd_sqrt"),
    (synthesis, "synthesize", "synthesis.synthesize"),
    (simulator, "verify_machine", "simulator.verify_machine"),
    (synthesis.Machine, "unitarity_error", "simulator.unitarity_error"),
    (optimizer, "search_gamma", _search_gamma_name),
    (optimizer, "gamma_max_triple", "optimizer.gamma_max_triple"),
    (optimizer, "grid_oracle_triple", "optimizer.grid_oracle_triple"),
    (serialize, "machine_to_dict", "serialize.machine_to_dict"),
    (serialize, "machine_from_dict", "serialize.machine_from_dict"),
    (serialize, "dump", "serialize.dump"),
    (serialize, "load", "serialize.load"),
)


class NullTracer:
    """Stand-in for untraced sets: spans cost one attribute lookup."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1, set index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.set_index = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.set_index]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            with self.span(label):
                return fn(*args, **kwargs)
        return wrapper

    def install(self, set_index: int) -> None:
        """Wrap every layer for the set about to run.

        A name the program no longer binds is skipped, so its layer reads 0.
        """
        self.set_index = set_index
        for owner, attr, name in LAYERS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times_ms(self) -> dict[int, dict[str, float]]:
        """Per set, per layer name: summed self time in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _, set_index) in enumerate(self.spans):
            out[set_index][name] += (end - start - child[k]) * 1e3
        return out
