"""Outside-in tracing of codoa's layers for the benchmark's traced pass.

The tracer wraps public functions of ``codoa.engine``, ``codoa.harness``,
``codoa.benchmarks`` and ``codoa.rng`` from outside the package: it swaps
module attributes (and the two ``RandomStream`` methods) for timing
wrappers and puts the originals back afterwards.  Nothing under ``src/`` is
edited.  The engine looks its phases up as module globals on every call,
so a swapped attribute is seen by ``run``/``iterate`` without changes.

Every wrapped call is a span: name, start, end, parent span and the id of
the optimizer run it belongs to.  Self time is a span's duration minus the
time covered by its child spans, aggregated per name for every call.  Full
span records are kept only for the first ``keep_runs`` runs (plus the
harness-level spans outside any run), because a booth run alone makes
about 10^5 spans.  Wrappers do not reach pool workers, so only serial
passes are traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import Counter

ENGINE_PHASES = (
    "socialization",
    "decay_all_ir",
    "move_toward_best",
    "evaluate_swarm",
    "reward_best",
    "maturation",
    "rationalizing",
    "balancing",
    "iterate",
    "initialize",
)


class Tracer:
    """In-memory span recorder with per-name self/inclusive time and counts."""

    def __init__(self, keep_runs: int) -> None:
        self.keep_runs = keep_runs
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.results: list = []
        self.run_id = None
        self.recording = True
        self._stats: dict[str, list] = {}  # name -> [self s, inclusive s, calls]
        self._runs = 0
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span_id, child_time]

    def stat(self, name: str) -> tuple[float, float, int]:
        """(self seconds, inclusive seconds, calls) of a span name; zeros if absent."""
        return tuple(self._stats.get(name, (0.0, 0.0, 0)))

    def names(self) -> list[str]:
        return list(self._stats)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        perf = time.perf_counter
        stat = self._stats.setdefault(name, [0.0, 0.0, 0])

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stat[0] += duration - frame[1]
                stat[1] += duration
                stat[2] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if self.recording:
                    self.spans.append((
                        frame[0], name, start, end,
                        None if parent is None else parent[0], self.run_id,
                    ))

        return traced

    def _wrap_run(self, run):
        traced = self.wrap("engine.run", run)

        def run_with_id(*args, **kwargs):
            self.run_id = self._runs
            self.recording = self._runs < self.keep_runs
            self._runs += 1
            try:
                result = traced(*args, **kwargs)
            finally:
                self.run_id = None
                self.recording = True
            self.results.append(result)
            return result

        return run_with_id

    def _wrap_evaluator(self, evaluator):
        """Time the objective and count evaluations at the best point so far."""
        traced = self.wrap("benchmarks.evaluate", evaluator)
        counts = self.counts
        best = [float("inf"), None]  # value and position bytes, per problem

        def evaluate(pos):
            value = traced(pos)
            key = pos.tobytes()
            if key == best[1]:
                counts["repeat_evals"] += 1
            elif value < best[0]:
                best[0], best[1] = value, key
            return value

        return evaluate

    def _wrap_make_problem(self, make_problem):
        traced = self.wrap("benchmarks.make_problem", make_problem)

        def make_traced_problem(*args, **kwargs):
            problem = traced(*args, **kwargs)
            return dataclasses.replace(
                problem, evaluator=self._wrap_evaluator(problem.evaluator)
            )

        return make_traced_problem

    def _wrap_draw(self, draw):
        traced = self.wrap("rng.draw", draw)
        counts = self.counts

        def counted_draw(stream, n):
            counts["values_drawn"] += n
            return traced(stream, n)

        return counted_draw

    @contextlib.contextmanager
    def installed(self, engine, harness, rng):
        """Swap the traced wrappers into the codoa modules for the block.

        Each optimizer run must start inside the harness (``harness.run``
        and ``harness.make_problem``), so that its problem carries the
        wrapped evaluator.  Phases missing from ``engine`` are skipped and
        later reported as absent.
        """
        saved = []

        def swap(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            for phase in ENGINE_PHASES:
                if hasattr(engine, phase):
                    swap(engine, phase, self.wrap(f"engine.{phase}", getattr(engine, phase)))
            swap(harness, "run", self._wrap_run(harness.run))
            swap(harness, "make_problem", self._wrap_make_problem(harness.make_problem))
            stream = rng.RandomStream
            swap(stream, "next", self.wrap("rng.next", stream.next))
            swap(stream, "draw", self._wrap_draw(stream.draw))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path, origin: float) -> None:
        """Write the kept spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "run": run_id,
                }) + "\n")
