"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start and an end (monotonic ns), the id of the span that
was open when it started, and the id of the run it belongs to.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON when the benchmark ends.

Layers are timed from outside the program: :meth:`Tracer.patched` swaps a
public function for a wrapper that opens a span around each call, and puts
the original back on exit.  Nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

_MISSING = object()


class Tracer:
    """Collects spans; one instance per benchmark invocation.

    A disabled tracer records nothing, so untraced runs pay one attribute
    read per span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, object]] = []
        self.run_id = 0
        self._stack: list[int] = []

    def new_run(self) -> int:
        """Start a new run id; later spans belong to it."""
        self.run_id += 1
        return self.run_id

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def seconds(self, name: str, run: int | None = None) -> float:
        """Total duration of the spans called ``name`` (optionally in one run)."""
        total = 0
        for record in self.spans:
            if record["name"] == name and (run is None or record["run"] == run):
                total += record["end_ns"] - record["start_ns"]
        return total / 1e9

    def durations(self, name: str) -> list[float]:
        """Duration in seconds of every span called ``name``, in start order."""
        return [
            (record["end_ns"] - record["start_ns"]) / 1e9
            for record in self.spans
            if record["name"] == name
        ]

    @contextlib.contextmanager
    def patched(self, targets: list[tuple[object, str, str]]):
        """Wrap ``owner.attribute`` in a span named ``span_name`` for each target.

        An attribute a class inherits is wrapped on the class itself and
        removed again on exit, so the inherited one shows through as before.
        """
        saved = []
        try:
            for owner, attribute, span_name in targets:
                own = vars(owner).get(attribute, _MISSING)
                saved.append((owner, attribute, own))
                setattr(owner, attribute, self._wrap(getattr(owner, attribute), span_name))
            yield
        finally:
            for owner, attribute, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, own)

    def _wrap(self, function, span_name: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return function(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")
