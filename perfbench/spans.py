"""In-memory spans recorded around calls into the program's layers.

A span is a name, a start and an end (``perf_counter`` seconds), the span
that caused it and the operation it belongs to.  The benchmark times its
calls itself and hands the times over, so a traced call runs exactly the
code an untraced call runs.  The layer is the part of the name before the
first dot (``corpus.analyze`` belongs to ``corpus``).  Spans are written
out only when the run ends.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    op: int  # operation id, shared by every span of one operation
    name: str
    start: float
    end: float
    parent: int | None = None
    count: int = 1  # calls covered, when one span times a batch of calls
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self.op = 0

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def record(self, name: str, start: float, end: float, parent: int | None = None,
               count: int = 1, **attrs) -> int | None:
        if not self.enabled:
            return None
        span = Span(len(self.spans) + 1, self.op, name, start, end, parent, count, attrs)
        self.spans.append(span)
        return span.id

    def add_count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)

    def per_call(self, name: str) -> list[float]:
        """Seconds per call of every span with this name."""
        return [s.duration / s.count for s in self.spans if s.name == name]

    def child_time(self) -> dict[int, float]:
        """Span id -> total duration of the spans that name it as parent."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return child

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per layer: number of spans and total self time in seconds.

        A span's self time is its duration minus its children's durations.
        """
        child = self.child_time()
        layers: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            n, total = layers.get(layer, (0, 0.0))
            layers[layer] = (n + 1, total + s.duration - child.get(s.id, 0.0))
        return layers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
