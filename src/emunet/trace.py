"""Runtime-enableable trace points with glob pattern matching.

Instrumented call sites pass a callable that formats the event arguments;
the callable only runs when the event name matches an enabled pattern, so
a trace point that matches nothing reduces to a dictionary lookup, and the
device skips its trace points altogether when it has no pattern.  Matched events are
written to the sink one line at a time, flushed per line, serialized by a
lock so concurrent emitters never interleave within a line.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, TextIO


def matches(pattern: str, name: str) -> bool:
    """Case-sensitive glob match where ``*`` matches any substring."""
    parts = pattern.split("*")
    if len(parts) == 1:
        return pattern == name
    head, tail = parts[0], parts[-1]
    if len(head) + len(tail) > len(name):
        return False
    if not name.startswith(head) or not name.endswith(tail):
        return False
    pos = len(head)
    end = len(name) - len(tail)
    for part in parts[1:-1]:
        if not part:
            continue
        found = name.find(part, pos, end)
        if found < 0:
            return False
        pos = found + len(part)
    return True


class TraceConfig:
    """Immutable pattern set plus a line sink.

    ``format_calls`` counts how many times an argument-formatting callable
    was actually invoked; it stays at zero when nothing matches.
    """

    def __init__(self, patterns: tuple[str, ...] = (), sink: TextIO | None = None):
        self.patterns = tuple(patterns)
        self.sink = sink
        self.format_calls = 0
        self._cache: dict[str, bool] = {}
        self._lock = threading.Lock()

    def emit(self, name: str, args: Callable[[], str] | str | None = None) -> None:
        state = self._cache.get(name)
        if state is None:
            state = any(matches(p, name) for p in self.patterns)
            self._cache[name] = state
        if not state:
            return
        if callable(args):
            self.format_calls += 1
            text = args()
        else:
            text = args or ""
        timestamp = time.monotonic_ns()
        line = f"{name} {text} ts={timestamp}\n" if text else f"{name} ts={timestamp}\n"
        if self.sink is not None:
            with self._lock:
                self.sink.write(line)
                self.sink.flush()


#: Shared disabled configuration; emit() on it is a near-no-op.
NULL_TRACE = TraceConfig()


def enable(patterns: list[str] | tuple[str, ...], sink: str | TextIO = "stderr") -> TraceConfig:
    """Build a TraceConfig writing matched events to ``sink``.

    ``sink`` may be the string "stderr", a file path, or an open text
    stream.  An unwritable path raises OSError at startup.
    """
    if sink == "stderr":
        out: TextIO = sys.stderr
    elif hasattr(sink, "write"):
        out = sink  # type: ignore[assignment]
    else:
        out = open(sink, "w", encoding="utf-8")
    return TraceConfig(tuple(patterns), out)
