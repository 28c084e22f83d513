"""Single-thread event loop with timers.

One loop serializes all access to an emulated instance: device, guest and
the guest-facing NAT state.  Other threads interact only by posting
callables.  An optional idle hook runs after every executed callback; the
harness uses it to pump frames between the NAT stack, device and guest
until the instance is quiescent.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
import traceback
from typing import Callable

_STOP = object()


class Timer:
    __slots__ = ("deadline", "fn", "cancelled")

    def __init__(self, deadline: float, fn: Callable[[], None]):
        self.deadline = deadline
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.fn = None  # a cancelled timer stays queued until its deadline

    def __lt__(self, other: "Timer") -> bool:
        return self.deadline < other.deadline


class EventLoop:
    def __init__(self, idle_hook: Callable[[], None] | None = None):
        self._queue: queue.Queue = queue.Queue()
        self._timers: list[Timer] = []
        self._idle_hook = idle_hook
        self._thread: threading.Thread | None = None
        self.errors = 0

    def post(self, fn: Callable[[], None]) -> None:
        self._queue.put(fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        timer = Timer(time.monotonic() + delay, fn)
        self._queue.put(("timer", timer))
        return timer

    def stop(self) -> None:
        self._queue.put(_STOP)

    def start(self, name: str = "eventloop") -> None:
        self._thread = threading.Thread(target=self.run, name=name, daemon=True)
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def run(self) -> None:
        while True:
            timeout = None
            if self._timers:
                timeout = max(0.0, self._timers[0].deadline - time.monotonic())
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                item = None
            if item is _STOP:
                return
            if isinstance(item, tuple) and item[0] == "timer":
                heapq.heappush(self._timers, item[1])
            elif item is not None:
                self._run(item)
            now = time.monotonic()
            while self._timers and self._timers[0].deadline <= now:
                timer = heapq.heappop(self._timers)
                if not timer.cancelled:
                    self._run(timer.fn)

    def _run(self, fn: Callable[[], None]) -> None:
        try:
            fn()
            if self._idle_hook is not None:
                self._idle_hook()
        except Exception:
            self.errors += 1
            traceback.print_exc()
