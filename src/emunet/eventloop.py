"""Single-thread event loop with timers and socket readiness.

One loop serializes all access to an emulated instance: device, guest and
the NAT stack with its host sockets, which the loop waits on through
``selectors``.  Other threads interact only by posting callables, which
wake the loop through a socket pair.  The idle hook runs after every
executed callback; the harness uses it to pump frames between the NAT
stack, device and guest until the instance is quiescent.

All timing on the loop reads ``time()``, its one clock.  ``run_once`` is one
pass, so a caller can step a loop it never started on its own thread, and a
test that replaces a loop's ``time`` steps it in virtual time.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import threading
import time
import traceback
from collections import deque
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
    def __init__(self, idle_hook: Callable[[], None]):
        self._posted: deque = deque()
        self._timers: list[Timer] = []
        self._selector = selectors.DefaultSelector()
        self._watched: set[socket.socket] = set()  # registered with the selector
        self._wake_in = self._wake_out = None  # a socket pair, made by start()
        self._idle_hook = idle_hook
        self._thread: threading.Thread | None = None
        self.errors = 0

    def time(self) -> float:
        """The loop's clock, in seconds."""
        return time.monotonic()

    def post(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop; the one method other threads may call."""
        self._posted.append(fn)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except (AttributeError, OSError):
            pass  # not started; woken already, the pair being full; or stopped

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        timer = Timer(self.time() + delay, fn)
        heapq.heappush(self._timers, timer)
        return timer

    def watch(self, sock: socket.socket, events: int, fn: Callable[[int], None] | None = None) -> None:
        """Call ``fn(ready)`` while ``sock`` is ready for ``events``, a mask of
        ``selectors.EVENT_READ`` and ``EVENT_WRITE``; 0 stops watching."""
        if sock in self._watched:
            if events:
                self._selector.modify(sock, events, fn)
            else:
                self._selector.unregister(sock)
                self._watched.discard(sock)
        elif events:
            self._selector.register(sock, events, fn)
            self._watched.add(sock)

    def stop(self) -> None:
        self._posted.append(_STOP)  # not through post(), which a tracer may wrap
        self._wake()

    def start(self, name: str = "eventloop") -> None:
        self._wake_in, self._wake_out = socket.socketpair()
        self._wake_in.setblocking(False)
        self._wake_out.setblocking(False)
        self._selector.register(self._wake_in, selectors.EVENT_READ)
        self._wake()  # for what was posted before
        self._thread = threading.Thread(target=self.run, name=name, daemon=True)
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def run(self) -> None:
        while self.run_once(None):
            pass

    def run_once(self, timeout: float | None) -> bool:
        """Wait up to ``timeout`` seconds for a socket (``None``: until the next
        timer is due), then run ready sockets, posts and due timers.  Returns
        False once the pass takes the stop request."""
        posted, timers = self._posted, self._timers
        if timers:
            due = max(0.0, timers[0].deadline - self.time())
            timeout = due if timeout is None else min(timeout, due)
        for key, ready in self._selector.select(timeout):
            if key.data is None:
                self._wake_in.recv(4096)
            else:
                self._run(key.data, ready)
        while posted:
            fn = posted.popleft()
            if fn is _STOP:
                self._selector.close()
                self._wake_in.close()
                self._wake_out.close()
                return False
            self._run(fn)
        now = self.time()
        while timers and timers[0].deadline <= now:
            timer = heapq.heappop(timers)
            if not timer.cancelled:
                self._run(timer.fn)
        return True

    def _run(self, fn: Callable, *args) -> None:
        try:
            fn(*args)
            self._idle_hook()
        except Exception:
            self.errors += 1
            traceback.print_exc()
