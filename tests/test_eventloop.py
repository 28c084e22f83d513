"""The event loop on its own: timers, errors, readiness, wake-ups and stop.

All but the last two tests step an unstarted loop on a virtual clock; those
two start its thread, since what they test is the thread's wake-up and end.
"""

import selectors
import socket
import threading

from emunet.eventloop import EventLoop
from helpers import step, stepped_loop


def test_timers_fire_in_deadline_order_only_once_due():
    fired = []
    loop = stepped_loop(lambda: None)
    loop.call_later(0.3, lambda: fired.append("c"))
    loop.call_later(0.1, lambda: fired.append("a"))
    loop.call_later(0.2, lambda: fired.append("b"))
    step(loop)
    assert fired == []
    loop.time.now = 0.15
    step(loop)
    assert fired == ["a"]
    loop.time.now = 0.3  # two come due in one pass
    step(loop)
    assert fired == ["a", "b", "c"]
    step(loop)
    assert fired == ["a", "b", "c"]  # each fires once


def test_cancelled_timer_does_not_run():
    fired = []
    loop = stepped_loop(lambda: None)
    loop.call_later(0.1, lambda: fired.append("cancelled")).cancel()
    loop.call_later(0.1, lambda: fired.append("kept"))
    loop.time.now = 1.0
    step(loop)
    assert fired == ["kept"]
    assert not loop._timers


def test_callback_that_raises_counts_one_error_and_the_loop_goes_on():
    ran, idle = [], []

    def boom():
        raise ValueError("a bug in a callback")

    loop = stepped_loop(lambda: idle.append(len(ran)))
    loop.post(boom)
    loop.post(lambda: ran.append("next"))
    loop.run_once(0)
    assert loop.errors == 1
    assert ran == ["next"]
    assert idle == [1]  # after the callback that returned


def test_watch_with_no_events_unregisters_the_socket():
    near, far = socket.socketpair()
    ready = []
    loop = stepped_loop(lambda: None)
    loop.watch(near, selectors.EVENT_READ, ready.append)
    far.send(b"x")
    step(loop)
    assert ready == [selectors.EVENT_READ]
    loop.watch(near, 0)
    step(loop)
    assert ready == [selectors.EVENT_READ]  # still readable, no longer watched
    loop.watch(near, 0)  # unwatching an unwatched socket is harmless
    near.close()
    far.close()


def test_watch_registers_a_new_socket_and_modifies_only_a_watched_one(monkeypatch):
    near, far = socket.socketpair()
    loop = stepped_loop(lambda: None)
    calls = []
    for name in ("register", "modify", "unregister"):
        real = getattr(loop._selector, name)
        monkeypatch.setattr(
            loop._selector, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        )
    loop.watch(near, selectors.EVENT_READ, print)
    loop.watch(near, selectors.EVENT_READ | selectors.EVENT_WRITE, print)
    loop.watch(near, 0)
    loop.watch(near, 0)
    loop.watch(near, selectors.EVENT_WRITE, print)
    # no modify() of an unregistered socket, which fails only after formatting a KeyError
    assert calls == ["register", "modify", "unregister", "register"]
    near.close()
    far.close()


def test_post_from_another_thread_wakes_a_started_loop():
    loop = EventLoop(lambda: None)
    loop.start()
    try:
        done = threading.Event()
        loop.post(done.set)  # the loop waits in select() with no timer due
        assert done.wait(5)
    finally:
        loop.stop()
        loop.join(timeout=5)
    assert not loop._thread.is_alive()


def test_stop_closes_the_selector_and_the_wake_pair():
    loop = EventLoop(lambda: None)
    loop.start()
    wake_in, wake_out = loop._wake_in, loop._wake_out
    loop.stop()
    loop.join(timeout=5)
    assert not loop._thread.is_alive()
    assert loop._selector.get_map() is None  # closed
    assert wake_in.fileno() == -1 and wake_out.fileno() == -1
