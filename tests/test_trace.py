"""Trace framework: glob matching, sinks, laziness, line atomicity."""

import io
import threading
import time

import pytest

from emunet import trace
from emunet.trace import TraceConfig, matches
from helpers import boot, get_hello, stepped_instance


class TestMatches:
    @pytest.mark.parametrize(
        "pattern,name,expected",
        [
            ("open_eth*", "open_eth_receive", True),
            ("open_eth*", "open_eth", True),
            ("*", "anything", True),
            ("*", "", True),
            ("open_eth", "open_eth_receive", False),
            ("open_eth_mii_*", "open_eth_reg_write", False),
            ("open_eth_mii_*", "open_eth_mii_read", True),
            ("*receive", "open_eth_receive", True),
            ("*receive*", "open_eth_receive_desc", True),
            ("a*a", "a", False),
            ("ab*ab", "abab", True),
            ("ab*ab", "abxab", True),
            ("Open_eth*", "open_eth_receive", False),  # case-sensitive
        ],
    )
    def test_cases(self, pattern, name, expected):
        assert matches(pattern, name) is expected


class TestEmit:
    def test_matched_emit_writes_one_line(self):
        sink = io.StringIO()
        config = trace.enable(["open_eth*"], sink)
        config.emit("open_eth_reg_write", lambda: "reg=MODER value=0x3")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("open_eth_reg_write reg=MODER value=0x3")
        assert "ts=" in lines[0]

    def test_unmatched_callback_never_invoked(self):
        config = trace.enable(["open_eth_mii_*"], io.StringIO())
        invoked = []
        config.emit("open_eth_reg_write", lambda: invoked.append(1) or "x")
        assert not invoked
        assert config.format_calls == 0

    def test_empty_pattern_list_produces_nothing(self):
        sink = io.StringIO()
        config = TraceConfig((), sink)
        for _ in range(100):
            config.emit("open_eth_receive", lambda: "args")
        assert sink.getvalue() == ""
        assert config.format_calls == 0

    def test_plain_string_args(self):
        sink = io.StringIO()
        config = trace.enable(["x*"], sink)
        config.emit("x_event", "k=v")
        assert sink.getvalue().startswith("x_event k=v")
        assert config.format_calls == 0  # string args are not formatter callbacks

    def test_unmatched_emit_cost_within_2x_of_nop(self):
        # Baseline first: the compiled-out analogue is a call to a function
        # that does nothing, with the same arguments built at the call site.
        def nop(name, args):
            return None

        config = TraceConfig(("something_else*",), io.StringIO())
        iterations = 200_000

        def loop(target):
            start = time.perf_counter()
            for i in range(iterations):
                target("open_eth_reg_read", lambda: f"i={i}")
            return time.perf_counter() - start

        # The machine's speed can change between blocks of timing, so nop and
        # emit blocks alternate and each side keeps its fastest block.
        loop(nop)  # warm up
        nop_times, emit_times = [], []
        for _ in range(5):
            nop_times.append(loop(nop))
            emit_times.append(loop(config.emit))
        baseline, measured = min(nop_times), min(emit_times)
        assert config.format_calls == 0
        assert measured <= 2.0 * baseline, f"emit {measured:.3f}s vs nop {baseline:.3f}s"


class TestSinks:
    def test_file_sink(self, tmp_path):
        path = tmp_path / "trace.log"
        config = trace.enable(["ev*"], str(path))
        config.emit("event_one", lambda: "a=1")
        config.sink.close()
        assert path.read_text().startswith("event_one a=1")

    def test_unwritable_sink_is_startup_error(self, tmp_path):
        with pytest.raises(OSError):
            trace.enable(["*"], str(tmp_path / "no" / "such" / "dir" / "t.log"))

    def test_stderr_default(self, capsys):
        config = trace.enable(["ev*"])
        config.emit("event_two", lambda: "b=2")
        assert "event_two b=2" in capsys.readouterr().err

    def test_line_atomicity_under_concurrency(self):
        sink = io.StringIO()
        config = trace.enable(["worker*"], sink)

        def worker(tag):
            for i in range(300):
                config.emit(f"worker_{tag}", lambda tag=tag, i=i: f"tag={tag} i={i}")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1200
        for line in lines:
            fields = line.split()
            assert fields[0].startswith("worker_")
            assert fields[1].startswith("tag=")
            assert fields[2].startswith("i=")
            assert fields[3].startswith("ts=")


class TestDisabledDevice:
    """A device decides once, when it is built, whether its trace points run."""

    @staticmethod
    def _emits_per_request(monkeypatch, config):
        calls = []
        emit = TraceConfig.emit
        def counted(self, name, args=None):
            calls.append(name)
            emit(self, name, args)

        monkeypatch.setattr(TraceConfig, "emit", counted)
        inst = stepped_instance(trace=config)
        boot(inst)
        get_hello(inst)  # warm-up
        calls.clear()
        get_hello(inst)
        return calls, inst

    def test_tracing_off_makes_no_emit_call_per_request(self, monkeypatch):
        calls, inst = self._emits_per_request(monkeypatch, None)
        assert calls == []
        assert not inst.device.tracing and inst.trace.format_calls == 0

    def test_a_pattern_that_matches_nothing_still_formats_nothing(self, monkeypatch):
        config = trace.enable(["usernet_*"], io.StringIO())
        calls, inst = self._emits_per_request(monkeypatch, config)
        assert inst.device.tracing and calls  # the device asks; the config says no
        assert config.format_calls == 0 and config.sink.getvalue() == ""
