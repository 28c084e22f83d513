"""Multi-instance HTTP latency benchmark.

Spawns N in-process instances, each forwarding host port base_port+i to
guest port 80, and drives an open-loop load: requests leave on a fixed
schedule of `rate` per second per instance for `duration` seconds, and
latency is measured from the scheduled send time so queueing delay under
overload stays visible.

Output: one machine-readable line per request
(`instance=<i> status=<code> latency_us=<n>`), a human table, and a
machine-readable summary block.
"""

from __future__ import annotations

import http.client
import math
import sys
import threading
import time
from dataclasses import dataclass, field

from .guest import GuestConfig
from .harness import Instance
from .usernet import ForwardRule, NicConfig

BODY_EXPECTED = b"Hello World!"


class BenchError(Exception):
    pass


@dataclass
class BenchConfig:
    instances: int = 1
    base_port: int = 8000
    rate: float = 10.0
    duration: float = 5.0
    path: str = "/hello"


@dataclass
class InstanceStats:
    index: int
    port: int
    requests: int
    errors: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float


@dataclass
class BenchReport:
    per_instance: list[InstanceStats] = field(default_factory=list)
    aggregate: InstanceStats | None = None

    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self.per_instance)

    @property
    def total_errors(self) -> int:
        return sum(s.errors for s in self.per_instance)


def _percentile(sorted_samples: list[float], pct: float) -> float:
    """Nearest-rank percentile; monotone in pct by construction."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_samples)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


def _stats(index: int, port: int, samples: list[tuple[int, int, bool]]) -> InstanceStats:
    latencies = sorted(s[1] / 1000.0 for s in samples)
    errors = sum(1 for s in samples if not s[2])
    return InstanceStats(
        index=index,
        port=port,
        requests=len(samples),
        errors=errors,
        p50_ms=_percentile(latencies, 50),
        p95_ms=_percentile(latencies, 95),
        p99_ms=_percentile(latencies, 99),
        max_ms=latencies[-1] if latencies else 0.0,
    )


def _mac_for(index: int) -> str:
    return f"52:54:00:12:34:{(0x56 + index) & 0xFF:02x}"


def bench(config: BenchConfig, out=None) -> BenchReport:
    """Run the benchmark; raises BenchError if any instance fails to boot."""
    if out is None:
        out = sys.stdout
    instances: list[Instance] = []
    ports = [config.base_port + i for i in range(config.instances)]
    try:
        for i, port in enumerate(ports):
            nic = NicConfig(
                model="open_eth",
                id=f"bench{i}",
                forwards=[ForwardRule("tcp", "", port, "", 80)],
            )
            inst = Instance(
                GuestConfig(mac=_mac_for(i)),
                nic,
                log=lambda _line: None,  # guest stdout is not interesting under load
                name=f"bench{i}",
            )
            try:
                inst.start()
            except OSError as exc:
                raise BenchError(f"instance {i} failed to boot: port {port}: {exc}") from exc
            instances.append(inst)

        deadline = time.monotonic() + 5.0
        for i, inst in enumerate(instances):
            while inst.guest.ip is None:
                if time.monotonic() > deadline:
                    raise BenchError(f"instance {i} failed to boot: no DHCP lease")
                time.sleep(0.005)

        per_request: list[list[tuple[int, int, bool]]] = [[] for _ in ports]
        record_lock = threading.Lock()
        request_threads: list[threading.Thread] = []
        total_per_instance = max(1, int(config.rate * config.duration))

        def do_request(index: int, port: int, scheduled: float) -> None:
            status = 0
            ok = False
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                conn.request("GET", config.path)
                resp = conn.getresponse()
                body = resp.read()
                conn.close()
                status = resp.status
                ok = status == 200 and body == BODY_EXPECTED
            except OSError:
                ok = False
            latency_us = max(0, int((time.monotonic() - scheduled) * 1_000_000))
            with record_lock:
                per_request[index].append((status, latency_us, ok))
                out.write(f"instance={index} status={status} latency_us={latency_us}\n")

        def schedule_loop(index: int, port: int, start: float) -> None:
            for k in range(total_per_instance):
                scheduled = start + k / config.rate
                delay = scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                worker = threading.Thread(
                    target=do_request, args=(index, port, scheduled), daemon=True
                )
                worker.start()
                request_threads.append(worker)

        start = time.monotonic() + 0.05
        schedulers = [
            threading.Thread(target=schedule_loop, args=(i, port, start), daemon=True)
            for i, port in enumerate(ports)
        ]
        for t in schedulers:
            t.start()
        for t in schedulers:
            t.join()
        for t in request_threads:
            t.join(timeout=15)
    finally:
        for inst in instances:
            inst.stop()

    report = BenchReport()
    all_samples: list[tuple[int, int, bool]] = []
    for i, port in enumerate(ports):
        report.per_instance.append(_stats(i, port, per_request[i]))
        all_samples.extend(per_request[i])
    report.aggregate = _stats(-1, 0, all_samples)

    out.write(
        f"{'instance':>8} {'port':>6} {'requests':>8} {'errors':>6} "
        f"{'p50_ms':>8} {'p95_ms':>8} {'p99_ms':>8} {'max_ms':>8}\n"
    )
    for s in report.per_instance:
        out.write(
            f"{s.index:>8} {s.port:>6} {s.requests:>8} {s.errors:>6} "
            f"{s.p50_ms:>8.2f} {s.p95_ms:>8.2f} {s.p99_ms:>8.2f} {s.max_ms:>8.2f}\n"
        )
    agg = report.aggregate
    out.write("# summary\n")
    for s in report.per_instance:
        out.write(
            f"instance={s.index} port={s.port} requests={s.requests} errors={s.errors} "
            f"p50_ms={s.p50_ms:.3f} p95_ms={s.p95_ms:.3f} p99_ms={s.p99_ms:.3f} "
            f"max_ms={s.max_ms:.3f}\n"
        )
    out.write(
        f"aggregate requests={agg.requests} errors={agg.errors} "
        f"p50_ms={agg.p50_ms:.3f} p95_ms={agg.p95_ms:.3f} p99_ms={agg.p99_ms:.3f} "
        f"max_ms={agg.max_ms:.3f}\n"
    )
    return report
