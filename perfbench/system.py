"""System process: boots emunet instances from a merged flash image and serves.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.system`` with the
repository's ``src`` on ``PYTHONPATH``.  It speaks one JSON object per line:
the first stdin line is the configuration, after which it answers
``start`` (begin measuring), ``mark`` (report the process's CPU time so
far) and ``stop`` (report everything, exit).
Nothing else is written to stdout; guest console lines are discarded.
"""

from __future__ import annotations

import json
import resource
import socket
import sys
import threading
import time

from emunet import flashimg
from emunet.guest import GuestConfig
from emunet.harness import Instance, instance_from_image
from emunet.trace import NULL_TRACE
from emunet.usernet import ForwardRule, NicConfig

GUEST_PORT = 80
BOOT_TIMEOUT_S = 10.0


def merged_image(mode: str, index: int) -> bytes:
    """A bootable image: placeholder bootloader, one app partition, guest config."""
    mac = f"52:54:00:12:34:{(0x56 + index) & 0xFF:02x}"
    app = flashimg.encode_app_payload(GuestConfig(mac=mac, mode=mode).to_dict())
    table = [
        flashimg.PartitionEntry(
            type=flashimg.PARTITION_TYPE_APP, subtype=0,
            offset=flashimg.DEFAULT_APP_OFFSET, size=0x100000, label="factory",
        )
    ]
    return flashimg.merge(b"\x7fBOOT" * 64, table, app).raw


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def boot(images: list[bytes]) -> tuple[list[Instance], list[int], float]:
    """Build and start one instance per image on fresh ports.

    Returns the instances, their forwarded host ports and the time from
    parsing the first image until every guest logged its DHCP lease.
    """
    ports = [free_port() for _ in images]
    bound = [threading.Event() for _ in images]
    instances = []
    t0 = time.perf_counter()
    for i, (image, port, event) in enumerate(zip(images, ports, bound)):
        nic = NicConfig(
            model="open_eth", id=f"bench{i}",
            forwards=[ForwardRule("tcp", "127.0.0.1", port, "", GUEST_PORT)],
        )

        def log(line: str, event=event) -> None:
            if line.startswith("bound to "):
                event.set()

        inst = instance_from_image(image, nic, log=log, name=f"bench{i}")
        inst.start()
        instances.append(inst)
    for i, event in enumerate(bound):
        if not event.wait(BOOT_TIMEOUT_S):
            raise RuntimeError(f"instance {i} got no DHCP lease within {BOOT_TIMEOUT_S} s")
    return instances, ports, time.perf_counter() - t0


def counters(instances: list[Instance]) -> dict[str, int]:
    """Counters the program already keeps, summed over instances."""
    return {
        "loop_errors": sum(i.loop.errors for i in instances),
        "rx_frames": sum(i.device.rx_accept_count for i in instances),
        "tx_frames": sum(i.device.tx_frame_count for i in instances),
        "usernet_drops": sum(sum(i.usernet.drop_counts.values()) for i in instances),
        "guest_drops": sum(
            sum(i.guest.drop_counts.values()) + i.guest.driver.tx_full_drops for i in instances
        ),
        "format_calls": NULL_TRACE.format_calls,
    }


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    config = json.loads(sys.stdin.readline())
    tracer = None
    if config["trace"]:
        from perfbench import spans

        tracer = spans.install()
    images = [merged_image(config["mode"], i) for i in range(config["instances"])]
    instances, ports, first = boot(images)
    every = list(instances)
    send({"event": "ready", "ports": ports})

    for line in sys.stdin:
        cmd = json.loads(line)["cmd"]
        if cmd == "start":
            boot_totals = {}
            if tracer is not None:
                boot_totals = tracer.totals()
                tracer.reset()
            before = counters(every)
            cpu0 = time.process_time()
            send({"event": "started", "cpu_s": cpu0})
        elif cmd == "mark":
            send({"event": "mark", "cpu_s": time.process_time()})
        elif cmd == "stop":
            cpu = time.process_time() - cpu0
            after = counters(every)
            report = {
                "event": "stats",
                "cpu_s": cpu,
                # read before the set-up rounds below, which leak memory
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "counters": {k: after[k] - before[k] for k in after},
            }
            if tracer is not None:
                report["layers"] = tracer.totals()
                report["waits_ns"] = tracer.wait_summary()
                tracer.write_spans(config["spans_file"])
                tracer.reset()
            for inst in instances:
                inst.stop()
            # More set-up rounds, timed after the measured windows so their
            # cost stays out of them.  A stopped instance keeps its hostfwd
            # listener bound (and itself alive), so each round takes fresh
            # ports and its memory is not returned.
            setups = [first]
            for _ in range(config["setup_rounds"] - 1):
                extra, _ports, seconds = boot(images)
                every.extend(extra)
                setups.append(seconds)
                for inst in extra:
                    inst.stop()
            report["setup_s"] = setups
            report["loop_errors_total"] = counters(every)["loop_errors"]
            if tracer is not None:
                report["boot"] = spans.merge_totals(boot_totals, tracer.totals())
            send(report)
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
