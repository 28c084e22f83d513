"""Instance assembly and the run command.

One Instance owns one event loop carrying a guest, its MAC device and the
guest-facing side of a NAT stack.  Frames cross the device boundary as the
bytes the device reads and writes, each encoded once.  They move in a
pump: NAT output is delivered to the device, the asserted IRQ line wakes
the guest, guest transmissions land back in the NAT stack, and the pump
repeats until the instance is quiescent; then the NAT sends what the guest
sent to the host.  The loop's one thread also serves every host socket of
the instance.

An Instance that was never ``start()``ed starts no thread and binds no
port: a caller can post ``_boot`` and step ``loop.run_once`` on its own
thread, and the idle hook pumps exactly as it does under ``start()``.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import flashimg
from .device import GuestMemory, MacDevice
from .eventloop import EventLoop
from .guest import GuestConfig, GuestStack
from .trace import NULL_TRACE, TraceConfig
from .usernet import NicConfig, UserNetStack

_PUMP_BOUND = 10_000  # safety valve; an 8 MiB echo polls the NAT at most 10 times per pump


def pump(usernet: UserNetStack, device: MacDevice, guest: GuestStack) -> None:
    """Pump NAT output and guest interrupt work until quiescent.

    Raises RuntimeError if frames still move after ``_PUMP_BOUND`` rounds.
    """
    for _ in range(_PUMP_BOUND):
        frames = usernet.poll_frames_out()
        if frames:
            for frame in frames:
                device.receive(frame)
                if device.irq_asserted:
                    guest.stack_step()
            continue
        if device.irq_asserted:
            guest.stack_step()
            continue
        return
    raise RuntimeError("pump did not quiesce")


@dataclass
class RunConfig:
    drive_file: str
    nic: NicConfig
    machine: str = "esp32"
    trace_patterns: tuple[str, ...] = ()
    trace_file: str | None = None
    nographic: bool = False


class Instance:
    """One emulated machine: guest + device + NAT stack on one loop."""

    def __init__(
        self,
        guest_config: GuestConfig,
        nic_config: NicConfig,
        trace: TraceConfig | None = None,
        log=print,
        name: str = "esp0",
    ):
        self.name = name
        self.trace = trace if trace is not None else NULL_TRACE
        self.loop = EventLoop(idle_hook=self._settle)
        self.memory = GuestMemory()
        self.device = MacDevice(self.memory, backend_send=self._frame_from_guest, trace=self.trace)
        self.usernet = UserNetStack(nic_config, self.loop)
        self.guest = GuestStack(self.device, self.memory, guest_config, log, self.loop.call_later)
        self._started = False

    def _frame_from_guest(self, raw: bytes) -> None:
        self.usernet.guest_frame_in(raw)

    def _settle(self) -> None:
        pump(self.usernet, self.device, self.guest)
        self.usernet.send_to_host()

    def start(self) -> None:
        """Bind forwarded listeners, start the loop, boot the guest."""
        self.usernet.start()  # raises OSError if a host port is taken
        self.loop.start(name=f"loop-{self.name}")
        self.loop.post(self._boot)
        self._started = True

    def _boot(self) -> None:
        self.device.reset()
        self.guest.start()

    def stop(self) -> None:
        if self._started:
            self.loop.stop()
            self.loop.join(timeout=5)
            self._started = False
        self.usernet.stop()  # after the loop: its selector is not thread-safe


def instance_from_image(
    image: bytes,
    nic_config: NicConfig,
    trace: TraceConfig | None = None,
    log=print,
    name: str = "esp0",
) -> Instance:
    """Validate a merged flash image and build the instance it configures."""
    config_dict, _entries = flashimg.boot_payload(image)
    guest_config = GuestConfig.from_dict(config_dict)
    return Instance(guest_config, nic_config, trace=trace, log=log, name=name)


def run(config: RunConfig, stop_event: threading.Event | None = None) -> int:
    """Boot and serve until interrupted.  Returns the process exit status."""
    from . import trace as trace_mod

    try:
        image = Path(config.drive_file).read_bytes()
    except OSError as exc:
        print(f"emunet: cannot read drive file: {exc}", flush=True)
        return 1

    try:
        trace_config = trace_mod.enable(
            config.trace_patterns, config.trace_file if config.trace_file else "stderr"
        )
    except OSError as exc:
        print(f"emunet: cannot open trace file: {exc}", flush=True)
        return 1

    def _stdout_log(line: str) -> None:
        print(line, flush=True)  # guest stdout must survive pipe buffering

    try:
        instance = instance_from_image(image, config.nic, trace=trace_config, log=_stdout_log)
    except (flashimg.FlashError, ValueError) as exc:
        print(f"emunet: invalid flash image: {exc}", flush=True)
        return 1

    try:
        instance.start()
    except OSError as exc:
        print(f"emunet: cannot bind forwarded port: {exc}", flush=True)
        return 1

    stop = stop_event or threading.Event()

    def _signal(_signum, _frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _signal)
        except ValueError:
            pass  # not on the main thread (tests drive stop_event instead)

    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        instance.stop()
    return 0
