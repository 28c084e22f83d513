"""emunet loopback benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts a fresh system process (``perfbench/system.py``) that boots
emunet instances from a merged flash image on fresh loopback ports, then
drives it from this process with the ``perfbench/loadgen.py`` clients.  All
traffic crosses the host's loopback interface.  Every reply is checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
same workload untraced and then, in a second fresh system process, with
every layer wrapped in spans (``perfbench/spans.py``); it reports the
per-layer metrics and the tracing overhead (traced minus untraced).

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
print each metric by name with its unit, the error rate and provenance.
A full record of the run goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import loadgen, spans  # noqa: E402

HTTP_INSTANCES = 4
HTTP_RATE = 60.0  # requests/s per instance: about a third of one core in all
PING_SIZE = 64
BULK_SIZE = 8 * 1024 * 1024
BULK_CHUNK = 64 * 1024
WATCHDOG_S = 85.0  # per system process; a traced run starts two


# name: (guest mode, instances, set-up rounds, windows per run).  Each
# window metric is reported as its trimmed mean over the windows (see
# loadgen.trimmed_mean).  Short windows for the fast workloads; a bulk
# window must hold several 8 MiB transfers.
WORKLOADS = {
    "http_open": ("http", HTTP_INSTANCES, 11, 25),
    "echo_pingpong": ("echo", 1, 31, 25),
    "echo_bulk": ("echo", 1, 31, 5),
}

E2E_UNITS = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "goodput_MBps": "MB/s",
    "rss_MB": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class SystemProcess:
    """A fresh emunet process on fresh ports, driven over a JSON-lines pipe."""

    def __init__(self, workload: str, trace: bool, spans_file: Path):
        mode, instances, rounds, _windows = WORKLOADS[workload]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.system"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.watchdog = threading.Timer(WATCHDOG_S, self.proc.kill)
        self.watchdog.start()
        self.ready = self.request({
            "mode": mode, "instances": instances, "setup_rounds": rounds,
            "trace": trace, "spans_file": str(spans_file),
        })

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"system process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.watchdog.cancel()
        self.watchdog.join()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def drive(
    workload: str, seed: int, seconds: float, ports: list[int], conn, warmup: bool = False
) -> loadgen.Result:
    """One client run on inputs made from ``seed``; ``conn`` is the ping-pong connection."""
    if workload == "http_open":
        schedule = loadgen.poisson_schedule(seed, HTTP_RATE, len(ports), 0.5 if warmup else seconds)
        return loadgen.run_http_open(ports, schedule, max_inflight=nproc())
    if workload == "echo_pingpong":
        messages = loadgen.pingpong_messages(seed, size=PING_SIZE)
        return loadgen.run_echo_pingpong(conn, messages, 0.3 if warmup else seconds)
    payload = loadgen.bulk_payload(seed, BULK_SIZE // 16 if warmup else BULK_SIZE)
    return loadgen.run_echo_bulk(ports[0], payload, BULK_CHUNK, 0.0 if warmup else seconds)


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Warm up a fresh system process, then measure its windows back to back.

    Window ``w`` runs on inputs from seed ``seed * 100 + w``; the warm-up
    uses ``seed * 100 + 99``.  The system's CPU time is read after each window.
    """
    spans_file = out_dir / f"{workload}-seed{seed}-spans.jsonl"
    system = SystemProcess(workload, trace, spans_file)
    count = WORKLOADS[workload][3]
    windows = []
    conn = None
    try:
        ports = system.ready["ports"]
        if workload == "echo_pingpong":
            conn = loadgen.connect(ports[0])  # one connection for the whole run
        warm = drive(workload, seed * 100 + 99, seconds, ports, conn, warmup=True)
        cpu = system.request({"cmd": "start"})["cpu_s"]
        for w in range(count):
            result = drive(workload, seed * 100 + w, seconds / count, ports, conn)
            now = system.request({"cmd": "mark"})["cpu_s"]
            windows.append((result, now - cpu))
            cpu = now
        report = system.request({"cmd": "stop"})
    finally:
        if conn is not None:
            conn.close()
        system.close()
    return {"setup_s": report["setup_s"], "warmup": warm, "windows": windows, "report": report}


def window_metrics(result: loadgen.Result, cpu_s: float) -> dict[str, float]:
    lat = result.latencies_s
    if not lat:
        return {}
    return {
        "lat_p50_ms": loadgen.percentile(lat, 50) * 1e3,
        "lat_p90_ms": loadgen.percentile(lat, 90) * 1e3,
        "lat_p99_ms": loadgen.percentile(lat, 99) * 1e3,
        "cpu_ms_per_op": cpu_s * 1e3 / len(lat),
        "goodput_MBps": result.payload_bytes / result.elapsed_s / 1e6,
    }


def e2e_metrics(run: dict) -> dict[str, float]:
    """Each window metric as its trimmed mean over the windows, plus set-up and memory."""
    per_window = [window_metrics(result, cpu) for result, cpu in run["windows"]]
    metrics = {"setup_s": statistics.median(run["setup_s"])}
    for name in ("lat_p50_ms", "lat_p90_ms", "lat_p99_ms", "cpu_ms_per_op", "goodput_MBps"):
        values = [m[name] for m in per_window if m]
        metrics[name] = loadgen.trimmed_mean(values) if values else float("nan")
    metrics["rss_MB"] = run["report"]["maxrss_kib"] / 1024
    return metrics


def ops(run: dict) -> int:
    return sum(len(result.latencies_s) for result, _cpu in run["windows"])


def named_lines(workload: str, run: dict, e2e: dict[str, float]) -> list[str]:
    """The metrics under their workload-specific names, for people reading the output."""
    lines = []
    if workload == "http_open":
        lags = [lag for result, _cpu in run["windows"] for lag in result.lags_s]
        lines += [
            f"req_p50_ms {e2e['lat_p50_ms']:.4f} ms",
            f"req_p90_ms {e2e['lat_p90_ms']:.4f} ms",
            f"req_p99_ms {e2e['lat_p99_ms']:.4f} ms",
            f"req_cpu_ms {e2e['cpu_ms_per_op']:.4f} ms",
            f"generator_lag_p50_ms {loadgen.percentile(lags, 50) * 1e3:.4f} ms",
            f"generator_lag_p99_ms {loadgen.percentile(lags, 99) * 1e3:.4f} ms",
            f"generator_lag_max_ms {max(lags) * 1e3:.4f} ms",
        ]
    elif workload == "echo_pingpong":
        lines += [
            f"rtt_p50_us {e2e['lat_p50_ms'] * 1e3:.2f} us",
            f"rtt_p90_us {e2e['lat_p90_ms'] * 1e3:.2f} us",
            f"rtt_p99_us {e2e['lat_p99_ms'] * 1e3:.2f} us",
            f"msgs_per_s {e2e['goodput_MBps'] * 1e6 / PING_SIZE:.1f} 1/s",
        ]
    else:
        lines += [
            f"chunk_p50_ms {e2e['lat_p50_ms']:.2f} ms (one {BULK_CHUNK // 1024} KiB chunk)",
            f"chunk_p90_ms {e2e['lat_p90_ms']:.2f} ms",
        ]
    lines += [
        f"goodput_MBps {e2e['goodput_MBps']:.6f} MB/s",
        f"rss_MB {e2e['rss_MB']:.2f} MB",
        f"setup_s {e2e['setup_s']:.6f} s (median of {len(run['setup_s'])})",
    ]
    return lines


def tally(runs: list[dict]) -> tuple[int, int, bool]:
    """Attempted and failed operations over all client runs, and whether every reply was right.

    An exception on an instance's event loop counts as a failed operation.
    """
    attempted = failed = 0
    correct = True
    for run in runs:
        for res in [run["warmup"]] + [result for result, _cpu in run["windows"]]:
            attempted += res.attempted
            failed += res.failed
            correct &= res.wrong == 0
        errors = run["report"]["loop_errors_total"]
        failed += errors
        attempted += errors
        correct &= ops(run) > 0
        correct &= run["report"]["counters"]["format_calls"] == 0
    return attempted, failed, correct


def record(out_dir: Path, args, provenance: dict, runs: list[dict], metrics: dict) -> None:
    def plain(res: loadgen.Result) -> dict:
        return {
            "attempted": res.attempted, "failed": res.failed, "wrong": res.wrong,
            "ops": len(res.latencies_s), "payload_bytes": res.payload_bytes,
            "elapsed_s": res.elapsed_s,
        }

    body = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance, "metrics": metrics,
        "runs": [
            {
                "report": run["report"], "warmup": plain(run["warmup"]),
                "windows": [
                    dict(plain(result), cpu_s=cpu, metrics=window_metrics(result, cpu))
                    for result, cpu in run["windows"]
                ],
            }
            for run in runs
        ],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emunet" / "__init__.py").is_file():
        print(f"perfbench: no emunet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    provenance = {
        "commit": commit(), "python": platform.python_version(), "nproc": nproc(),
        "network": "host loopback interface (127.0.0.1)",
    }
    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    plain = measure(args.workload, args.seed, args.seconds, False, out_dir)
    runs = [plain]
    e2e = e2e_metrics(plain)
    for line in named_lines(args.workload, plain, e2e):
        print(line)
    if args.trace:
        traced = measure(args.workload, args.seed, args.seconds, True, out_dir)
        runs.append(traced)
        traced_e2e = e2e_metrics(traced)
        layers = spans.layer_metrics(traced["report"], ops(traced))
        for name in ("lat_p50_ms", "lat_p90_ms", "cpu_ms_per_op"):
            layers[f"tracing.overhead_{name}"] = (traced_e2e[name] - e2e[name], "ms")
        layers["tracing.overhead_goodput_MBps"] = (
            traced_e2e["goodput_MBps"] - e2e["goodput_MBps"], "MB/s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    attempted, failed, correct = tally(runs)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"error_rate {failed / attempted if attempted else 1.0} ({failed} failed of {attempted} attempted)")
    record(out_dir, args, provenance, runs, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
