"""CLI: flag grammar, exit codes, flash subcommands, run lifecycle."""

import signal
import subprocess
import sys
import time

import pytest

from emunet import flashimg, harness
from emunet.bench import BenchConfig
from emunet.cli import main, parse_cli
from helpers import free_port, http_get, wait_for

RUN_ARGS = [
    "run", "-nographic", "-machine", "esp32",
    "-nic", "user,model=open_eth,id=lo0,hostfwd=tcp::8000-:80",
    "-drive", "file=merged.bin,if=mtd,format=raw",
]


class TestParseRun:
    def test_full_launch_command(self):
        config = parse_cli(RUN_ARGS)
        assert isinstance(config, harness.RunConfig)
        assert config.machine == "esp32"
        assert config.drive_file == "merged.bin"
        assert config.nographic
        assert config.nic.id == "lo0"
        assert config.nic.forwards[0].host_port == 8000
        assert config.nic.forwards[0].guest_port == 80

    def test_trace_flags(self):
        config = parse_cli(RUN_ARGS + ["--trace", "open_eth*", "--trace", "dma*",
                                       "--trace-file", "t.log"])
        assert config.trace_patterns == ("open_eth*", "dma*")
        assert config.trace_file == "t.log"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "-machine", "pdp11", "-drive", "file=x,if=mtd,format=raw"],
            ["run", "-machine", "esp32"],  # missing drive
            ["run", "-drive", "file=x,if=ide,format=raw"],
            ["run", "-drive", "file=x,if=mtd,format=qcow2"],
            ["run", "-drive", "file=x,if=mtd,format=raw", "-nic", "user,model=rtl8139"],
            ["run", "-drive", "file=x,if=mtd,format=raw", "-s"],
            ["run", "-drive", "file=x,if=mtd,format=raw", "--bogus"],
            ["frobnicate"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(argv)
        assert excinfo.value.code == 2

    def test_gdb_stub_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["run", "-drive", "file=x,if=mtd,format=raw", "-s"])
        assert "unsupported" in capsys.readouterr().err

    def test_udp_forward_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(["run", "-drive", "file=x,if=mtd,format=raw",
                       "-nic", "user,model=open_eth,hostfwd=udp::5000-:5000"])
        assert excinfo.value.code == 2
        assert "udp forwarding is not supported" in capsys.readouterr().err


class TestParseBench:
    def test_field_mapping(self):
        config = parse_cli(["bench", "--instances", "4", "--base-port", "8000",
                            "--rate", "50", "--duration", "5"])
        assert config == BenchConfig(instances=4, base_port=8000, rate=50.0, duration=5.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--rate", "0"],
            ["bench", "--instances", "0"],
            ["bench", "--duration", "0"],
            ["bench", "--base-port", "65530", "--instances", "10"],
        ],
    )
    def test_degenerate_inputs_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(argv)
        assert excinfo.value.code == 2


@pytest.fixture(scope="module")
def sample_image(tmp_path_factory):
    """Build bootloader/app/image files through the CLI entry point."""
    root = tmp_path_factory.mktemp("image")
    boot = root / "boot.bin"
    boot.write_bytes(b"\x7fBOOTCODE" * 64)
    app = root / "app.bin"
    assert main(["flash", "gen-app", "--out", str(app)]) == 0
    image = root / "merged.bin"
    assert main([
        "flash", "merge", "--bootloader", str(boot), "--app", str(app),
        "--gen-table", "nvs,data,0x9000,0x6000;factory,app,0x10000,0x100000",
        "--out", str(image),
    ]) == 0
    return image


class TestFlashCli:
    def test_gen_app_payload_valid(self, tmp_path):
        out = tmp_path / "app.bin"
        assert main(["flash", "gen-app", "--out", str(out), "--mode", "echo",
                     "--mac", "52:54:00:00:00:09"]) == 0
        config = flashimg.decode_app_payload(out.read_bytes())
        assert config["mode"] == "echo"
        assert config["mac"] == "52:54:00:00:00:09"

    def test_merge_and_inspect(self, sample_image, capsys):
        assert main(["flash", "inspect", str(sample_image)]) == 0
        out = capsys.readouterr().out
        assert "table: 2 entries" in out
        assert out.count("segment ") == 4  # bootloader, table, nvs, factory

    def test_inspect_erased_image_fails(self, tmp_path, capsys):
        blank = tmp_path / "blank.bin"
        blank.write_bytes(b"\xff" * flashimg.DEFAULT_FLASH_SIZE)
        assert main(["flash", "inspect", str(blank)]) == 1
        assert "no table found" in capsys.readouterr().err

    def test_merge_rejects_bad_app(self, tmp_path, capsys):
        boot = tmp_path / "b.bin"
        boot.write_bytes(b"\x7f")
        bad_app = tmp_path / "a.bin"
        bad_app.write_bytes(b"\x00nope")
        out = tmp_path / "m.bin"
        assert main(["flash", "merge", "--bootloader", str(boot), "--app", str(bad_app),
                     "--gen-table", "factory,app,0x10000,0x100000", "--out", str(out)]) == 1
        assert "magic" in capsys.readouterr().err

    def test_merge_with_table_file(self, tmp_path, capsys):
        boot = tmp_path / "b.bin"
        boot.write_bytes(b"\x7fB")
        app = tmp_path / "a.bin"
        main(["flash", "gen-app", "--out", str(app)])
        table_file = tmp_path / "table.bin"
        table_file.write_bytes(flashimg.serialize_partition_table([
            flashimg.PartitionEntry(type=0, subtype=0, offset=0x10000, size=0x100000, label="factory"),
        ]))
        out = tmp_path / "m.bin"
        assert main(["flash", "merge", "--bootloader", str(boot), "--table", str(table_file),
                     "--app", str(app), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["flash", "inspect", str(out)]) == 0
        assert "table: 1 entries" in capsys.readouterr().out

    def test_custom_layout(self, tmp_path):
        boot = tmp_path / "b.bin"
        boot.write_bytes(b"\x7fB")
        app = tmp_path / "a.bin"
        main(["flash", "gen-app", "--out", str(app)])
        out = tmp_path / "m.bin"
        assert main([
            "flash", "merge", "--bootloader", str(boot), "--app", str(app),
            "--gen-table", "factory,app,0x20000,0x80000",
            "--layout", "0x2000,0x10000,0x20000,0x200000",
            "--out", str(out),
        ]) == 0
        assert len(out.read_bytes()) == 0x200000


class TestRunCommand:
    def test_invalid_image_exits_1_before_binding(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff" * flashimg.DEFAULT_FLASH_SIZE)
        port = free_port()
        code = main([
            "run", "-machine", "esp32",
            "-nic", f"user,model=open_eth,hostfwd=tcp::{port}-:80",
            "-drive", f"file={bad},if=mtd,format=raw",
        ])
        assert code == 1
        assert "invalid flash image" in capsys.readouterr().out
        # the forwarded port was never bound
        import socket

        probe = socket.socket()
        probe.bind(("", port))
        probe.close()

    def test_missing_drive_file_exits_1(self, capsys):
        code = main(["run", "-drive", "file=/does/not/exist.bin,if=mtd,format=raw"])
        assert code == 1
        assert "cannot read drive" in capsys.readouterr().out

    def test_port_in_use_exits_1(self, sample_image, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main([
                "run",
                "-nic", f"user,model=open_eth,hostfwd=tcp::{port}-:80",
                "-drive", f"file={sample_image},if=mtd,format=raw",
            ])
            assert code == 1
            assert "cannot bind" in capsys.readouterr().out
        finally:
            blocker.close()


def spawn_run(image, port, extra=()):
    args = [
        sys.executable, "-m", "emunet", "run", "-nographic", "-machine", "esp32",
        "-nic", f"user,model=open_eth,id=lo0,hostfwd=tcp::{port}-:80",
        "-drive", f"file={image},if=mtd,format=raw", *extra,
    ]
    return subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, bufsize=1
    )


def read_until(stream, needle, timeout=10.0):
    lines = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            time.sleep(0.01)
            continue
        lines.append(line.rstrip("\n"))
        if needle in lines[-1]:
            return lines
    raise AssertionError(f"never saw {needle!r}; got {lines}")


class TestRunSubprocess:
    def test_boot_serve_sigint_lifecycle(self, sample_image):
        port = free_port()
        proc = spawn_run(sample_image, port)
        try:
            lines = read_until(proc.stdout, "listening on port 80")
            assert any("bound to 10.0.2.15" in line for line in lines)
            status, body = http_get(port)
            assert (status, body) == (200, b"Hello World!")
            read_until(proc.stdout, "served GET /hello")
            assert proc.poll() is None  # stays alive after serving
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=5)

    def test_sigint_while_idle_exits_0(self, sample_image):
        port = free_port()
        proc = spawn_run(sample_image, port)
        try:
            read_until(proc.stdout, "listening on port 80")
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=5)
