"""Guards on the package source: what it may import, and names gone from it."""

import ast
import sys
from pathlib import Path

import emunet

SOURCES = sorted(Path(emunet.__file__).parent.glob("*.py"))

# Object codecs of Ethernet, IPv4, UDP and TCP that the flat frame codecs
# replaced; their oracles live in tests/reference.py.
DELETED_CODECS = {
    "EthernetFrame", "encode_frame", "decode_frame",
    "Ipv4Packet", "encode_ipv4", "decode_ipv4",
    "UdpDatagram", "encode_udp", "decode_udp", "udp_checksum",
    "TcpSegment", "encode_tcp", "decode_tcp",
}


def _trees():
    assert len(SOURCES) > 10  # the glob sees the package
    return [(path.name, ast.parse(path.read_text())) for path in SOURCES]


def test_the_runtime_imports_only_the_standard_library():
    outside = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["emunet" if node.level else node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "emunet" and top not in sys.stdlib_module_names:
                    outside.append((name, module))
    assert outside == []


def test_no_module_defines_or_imports_a_deleted_codec():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(name, n) for n in names if n in DELETED_CODECS]
    assert found == []
