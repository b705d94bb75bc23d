#!/usr/bin/env python3
"""Naming rule of the sampling profiler, tools/sample_profile.py.

    sample_profile_contract.py

In a shared library without debug info, addr2line names an address after
the nearest exported symbol below it, however far past that symbol's end
the address lies. The profiler keeps such a name only when the address
falls inside the symbol's size and names it LIBRARY+0xOFFSET otherwise.
This checks that rule on a synthetic symbol table, then reads the real
table of the libc this interpreter runs on.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "sample_profile", ROOT / "tools" / "sample_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mapped_libc():
    """Path of the libc mapped into this process, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "/libc.so" in path or "/libc-" in path:
                return path
    return None


def main():
    tool = load_tool()
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    # Two sized symbols with a gap between them, as in libc.
    symbols = [(0x96030, 0x96063, "__default_morecore"),
               (0x152040, 0x15204D, "__nss_database_lookup")]
    resolve = tool.resolve_unsized
    expect("inside the first symbol", resolve(symbols, 0x96030, "__default_morecore", "libc.so.6"),
           "__default_morecore")
    expect("last byte of the first symbol",
           resolve(symbols, 0x96062, "__default_morecore", "libc.so.6"), "__default_morecore")
    expect("one past the first symbol",
           resolve(symbols, 0x96063, "__default_morecore", "libc.so.6"), "libc.so.6+0x96063")
    expect("far past the first symbol",
           resolve(symbols, 0x98109, "__default_morecore", "libc.so.6"), "libc.so.6+0x98109")
    expect("inside the second symbol",
           resolve(symbols, 0x152044, "__nss_database_lookup", "libc.so.6"),
           "__nss_database_lookup")
    expect("past the last symbol",
           resolve(symbols, 0x16db75, "__nss_database_lookup", "libc.so.6"), "libc.so.6+0x16db75")
    expect("below every symbol", resolve(symbols, 0x10, "_init", "libc.so.6"), "libc.so.6+0x10")
    expect("no symbol table keeps the name", resolve([], 0x98109, "malloc", "libc.so.6"), "malloc")

    libc = mapped_libc()
    if libc is not None:
        table = tool.read_symbol_sizes(libc)
        if not table:
            failures.append(f"{libc}: no sized dynamic symbols read")
        elif table != sorted(table) or any(end <= start for start, end, _ in table):
            failures.append(f"{libc}: symbol extents not sorted and positive")
        elif any("@" in name for _, _, name in table):
            failures.append(f"{libc}: version suffixes left on symbol names")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"sample_profile_contract: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
