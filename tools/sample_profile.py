#!/usr/bin/env python3
"""Sampling profile of one command: where its main thread spends wall time.

    sample_profile.py [--allocs] [--by inner|outer|line] [--top N]
                      [--frame REGEX] [--min-samples N] -- COMMAND [ARG...]

Builds tools/sample_profile/sampler.cpp into a temporary LD_PRELOAD
module, runs COMMAND under it with one sample every 100 us (the command's stdout goes to stderr, so
stdout carries only the profile), then symbolizes every sampled address
with `addr2line -a -f -i -C` and prints the top N rows:

--by inner   the innermost frame, inlined callees included (default):
             the code that was running.
--by outer   the function the compiler emitted, after inlining: the
             frame a caller-side change would move.
--by line    the innermost frame's source line.

Function names need symbols and source lines need debug info, so
profile a build configured with -DCMAKE_BUILD_TYPE=RelWithDebInfo
(the same -O2 as Release, plus -g). Every process the command starts
inherits the module, and their samples are pooled.

In a shared library without debug info (libc), addr2line names an
address after the nearest exported symbol below it, however far past
that symbol's end the address lies. Such a frame keeps the name only
when the address falls inside the symbol's size (read with `nm -D -S`);
otherwise it reads MODULE+0xOFFSET, e.g. `libc.so.6+0x9b2c1`.

--allocs         count calls to operator new by calling address
                 instead of sampling time: builds
                 tools/sample_profile/allocs.cpp as the LD_PRELOAD
                 module, which replaces every form of the global
                 operator new, counts each call against its return
                 address in every thread, and allocates with malloc.
                 Rows, --frame and --min-samples then count
                 allocations; --by outer names the function that
                 called operator new.
--frame REGEX    also print the share of samples with any frame of
                 their inline stack matching REGEX: the inclusive cost
                 of a function wherever the compiler inlined it.
                 Repeatable, one line each.
--min-samples N  exit 1 when fewer than N samples were taken.

Exit codes: 0 profile printed, 1 too few samples, 2 the module could
not be built, the command failed, or addr2line is missing.
"""

import argparse
import bisect
import collections
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MODULE_DIR = Path(__file__).resolve().parent / "sample_profile"
HEADER = re.compile(r"# sample_profile 1 samples=\d+ dropped=(\d+)")
PERIOD_US = 100  # kPeriodUs in sampler.cpp
DISCRIMINATOR = re.compile(r" \(discriminator \d+\)$")


def fail(message):
    print(f"sample_profile: {message}", file=sys.stderr)
    sys.exit(2)


def build_module(workdir, name):
    module = os.path.join(workdir, f"{name}.so")
    cxx = os.environ.get("CXX", "c++")
    cmd = [cxx, "-std=c++17", "-O2", "-shared", "-fPIC", "-o", module,
           str(MODULE_DIR / f"{name}.cpp"), "-ldl", "-lrt"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"building the {name} module failed:\n{result.stderr}")
    return module


def read_samples(prefix):
    """Pools every process's file: {(module, offset): count}, dropped."""
    counts = collections.Counter()
    dropped = 0
    files = sorted(glob.glob(prefix + ".*"))
    for path in files:
        with open(path) as f:
            header = HEADER.match(f.readline())
            if header is None:
                fail(f"{path}: not a sample file")
            dropped += int(header.group(1))
            for line in f:
                count, module, offset = line.rstrip("\n").split("\t")
                counts[(module, offset)] += int(count)
    return counts, dropped, len(files)


def read_symbol_sizes(module):
    """[(start, end, name)] of the module's sized dynamic symbols, sorted
    by start; empty when nm is missing or the module cannot be read."""
    if shutil.which("nm") is None or not os.path.exists(module):
        return []
    stdout = subprocess.run(["nm", "-D", "-S", "--defined-only", module],
                            capture_output=True, text=True).stdout
    symbols = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) != 4:
            continue  # no size: absolute and version symbols
        start, size = int(fields[0], 16), int(fields[1], 16)
        if size > 0:
            symbols.append((start, start + size, fields[3].split("@")[0]))
    symbols.sort()
    return symbols


def resolve_unsized(symbols, offset, name, base):
    """The frame name for `offset` in a library frame without line info:
    addr2line's `name` when the offset lies inside a symbol's extent,
    else BASE+0xOFFSET. Without a symbol table the name is kept."""
    if not symbols:
        return name
    i = bisect.bisect_right(symbols, (offset, float("inf"), "")) - 1
    if i >= 0 and symbols[i][0] <= offset < symbols[i][1]:
        return name
    return f"{base}+{offset:#x}"


def symbolize(module, offsets):
    """{offset: [(function, file:line), ...]} innermost frame first."""
    frames = {}
    stdout = ""
    if os.path.exists(module):
        stdout = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                                input="\n".join(offsets) + "\n", capture_output=True,
                                text=True).stdout
    current = None
    pending = None
    for line in stdout.splitlines():
        if line.startswith("0x") and pending is None:
            current = offsets[len(frames)]
            frames[current] = []
        elif pending is None:
            pending = line
        else:
            frames[current].append((pending, DISCRIMINATOR.sub("", line)))
            pending = None
    # Shared-library frames carry their module: without its debug info
    # addr2line names the nearest exported symbol, not the function, so
    # an address past that symbol's end is named by its offset instead.
    base = os.path.basename(module)
    library = ".so" in base
    tag = f" [{base}]" if library else ""
    symbols = read_symbol_sizes(module) if library else []
    for offset in offsets:
        stack = frames.get(offset) or [("??", "??:0")]
        named = []
        for f, loc in stack:
            if f == "??":
                named.append((f"?? ({base})", loc))
                continue
            if library and loc.startswith("??"):
                resolved = resolve_unsized(symbols, int(offset, 16), f, base)
                if resolved != f:
                    named.append((resolved, loc))
                    continue
            named.append((f + tag, loc))
        frames[offset] = named
    return frames


def relative(location):
    """file:line, relative to the working directory when inside it."""
    path, _, line = location.rpartition(":")
    path = os.path.relpath(path)
    return f"{path}:{line}" if not path.startswith("..") else location


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allocs", action="store_true")
    parser.add_argument("--by", choices=("inner", "outer", "line"), default="inner")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--frame", action="append", default=[])
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")
    if args.top < 1:
        parser.error("--top must be at least 1")
    if shutil.which("addr2line") is None:
        fail("addr2line not found")

    with tempfile.TemporaryDirectory(prefix="sample_profile_") as workdir:
        module = build_module(workdir, "allocs" if args.allocs else "sampler")
        prefix = os.path.join(workdir, "samples")
        env = dict(os.environ)
        env["LD_PRELOAD"] = ":".join(filter(None, [module, env.get("LD_PRELOAD")]))
        env["SAMPLE_PROFILE_OUT"] = prefix
        status = subprocess.run(command, env=env, stdout=sys.stderr).returncode
        if status != 0:
            fail(f"the command exited with status {status}")
        counts, dropped, processes = read_samples(prefix)

    total = sum(counts.values())
    by_module = collections.defaultdict(list)
    for module, offset in counts:
        by_module[module].append(offset)
    patterns = [re.compile(p) for p in args.frame]
    rows = collections.Counter()
    matched = [0] * len(patterns)
    for module, offsets in by_module.items():
        frames = symbolize(module, offsets)
        for offset in offsets:
            stack = frames[offset]
            for i, pattern in enumerate(patterns):
                if any(pattern.search(f) for f, _ in stack):
                    matched[i] += counts[(module, offset)]
            if args.by == "inner":
                key = stack[0][0]
            elif args.by == "outer":
                key = stack[-1][0]
            else:
                key = relative(stack[0][1])
            rows[key] += counts[(module, offset)]

    if args.allocs:
        unit = "allocations"
        print(f"# {total} calls to operator new from {processes} process(es), "
              f"{dropped} dropped; by {args.by}")
    else:
        unit = "samples"
        seconds = total * PERIOD_US / 1e6
        print(f"# {total} samples every {PERIOD_US} us ({seconds:.2f} s) "
              f"from {processes} process(es), {dropped} dropped; by {args.by}")
    print(f"{'share':>7} {unit:>8}  frame")
    for key, count in rows.most_common(args.top):
        print(f"{100.0 * count / max(total, 1):6.2f}% {count:>8}  {key}")
    for text, count in zip(args.frame, matched):
        print(f"# --frame {text}: {count} {unit} ({100.0 * count / max(total, 1):.2f}%)")
    if total < args.min_samples:
        print(f"sample_profile: {total} {unit}, fewer than --min-samples {args.min_samples}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
