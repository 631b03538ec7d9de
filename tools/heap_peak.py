#!/usr/bin/env python3
"""Live-heap peak: what a command holds at its heap's peak, by site.

    tools/heap_peak.py [--top N] -- COMMAND [ARGS...]

The command runs with tools/heap_peak.c preloaded (built on demand
with cc into a temporary directory). The shim counts the bytes each
allocation site holds, a site being the first return addresses of
the allocating call, and copies the per-site counts whenever the
live total passes the last copy's by 64 KiB, so the copy is taken
within 64 KiB of the peak. At exit this tool symbolizes the copy with
`addr2line -f -i -C` and prints, per process, the peak, the copy's
total and the sites holding the most bytes in the copy. The tool
exits with the command's status.

A site is labelled with its first two frames outside
the allocator (libc, libstdc++, the unwinder and the shim) and
outside the standard library's own templates (std::, __gnu_cxx::),
innermost first and inlined functions included, the innermost with
its file and line; sites with one label are summed. Names of inlined
functions need debug info, so use a RelWithDebInfo build:

    cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-prof -j --target tf_bench
    tools/heap_peak.py -- build-prof/bench/tf_bench --smoke \\
        --scenario fig08_memcached --no-wall --out /tmp

Limits:
 - Counts are requested bytes: not the allocator's rounding, not its
   free lists, not memory mapped without malloc. Resident size can
   exceed the live peak by the holes freed blocks leave.
 - Every allocation unwinds its stack (backtrace()), so the command
   runs several times slower than usual.
 - A sanitizer's runtime owns malloc: the shim cannot wrap it.
 - Memory allocated in a child that never execs is not reported.

Only the standard library is used.
"""

import argparse
import collections
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SHIM_C = TOOLS / "heap_peak.c"

# Frames in these files are the allocator's, not the program's.
ALLOCATOR_FILES = re.compile(
    r"^(libc\.so|libc-|libstdc\+\+|libgcc_s|tf_heap_peak\.so)")
STD_FUNCTIONS = re.compile(r"^(std::|__gnu_cxx::|operator new)")
# Program frames per site label.
DEPTH = 2


def load_profile():
    """tools/profile.py, for its shim build, ELF mapping and report
    helpers."""
    spec = importlib.util.spec_from_file_location("tf_profile",
                                                  TOOLS / "profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


profile = load_profile()

Dump = collections.namedtuple("Dump", "pid peak snap allocs sites modules")


def parse_dump(path):
    """One dump: its header numbers, its sites as (bytes, [pc, ...])
    pairs, innermost frame first, and its modules."""
    modules = {}
    sites = []
    head = {}
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                fields = line.split()
                sites.append((int(fields[1]),
                              [int(x, 16) for x in fields[2:]]))
            elif line.startswith("M "):
                profile.add_mapping(modules, line[2:])
            elif line.startswith("# tf-heap-peak "):
                head = dict(kv.split("=", 1) for kv in line.split()[2:])
    return Dump(int(head.get("pid", 0)), int(head.get("peak", 0)),
                int(head.get("snap", 0)), int(head.get("allocs", 0)),
                sites, [m for m in modules.values() if m.base is not None])


def short(fn):
    """A demangled name without its template arguments and parameters:
    tf::sim::InlineFn<void (int)>::operator()(int) const becomes
    tf::sim::InlineFn<>::operator()."""
    fn = fn.replace("(anonymous namespace)", "{anonymous}")
    fn = re.sub(r"\{lambda\(.*?\)#", "{lambda#", fn)
    while True:
        cut = re.sub(r"<[^<>]*(?:<>[^<>]*)*>", "<>", fn)
        if cut == fn:
            break
        fn = cut
    call = fn.find("operator()")
    cut = fn.find("(", call + len("operator()") if call >= 0 else 0)
    fn = fn if cut < 0 else fn[:cut]
    # A template function's name leads with its return type.
    return fn if re.search(r"\boperator ", fn) else fn.rsplit(" ", 1)[-1]


def symbolize(dump):
    """(module, file address) -> [(function, file:line), ...] for every
    frame of the dump, innermost inlined function first."""
    wanted = collections.defaultdict(set)
    for _, pcs in dump.sites:
        for depth, pc in enumerate(pcs):
            mod = profile.locate(dump.modules, pc)
            if mod is None:
                continue
            # A return address points past its call instruction.
            addr = pc if depth == 0 else pc - 1
            wanted[mod.path].add(addr - mod.base if mod.relocated else addr)
    frames = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        r = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                           input="\n".join(hex(a) for a in addrs),
                           capture_output=True, text=True)
        # Each address prints "0x<addr>", then (function, file:line)
        # pairs: the inlined chain, innermost first.
        current = None
        lines = r.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                current = (path, int(lines[i], 16))
                frames[current] = []
                i += 1
                continue
            where = lines[i + 1] if i + 1 < len(lines) else "??:0"
            if current is not None:
                frames[current].append((lines[i], where))
            i += 2
    return frames


def label(dump, pcs, frames):
    """The site's label: its first program frames, innermost first."""
    names = []
    for d, pc in enumerate(pcs):
        mod = profile.locate(dump.modules, pc)
        if mod is None:
            continue
        if ALLOCATOR_FILES.match(os.path.basename(mod.path)):
            continue
        addr = pc if d == 0 else pc - 1
        key = (mod.path, addr - mod.base if mod.relocated else addr)
        for fn, where in frames.get(key, [("??", "??:0")]):
            if fn == "??":
                fn = f"?? ({os.path.basename(mod.path)})"
            names.append((short(fn), where))
    program = [n for n in names if not STD_FUNCTIONS.match(n[0])] or names
    if not program:
        return "(no site)"
    fn, where = program[0]
    where = os.path.basename(where.split(" ", 1)[0])
    where = re.sub(r":(\?|0)$", "", where)
    first = fn if where.startswith("??") else f"{fn} ({where})"
    return " <- ".join([first] + [n for n, _ in program[1:DEPTH]])


def mib(n):
    return f"{n / (1 << 20):.2f} MiB"


def report(dumps, top, out):
    if not dumps:
        out.write("heap_peak: no process wrote a dump\n")
        return
    for dump in sorted(dumps, key=lambda d: -d.peak):
        frames = symbolize(dump)
        by_label = collections.Counter()
        for nbytes, pcs in dump.sites:
            by_label[label(dump, pcs, frames)] += nbytes
        out.write(f"heap_peak: pid {dump.pid}: peak {mib(dump.peak)} live; "
                  f"sites below at {mib(dump.snap)} "
                  f"({dump.allocs} allocations in all)\n")
        out.write("       KiB   share  site\n")
        for site, nbytes in by_label.most_common(top):
            share = 100 * nbytes / dump.snap if dump.snap else 0.0
            out.write(f"  {nbytes / 1024:8.1f}  {share:5.1f}%  {site}\n")
        out.write("\n")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [--top N] -- COMMAND [ARGS...]")
    ap.add_argument("--top", type=int, default=20,
                    help="sites listed per process (default 20)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    for tool in ("cc", "addr2line"):
        if shutil.which(tool) is None:
            sys.exit(f"heap_peak: {tool} not found")

    with tempfile.TemporaryDirectory(prefix="tf_heap_peak_") as work:
        so = profile.build_shim(SHIM_C, Path(work) / "tf_heap_peak.so")
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            p for p in (str(so), env.get("LD_PRELOAD", "")) if p)
        env["TF_HEAP_OUT"] = os.path.join(work, "heap")
        status = subprocess.run(cmd, env=env, check=False).returncode
        dumps = [parse_dump(p) for p in sorted(Path(work).glob("heap.*"))]
        profile.write_report(lambda out: report(dumps, args.top, out))
    return status


if __name__ == "__main__":
    sys.exit(main())
