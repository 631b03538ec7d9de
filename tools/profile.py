#!/usr/bin/env python3
"""Sampling CPU profiler: where a command spends its time, by function.

    tools/profile.py [--top N] -- COMMAND [ARGS...]

The command runs with tools/sampler.c preloaded (built on demand with
cc into a temporary directory). 250 times per second of CPU time the
sampler records the running thread's PC and its frame-pointer call
chain; at exit this tool symbolizes them with `addr2line -f -C` and
prints, per function, its self share (samples whose PC is in it) and
inclusive share (samples with it anywhere on the stack), with the
sample count. Threads, child processes and images the command execs
are all counted, as long as they keep the environment. The tool exits
with the command's status, also when the report's reader has gone
(`| head`).

Unlike gprof, nothing is instrumented, so small hot functions are not
inflated by mcount calls. Self shares need no special build; inclusive
shares need frame pointers, and names of inlined functions need debug
info, so profile a build made like this:

    cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \\
        -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer
    cmake --build build-prof -j --target tf_bench
    tools/profile.py -- build-prof/bench/tf_bench --smoke \\
        --scenario fig08_memcached --no-wall --out /tmp

Limits:
 - With debug info, a function inlined into a caller is reported
   under its own name (addr2line's innermost frame).
 - Frames in libraries built without frame pointers end the call
   chain early, and GCC still builds small leaf functions without a
   frame at -O1 and above, so their callers miss those samples in the
   inclusive column.
 - Library internals with no symbol of their own (glibc's memmove
   variants, say) show under the nearest exported name.
 - The kernel rounds the timer up to its scheduler tick (4 ms at
   HZ=250), so 250 Hz is about the most it delivers, and short runs
   collect few samples; the header gives the count.
 - A process holds 200,000 samples (800 CPU-seconds). The header
   counts the samples dropped after that and warns, as the shares
   then cover only the start of the run.
 - An exec through execl*, fexecve or a raw syscall is not caught
   by the sampler, and the new image may die at the next tick.

Only the standard library is used.
"""

import argparse
import collections
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SAMPLER_C = Path(__file__).resolve().parent / "sampler.c"


def build_shim(source, so):
    """Compile the preload shim source into the library so; exit with
    cc's output on failure."""
    r = subprocess.run(["cc", "-O2", "-fPIC", "-shared", "-pthread", "-o",
                        str(so), str(source)], capture_output=True,
                       text=True)
    if r.returncode != 0:
        sys.exit(f"building {source.name} failed:\n" + r.stderr)
    return so


class Module:
    """One mapped ELF file: PCs inside it map to addresses in the file."""

    def __init__(self, path):
        self.path = path
        self.base = None  # load address of the mapping at offset 0
        self.ranges = []  # (start, end) of executable mappings
        with open(path, "rb") as f:
            head = f.read(18)
        # e_type: ET_EXEC (2) keeps absolute addresses, ET_DYN (3) is
        # relocated by its load base.
        self.relocated = head[:4] == b"\x7fELF" and head[16] == 3


def add_mapping(modules, line):
    """Add one /proc/self/maps line of a dump, without its "M ", to
    modules (path -> Module), skipping anonymous mappings and files
    that cannot be read."""
    fields = line.split(None, 5)
    if len(fields) < 6 or not fields[5].startswith("/"):
        return
    start, end = (int(x, 16) for x in fields[0].split("-"))
    offset = int(fields[2], 16)
    name = fields[5].strip()
    if name not in modules:
        try:
            modules[name] = Module(name)
        except OSError:
            return
    mod = modules[name]
    if offset == 0 and (mod.base is None or start < mod.base):
        mod.base = start
    if "x" in fields[1]:
        mod.ranges.append((start, end))


Dump = collections.namedtuple("Dump", "samples modules pid dropped")


def parse_dump(path):
    """One dump: its samples (lists of PCs, leaf first), its modules,
    the writer's pid and the samples it dropped once its slots filled."""
    modules = {}
    samples = []
    pid = dropped = 0
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                samples.append([int(x, 16) for x in line[2:].split()])
            elif line.startswith("M "):
                add_mapping(modules, line[2:])
            elif line.startswith("# tf-sampler "):
                header = dict(kv.split("=", 1) for kv in line.split()[2:])
                pid, dropped = int(header["pid"]), int(header["dropped"])
    return Dump(samples, [m for m in modules.values() if m.base is not None],
                pid, dropped)


def locate(modules, pc):
    for mod in modules:
        for start, end in mod.ranges:
            if start <= pc < end:
                return mod
    return None


def symbolize(dumps):
    """Map every (dump, pc) to a function name, one addr2line per file."""
    wanted = collections.defaultdict(set)  # module path -> file addrs
    where = {}  # (dump index, pc, leaf) -> (module path, file address)
    for i, dump in enumerate(dumps):
        for stack in dump.samples:
            for depth, pc in enumerate(stack):
                key = (i, pc, depth == 0)
                if key in where:
                    continue
                mod = locate(dump.modules, pc)
                if mod is None:
                    where[key] = None
                    continue
                # A return address points past its call instruction.
                addr = pc if depth == 0 else pc - 1
                if mod.relocated:
                    addr -= mod.base
                where[key] = (mod.path, addr)
                wanted[mod.path].add(addr)

    names = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        r = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                           input="\n".join(hex(a) for a in addrs),
                           capture_output=True, text=True)
        lines = r.stdout.splitlines()
        base = os.path.basename(path)
        for j, addr in enumerate(addrs):
            fn = lines[2 * j] if 2 * j < len(lines) else "??"
            names[(path, addr)] = fn if fn != "??" else f"?? ({base})"

    def name(i, pc, leaf):
        loc = where[(i, pc, leaf)]
        if loc is None:
            return "?? (unmapped)" if leaf else None
        return names[loc]

    return name


def report(dumps, top, out):
    name = symbolize(dumps)
    self_n = collections.Counter()
    incl_n = collections.Counter()
    total = 0
    for i, dump in enumerate(dumps):
        for stack in dump.samples:
            total += 1
            fns = [name(i, stack[0], True)]
            for pc in stack[1:]:
                fn = name(i, pc, False)
                if fn is None:  # not code: the frame chain broke here
                    break
                fns.append(fn)
            self_n[fns[0]] += 1
            for fn in set(fns):
                incl_n[fn] += 1
    dropped = sum(d.dropped for d in dumps)
    if total == 0:
        out.write("profile: no samples\n")
        return
    out.write(f"profile: {total} samples ({dropped} dropped) from "
              f"{len({d.pid for d in dumps})} process(es)\n")
    if dropped:
        out.write("warning: samples were dropped once a process's slots "
                  "filled; the shares cover only the start of its run\n")
    for title, key in (("self", self_n), ("inclusive", incl_n)):
        out.write(f"\nby {title}:\n   self%   incl%  samples  function\n")
        for fn, _ in key.most_common(top):
            out.write(f"  {100 * self_n[fn] / total:6.1f}"
                      f"  {100 * incl_n[fn] / total:6.1f}"
                      f"  {key[fn]:7d}  {fn}\n")


def write_report(write):
    """Call write(sys.stdout). If the reader has gone (`| head`), point
    stdout at /dev/null so the interpreter's own flush at exit does not
    raise again."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [--top N] -- COMMAND [ARGS...]")
    ap.add_argument("--top", type=int, default=25,
                    help="functions listed per table (default 25)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    for tool in ("cc", "addr2line"):
        if shutil.which(tool) is None:
            sys.exit(f"profile: {tool} not found")

    with tempfile.TemporaryDirectory(prefix="tf_profile_") as work:
        so = build_shim(SAMPLER_C, Path(work) / "tf_sampler.so")
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            p for p in (str(so), env.get("LD_PRELOAD", "")) if p)
        env["TF_SAMPLER_OUT"] = os.path.join(work, "samples")
        status = subprocess.run(cmd, env=env, check=False).returncode
        dumps = [parse_dump(p)
                 for p in sorted(Path(work).glob("samples.*"))]
    write_report(lambda out: report(dumps, args.top, out))
    return status


if __name__ == "__main__":
    sys.exit(main())
