#!/usr/bin/env python3
"""Coverage gate for src/: line coverage per module and never-run functions.

Build the tree with `-O0 --coverage`, drive it with
tools/coverage_runs.sh, then point this tool at the build directory:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    sh tools/coverage_runs.sh build-cov
    python3 tools/coverage.py build-cov

Method: `gcov --json-format` runs on every object file of the build
(libraries, tests, bench, examples). An object that never ran counts
with zero executions. Execution counts are summed per function keyed
by (file, first line), over files under src/, so lambdas and template
instances count once per location; lines are summed per (file, line)
the same way. A module is the first directory under src/, except that
each src/sim/<subdir> is its own module.

The gate fails when a module's line coverage is below its floor in
tools/coverage_floor.json, when a never-run function is not on that
file's allowlist, or when an allowlist entry no longer names a
never-run function (the allowlist only shrinks). With --base OLD.json
(the floor file of the commit being changed) it also fails when a
floor went down or the allowlist gained an entry. Entries match by
file and demangled name, not by line, so edits elsewhere in a file do
not churn them. Needs only the Python standard library and gcov.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOOR = os.path.join(ROOT, "tools", "coverage_floor.json")
BATCH = 32  # object files per gcov invocation


def gcov_reports(build_dir):
    """Yield one parsed gcov JSON report per object file of the build."""
    notes = []
    for dirpath, _, files in os.walk(build_dir):
        notes += [os.path.join(dirpath, f) for f in files
                  if f.endswith(".gcno")]
    if not notes:
        sys.exit(f"coverage: no .gcno files under {build_dir} "
                 "(was it built with --coverage?)")
    notes.sort()
    for i in range(0, len(notes), BATCH):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + notes[i:i + BATCH],
            cwd=build_dir, capture_output=True, text=True, check=True)
        for line in out.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def module_of(path):
    """src/sim/fault/fault.cc -> sim/fault; src/mem/dram.cc -> mem."""
    parts = path.split("/")
    if len(parts) > 3 and parts[1] == "sim":
        return "sim/" + parts[2]
    return parts[1] if len(parts) > 2 else "src"


def collect(build_dir):
    """Sum function and line counts over src/, keyed by location."""
    funcs = {}  # (file, first line) -> [count, {demangled names}]
    lines = defaultdict(int)  # (file, line) -> count
    for report in gcov_reports(build_dir):
        cwd = report.get("current_working_directory", build_dir)
        for f in report["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            rel = os.path.relpath(path, ROOT)
            if not rel.startswith("src" + os.sep):
                continue
            for fn in f["functions"]:
                entry = funcs.setdefault((rel, fn["start_line"]),
                                         [0, set()])
                entry[0] += fn["execution_count"]
                entry[1].add(fn.get("demangled_name", fn["name"]))
            for ln in f["lines"]:
                lines[(rel, ln["line_number"])] += ln["count"]
    return funcs, lines


def check(funcs, lines, floor, base):
    """Print the report; return the list of gate failures."""
    per_module = defaultdict(lambda: [0, 0])  # module -> [run, total]
    for (path, _), count in lines.items():
        m = per_module[module_of(path)]
        m[0] += count > 0
        m[1] += 1
    never = sorted((path, line, sorted(names))
                   for (path, line), (count, names) in funcs.items()
                   if count == 0)

    errors = []
    floors = floor.get("modules", {})
    print(f"{'module':<14} {'lines':>7} {'run':>7} {'cover%':>7} "
          f"{'floor%':>7}")
    for name in sorted(set(per_module) | set(floors)):
        run, total = per_module.get(name, (0, 0))
        pct = 100.0 * run / total if total else 0.0
        want = floors.get(name)
        print(f"{name:<14} {total:>7} {run:>7} {pct:>7.1f} "
              f"{'-' if want is None else f'{want:.1f}':>7}")
        if want is None:
            errors.append(f"module {name} has no floor in the floor file")
        elif pct < want:
            errors.append(f"module {name}: {pct:.1f}% of lines run, "
                          f"floor {want:.1f}%")
    run_lines = sum(m[0] for m in per_module.values())
    all_lines = sum(m[1] for m in per_module.values())
    print(f"total: {run_lines}/{all_lines} lines run "
          f"({100.0 * run_lines / max(all_lines, 1):.1f}%), "
          f"{len(never)} of {len(funcs)} functions never run")

    allow = floor.get("allowlist", [])
    used = [False] * len(allow)
    for path, line, names in never:
        hit = [i for i, a in enumerate(allow)
               if a["file"] == path and a["function"] in names]
        for i in hit:
            used[i] = True
        print(f"  never run: {path}:{line} {names[0]}"
              + (f"  [allowed: {allow[hit[0]]['reason']}]" if hit else ""))
        if not hit:
            errors.append(f"{path}:{line} {names[0]} never runs: delete "
                          "it, give it a test, or allowlist it with a "
                          "reason")
    for a, u in zip(allow, used):
        if not u:
            errors.append(f"allowlist entry {a['file']} {a['function']} "
                          "matches no never-run function: remove it")

    if base is not None:
        for name, want in base.get("modules", {}).items():
            if name in floors and floors[name] < want:
                errors.append(f"module {name}: floor lowered from "
                              f"{want:.1f} to {floors[name]:.1f}")
        old = {(a["file"], a["function"]) for a in base.get("allowlist",
                                                             [])}
        for a in allow:
            if (a["file"], a["function"]) not in old:
                errors.append(f"allowlist grew: {a['file']} "
                              f"{a['function']}")
    return errors


def main():
    ap = argparse.ArgumentParser(
        description="Gate src/ coverage of a --coverage build.")
    ap.add_argument("build_dir", help="build tree after the run list")
    ap.add_argument("--base", help="floor file of the parent commit; "
                    "floors may not drop and the allowlist may not grow")
    args = ap.parse_args()

    with open(FLOOR) as f:
        floor = json.load(f)
    base = None
    if args.base:
        with open(args.base) as f:
            base = json.load(f)
    funcs, lines = collect(os.path.abspath(args.build_dir))
    errors = check(funcs, lines, floor, base)
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    if not errors:
        print("coverage gate OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
