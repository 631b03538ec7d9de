#!/usr/bin/env python3
"""tools/profile.py on a small C program must rank its hot function first.

Builds tests/profile_loop.c with frame pointers, profiles it, and
checks that hot_loop() leads the self-time table and that outer(),
which only calls it, carries most of the inclusive time (so the
frame-pointer walk works). A second run has the program exec itself
without the preload once its loops are done: the samples taken
before the exec must still be reported, and the new image, which has
no SIGPROF handler, must not be killed by the sampler's timer. A
hand-written dump checks that dropped samples are reported. A third
run reports into a pipe whose reader has gone, as `| head` leaves
it: the tool must exit with the command's status and write nothing
to stderr. Exits 77, which ctest reports as skipped, when cc or
addr2line is missing.
"""

import importlib.util
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def table(text, title):
    """Rows (function, self%, incl%) of the report's "by <title>" table."""
    rows = []
    part = text.split(f"by {title}:\n", 1)[1].split("\n\n", 1)[0]
    for line in part.splitlines()[1:]:
        m = re.match(r"\s*([\d.]+)\s+([\d.]+)\s+\d+\s+(.*)", line)
        if m:
            rows.append((m.group(3), float(m.group(1)),
                         float(m.group(2))))
    return rows


def ranks_hot_loop(out):
    print(out)
    if not out.startswith("profile: ") or " samples (0 dropped) from 1 " \
            "process(es)\n" not in out:
        print("FAIL: no samples, or not from one process")
        return False
    by_self = table(out, "self")
    outer = [incl for fn, _, incl in table(out, "inclusive")
             if fn.startswith("outer")]
    ok = True
    if not by_self or not by_self[0][0].startswith("hot_loop"):
        print("FAIL: hot_loop is not first by self time")
        ok = False
    if not outer or outer[0] < 60.0:
        print("FAIL: outer() does not carry hot_loop's inclusive time")
        ok = False
    return ok


def reports_dropped(work):
    """The report counts a dump's dropped samples and warns."""
    spec = importlib.util.spec_from_file_location(
        "profile", ROOT / "tools/profile.py")
    profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profile)
    path = Path(work) / "samples.7.0"
    path.write_text("# tf-sampler pid=7 dropped=5\nS 10\n")
    out = io.StringIO()
    profile.report([profile.parse_dump(path)], 5, out)
    text = out.getvalue()
    print(text)
    if not text.startswith("profile: 1 samples (5 dropped) from 1 "
                           "process(es)\nwarning: "):
        print("FAIL: the dropped samples are not reported")
        return False
    return True


def survives_closed_pipe(exe):
    """The report meets a closed pipe: the command's status, no traceback."""
    # The loop execs sh, which exits 3: a status the tool never uses.
    cmd = [str(exe), "/bin/sh", "-c", "exit 3"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        run = subprocess.run(
            [sys.executable, str(ROOT / "tools/profile.py"), "--top",
             "2000", "--"] + cmd, stdout=stdout, stderr=subprocess.PIPE,
            text=True)
    print("$", " ".join(cmd), "(stdout closed)")
    ok = True
    if run.returncode != 3:
        print(f"FAIL: exit status {run.returncode}, not the command's 3")
        ok = False
    if run.stderr:
        print(f"FAIL: stderr is not empty:\n{run.stderr}")
        ok = False
    return ok


def main():
    if shutil.which("cc") is None or shutil.which("addr2line") is None:
        print("cc or addr2line missing: skipped")
        return 77
    with tempfile.TemporaryDirectory() as work:
        exe = Path(work) / "loop"
        # -O0: above it GCC builds hot_loop() without a frame even
        # with -fno-omit-frame-pointer, and outer() drops out of the
        # chain.
        subprocess.run(["cc", "-O0", "-g", "-fno-omit-frame-pointer",
                        "-o", str(exe), str(ROOT / "tests/profile_loop.c")],
                       check=True)
        ok = True
        for cmd in ([str(exe)], [str(exe), str(exe)]):
            run = subprocess.run(
                [sys.executable, str(ROOT / "tools/profile.py"),
                 "--top", "5", "--"] + cmd, capture_output=True, text=True)
            print("$", " ".join(cmd))
            if run.returncode != 0:
                print(f"FAIL: exit status {run.returncode}\n{run.stderr}")
                ok = False
            ok = ranks_hot_loop(run.stdout) and ok
        ok = survives_closed_pipe(exe) and ok
        ok = reports_dropped(work) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
