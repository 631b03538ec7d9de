#!/usr/bin/env python3
"""tools/heap_peak.py must name a transient block's function at the peak.

Builds tests/heap_peak_loop.c with debug info and runs it under the
tool. The program holds 500 KiB of small blocks when transient_peak()
allocates and frees an 8 MiB block, then allocates 250 KiB more: the
report's peak must be the transient block plus what was live then,
and transient_peak must lead its sites. A second run reports into a
pipe whose reader has gone, as `| head` leaves it: the tool must exit
with the command's status and write nothing to stderr. Exits 77,
which ctest reports as skipped, when cc or addr2line is missing.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools/heap_peak.py"


def finds_transient(exe):
    run = subprocess.run([sys.executable, str(TOOL), "--top", "5", "--",
                          str(exe)], capture_output=True, text=True)
    out = run.stdout
    print(out)
    ok = True
    if run.returncode != 0:
        print(f"FAIL: exit status {run.returncode}\n{run.stderr}")
        ok = False
    m = re.search(r"peak ([\d.]+) MiB live; sites below at ([\d.]+) MiB",
                  out)
    if not m:
        print("FAIL: no peak line")
        return False
    # 8 MiB + 1000 x 256 B live at the peak; the copy is within 64 KiB.
    peak, snap = float(m.group(1)), float(m.group(2))
    if not 8.2 <= peak <= 8.3 or not peak - 0.07 <= snap <= peak:
        print(f"FAIL: peak {peak} MiB, copy at {snap} MiB")
        ok = False
    rows = [line for line in out.splitlines() if "%  " in line]
    if not rows or "transient_peak (heap_peak_loop.c:" not in rows[0]:
        print("FAIL: transient_peak does not lead the sites at the peak")
        ok = False
    if not any("long_lived" in row for row in rows[1:]):
        print("FAIL: the long-lived blocks are missing")
        ok = False
    return ok


def survives_closed_pipe(exe):
    """The report meets a closed pipe: the command's status, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        run = subprocess.run(
            [sys.executable, str(TOOL), "--", "/bin/sh", "-c",
             f"{exe}; exit 3"], stdout=stdout, stderr=subprocess.PIPE,
            text=True)
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
        exe = Path(work) / "heap_peak_loop"
        subprocess.run(["cc", "-O1", "-g", "-o", str(exe),
                        str(ROOT / "tests/heap_peak_loop.c")], check=True)
        ok = finds_transient(exe)
        ok = survives_closed_pipe(exe) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
