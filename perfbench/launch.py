"""Run one command and print its wall time, CPU time and peak RSS as JSON.

    python3 perfbench/launch.py TIMEOUT_S -- CMD...

Linux starts a child's ``ru_maxrss`` from the peak RSS of the process that
spawned it, so the harness, whose memory grows while it checks large outputs,
spawns every child through this small, fresh process instead.  Wall time runs
from spawn to exit.  A child still running after ``TIMEOUT_S`` is killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py TIMEOUT_S -- CMD...", file=sys.stderr)
        return 2
    timeout, cmd = float(argv[0]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.send_signal(signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kib": usage.ru_maxrss,
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
