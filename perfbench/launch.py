"""Spawn the benchmark's commands and report what each one used.

    python3 -S perfbench/launch.py

Reads one JSON request a line on stdin, {"argv", "env", "stdout",
"stderr"}, spawns argv with stdin from /dev/null and stdout and stderr
sent to the named files, and writes two lines to stdout: the child's pid
once it runs, then {"status", "wall", "cpu", "maxrss_kb"} from os.wait4
and "probe", the mean time of a fixed pure-Python loop run just before
and just after the child.

On Linux a new process's peak RSS starts at the high-water mark of the
process that spawned it, so run.py, whose memory grows as it parses the
outputs, must not spawn the measured commands itself.  This process stays
small (no site, json and os only), so each child's ru_maxrss is its own.

The CPU speed of a shared machine drifts: the same loop takes from 18 to
27 ms, and slow spells last tens of seconds.  This process pins itself,
and so every child, to one CPU, so that the probe measures the speed of
the CPU the child ran on.
"""

import json
import os
import sys
import time


PROBE_ITERATIONS = 150_000


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def main():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        before = probe()
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        print(pid, flush=True)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        after = probe()
        print(json.dumps({
            "status": os.waitstatus_to_exitcode(status),
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "probe": (before + after) / 2,
        }), flush=True)


if __name__ == "__main__":
    main()
