"""Benchmark of the breakpark command-line interface.

    python3 perfbench/run.py --workload {character,enumerate,graph,dt}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds src/breakpark.  This process
runs the workload's `breakpark` commands as subprocesses, one at a time
(a closed loop with one client), and repeats the whole set until
--seconds have passed.  Every command's stdout is checked (see
workloads.py); a command fails on a nonzero exit or a failed check.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s (sums over
the workload's commands of each command's median over passes), peak_rss_mb
(the largest per-command median peak RSS) and setup_s (median wall time of
`breakpark --help`, run a few times before each pass: interpreter start,
imports and parser build).  CPU time and peak RSS come from os.wait4 on
each child.

Every time is scaled to a reference CPU speed: launch.py times a fixed
loop just before and after each command on the command's CPU, and the
times of a pass are multiplied by PROBE_REFERENCE_S times the mean probe
speed (1 / probe time) of that pass.  On a shared machine the speed drifts by up to 1.5x
in spells of tens of seconds.  Over 4 minutes of the enumerate workload,
the interquartile range of 20-second results was 21-31% of their median
unscaled and 5% scaled.

--trace 1 alternates an untraced pass with a traced one, where each
command runs under tracer.py in a fresh interpreter, and reports the
per-layer metrics listed in spec.json plus trace.overhead_s, the traced
minus the untraced pass wall time.  The spans of the first traced pass
are written to .perfbench-work/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 2 means the benchmark could
not run at all (no source tree); then no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = HERE / "tracer.py"
LAUNCHER = HERE / "launch.py"
SPEC = json.loads((HERE / "spec.json").read_text())

# The `breakpark` console script, without needing it installed.
ENTRY = "import sys; from breakpark.cli import main; sys.exit(main())"
SETUP_ARGS = ("--help",)
SETUP_RUNS = 4  # before each pass
DEFAULT_SEED = 0
# Probe time that defines the reference speed, about the typical one on
# a 2-core Intel Xeon VM under Python 3.11.7.
PROBE_REFERENCE_S = 0.010
# Children still running this long after start are killed, so the
# benchmark ends within its 180-second limit.
DEADLINE_S = 165.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# Counter names in tracer.py -> (candidates metric, accepted metric).
COUNTER_METRICS = {
    "knm.is_break_mn": ("knm.break_candidates", "knm.break_accepted"),
    "knm.is_parking_mn": ("knm.park_candidates", "knm.park_accepted"),
    "multigraph.is_break_divisor": ("multigraph.break_candidates", "multigraph.break_accepted"),
}
RATIOS = {
    "knm.break_accept_ratio": ("knm.break_accepted", "knm.break_candidates"),
    "knm.park_accept_ratio": ("knm.park_accepted", "knm.park_candidates"),
}


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mb: float


class Runner:
    """Runs the commands through launch.py and keeps the tally of
    attempted and failed commands."""

    def __init__(self, scratch: Path, recorded: dict[str, str] | None, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        # The caller's PYTHON* settings (say, unbuffered output or no
        # bytecode cache) would change what is measured, so none pass on.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.recorded = recorded  # label -> stdout digest the output must match
        self.launcher = subprocess.Popen([sys.executable, "-S", str(LAUNCHER)],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._pending = b""
        self.probes: list[float] = []  # launch.py's probe time around each spawn
        # label -> (command, stdout, digest) of its first run that exited 0,
        # and how many runs printed the same; checked by finish_checks()
        self.first: dict[str, tuple[workloads.Command, bytes, str]] = {}
        self.same_as_first: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failures: list[str] = []  # one per failed command
        self.errors: list[str] = []  # inconsistencies of the benchmark itself

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()

    def _readline(self, timeout: float | None) -> bytes | None:
        while b"\n" not in self._pending:
            if not select.select([self.launcher.stdout], [], [], timeout)[0]:
                return None
            chunk = os.read(self.launcher.stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError("the launcher process ended")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def spawn(self, argv: list[str]) -> tuple[Usage, int, bytes, bytes]:
        """Run argv through the launcher; kill it at the deadline."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        request = {"argv": argv, "env": self.env, "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request).encode() + b"\n")
        self.launcher.stdin.flush()
        pid = int(self._readline(None))
        line = self._readline(max(self.deadline - time.monotonic(), 0.1))
        if line is None:
            os.kill(pid, signal.SIGKILL)
            line = self._readline(None)
        result = json.loads(line)
        self.probes.append(result["probe"])
        used = Usage(result["wall"], result["cpu"], result["maxrss_kb"] / 1024)
        return used, result["status"], out_path.read_bytes(), err_path.read_bytes()

    def run(self, command: workloads.Command, argv: list[str]) -> tuple[Usage, bool]:
        """Run one workload command; False if it exited nonzero or its
        stdout differs from its first run's."""
        used, code, stdout, stderr = self.spawn(argv)
        self.attempted += 1
        problem = self._problem(command, code, stdout, stderr)
        if problem:
            self.failures.append(f"{command.label}: {problem}")
        return used, problem is None

    def _problem(self, command, code, stdout, stderr) -> str | None:
        if code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {code} {tail}"
        got = workloads.digest(stdout)
        if command.label not in self.first:
            self.first[command.label] = (command, stdout, got)
        elif got != self.first[command.label][2]:
            return "stdout differs from the first run of this command"
        self.same_as_first[command.label] += 1
        return None

    def finish_checks(self):
        """Check each command's first output, after the timed passes so
        that checking costs no measuring time; a failure counts once for
        every run that printed the same."""
        for label, (command, stdout, got) in self.first.items():
            try:
                command.check(stdout)
                problem = None
            except workloads.CheckFailed as exc:
                problem = str(exc)
            if problem is None and self.recorded is not None and self.recorded.get(label) != got:
                problem = "stdout does not match the digest recorded from the seed code"
            if problem:
                self.failures += [f"{label}: {problem}"] * self.same_as_first[label]
        self.first.clear()

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline

    def scale_since(self, mark: int) -> float:
        """Reference speed over the mean speed the probes measured since
        the first `mark` spawns.  The speed flips between a fast and a slow
        state, so a median would jump between the two."""
        return PROBE_REFERENCE_S * statistics.fmean(1 / p for p in self.probes[mark:])


def timed_argv(args) -> list[str]:
    return [sys.executable, "-c", ENTRY, *args]


def traced_argv(args, trace_path: Path, command_id: int) -> list[str]:
    return [sys.executable, str(TRACER), str(trace_path), str(command_id), "--", *args]


def measure_setup(runner: Runner) -> list[float]:
    """Wall times of CLI runs that compute nothing."""
    walls = []
    for _ in range(SETUP_RUNS):
        used, code, stdout, _ = runner.spawn(timed_argv(SETUP_ARGS))
        runner.attempted += 1
        if code != 0 or not stdout.startswith(b"usage: breakpark"):
            runner.failures.append("--help: did not print the usage")
        walls.append(used.wall)
    return walls


def timed_pass(runner: Runner, commands) -> dict[str, Usage]:
    return {c.label: runner.run(c, timed_argv(c.argv))[0] for c in commands}


def traced_pass(runner: Runner, commands) -> tuple[float, list[dict]]:
    """Unscaled wall time of the pass and the trace of each command."""
    wall, traces = 0.0, []
    for command_id, c in enumerate(commands):
        trace_path = runner.scratch / "trace.json"
        trace_path.unlink(missing_ok=True)
        used, ok = runner.run(c, traced_argv(c.argv, trace_path, command_id))
        wall += used.wall
        if ok:
            traces.append(json.loads(trace_path.read_text()))
    return wall, traces


def repeat(runner: Runner, seconds: float, one_pass):
    """Call one_pass until another would end after `seconds`; at least once."""
    start, results = time.perf_counter(), []
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds or not runner.time_left():
            return results


def end_to_end(runner: Runner, commands, seconds: float) -> dict[str, float]:
    def one_pass():
        mark = len(runner.probes)
        setup = measure_setup(runner)
        used = timed_pass(runner, commands)
        return runner.scale_since(mark), setup, used

    passes = repeat(runner, seconds, one_pass)

    def median(label, field):
        return statistics.median(getattr(used[label], field) * scale for scale, _, used in passes)

    return {
        "wall_s": sum(median(c.label, "wall") for c in commands),
        "cpu_s": sum(median(c.label, "cpu") for c in commands),
        "peak_rss_mb": max(statistics.median(used[c.label].rss_mb for _, _, used in passes)
                           for c in commands),
        "setup_s": statistics.median(w * scale for scale, setup, _ in passes for w in setup),
    }


def layer_totals(traces: list[dict], scale: float = 1.0) -> tuple[dict[str, float], dict[str, int]]:
    """Self times, multiplied by scale, and counts of one traced pass, by
    metric name."""
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child in zip(spans, covered):
            self_s = (end - start - child) * scale
            times[f"{name}.self_s"] += self_s
            times[f"{name.split('.')[0]}.self_s"] += self_s
            counts[f"{name}.calls"] += 1
        for name, (calls, accepted) in trace["counters"].items():
            candidates_name, accepted_name = COUNTER_METRICS.get(
                name, (f"{name}.calls", f"{name}.true"))
            counts[candidates_name] += calls
            counts[accepted_name] += accepted
        counts["reptheory.mn_cache_misses"] += trace["mn_cache_misses"]
    return times, counts


def per_layer(runner: Runner, commands, seconds: float, trace_out: Path) -> dict[str, float]:
    def pair():
        mark = len(runner.probes)
        untraced = sum(u.wall for u in timed_pass(runner, commands).values())
        untraced *= runner.scale_since(mark)
        mark = len(runner.probes)
        traced, traces = traced_pass(runner, commands)
        scale = runner.scale_since(mark)
        return untraced, traced * scale, layer_totals(traces, scale), traces

    pairs = repeat(runner, seconds, pair)
    trace_out.write_text(json.dumps([s for t in pairs[0][3] for s in t["spans"]]))
    totals = [total for _, _, total, _ in pairs]
    counts = totals[0][1]
    if any(c != counts for _, c in totals[1:]):
        runner.errors.append("trace counters differ between passes")
    names = {n for times, _ in totals for n in times}
    values: dict[str, float] = {n: statistics.median(t.get(n, 0.0) for t, _ in totals)
                                for n in names}
    values.update(counts)
    for ratio, (num, den) in RATIOS.items():
        values[ratio] = counts[num] / counts[den] if counts.get(den) else 0.0
    values["trace.overhead_s"] = (statistics.median(t for _, t, _, _ in pairs)
                                  - statistics.median(u for u, _, _, _ in pairs))
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "breakpark" / "cli.py").is_file():
        print(f"error: no breakpark source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        scratch = Path(scratch)
        recorded = workloads.load_digests() if args.seed == DEFAULT_SEED else None
        runner = Runner(scratch, recorded, deadline)
        try:
            commands = workloads.build(args.workload, args.seed, scratch)
            runner.spawn(timed_argv(SETUP_ARGS))  # warm-up: writes the bytecode caches
            if args.trace:
                trace_out = WORK / f"trace-{args.workload}-{args.seed}.json"
                values = per_layer(runner, commands, args.seconds, trace_out)
                units = dict(PER_LAYER)
            else:
                values = end_to_end(runner, commands, args.seconds)
                units = dict(END_TO_END)
            runner.finish_checks()
        finally:
            runner.close()

    failed = len(runner.failures)
    for failure in runner.failures + runner.errors:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(commands)} commands a pass")
    for name, value in values.items():
        print(f"  {name:45} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ops_frac':45} {failed / runner.attempted:>14.6g} "
          f"({failed} of {runner.attempted} commands)")
    print(json.dumps({
        "correct": failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
