"""Record the digest of every command's stdout at the default seed.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are known to be right.
It rewrites perfbench/digests.json; run.py then requires those exact
bytes from every command it runs at the default seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    digests = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        runner = run.Runner(Path(scratch), None, time.monotonic() + 600)
        try:
            for name in workloads.WORKLOADS:
                for command in workloads.build(name, run.DEFAULT_SEED, Path(scratch)):
                    _, code, stdout, _ = runner.spawn(run.timed_argv(command.argv))
                    if code != 0:
                        print(f"{command.label}: exit code {code}", file=sys.stderr)
                        return 1
                    command.check(stdout)
                    digests[command.label] = workloads.digest(stdout)
        finally:
            runner.close()
    workloads.DIGESTS_FILE.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "stdout_sha256": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
