"""The benchmark's recorded stdout digests hold for the in-process CLI.

`perfbench/digests.json` pins the sha256 of every benchmark command's
stdout.  The `enumerate` and `character` commands need no generated
graph file, so this runs them in-process and checks their bytes, and a
drift shows here before a benchmark run.  It only reads the file and
writes nothing under `perfbench/`.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from breakpark import cli

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
PINNED = {
    label: digest
    for label, digest in json.loads(DIGESTS.read_text())["stdout_sha256"].items()
    if label.startswith(("enumerate --set ", "character "))
}


def test_every_enumerate_and_character_command_is_pinned():
    assert sum(label.startswith("enumerate") for label in PINNED) == 4
    assert sum(label.startswith("character") for label in PINNED) == 3


@pytest.mark.parametrize("label", sorted(PINNED))
def test_stdout_matches_the_benchmark_digest(monkeypatch, label):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(label.split()) == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[label]
