"""Frozen CLI transcripts: the SHA-256 of what each command of COMMANDS
prints, and the exit code and stderr JSON of each command of REFUSED,
pinned in transcripts.json beside this file.

Every command runs through cli.main in this process, except an ``ed`` of
COMMANDS: f_L depends in its last bits on the OpenBLAS thread count, so it
runs in a fresh interpreter at one thread, as perfbench/run.py runs it.  A
change that moves any digit of any output, or any word of an error
report, fails here.

After a change that moves digits or messages on purpose, rewrite the pins
and print the commands whose output moved:

    PYTHONPATH=src python tests/test_transcripts.py --repin
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xxzfidelity.cli import main

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "transcripts.json"

COMMANDS = (
    "eval --x 0.3",
    "eval --x 0.8",
    "eval --eps 0.2",
    "eval --eps 1e-10",
    "scan --min 0.01 --max 0.95 --count 300",
    "scan --min 0.01 --max 0.95 --count 300 --format csv",
    "scan --var eps --min 1e-6 --max 40 --count 200 --spacing log",
    "scan --var eps --min 1e-6 --max 40 --count 200 --spacing log "
    "--format csv",
    "fit --eps-min 1e-3 --eps-max 1e-2 --count 20",
    "fit --eps-min 1e-2 --eps-max 0.1 --count 20",
    "identities",
    "ed --x 0.3 --Ls 8,12,16",
)

#: refused before any output: each pin is [exit code, stderr JSON]
REFUSED = (
    "eval --x 1.5",
    "scan --min 0.1",
    "scan --min nan --max 0.2",
    "fit --eps-min 1e-3 --eps-max 1e-2 --count 2",
    "eval --y 1",
    "ed --x 0.3 --Ls 26",
)


def transcript(command: str) -> str:
    """What command prints to stdout, asserting that it exits with 0."""
    argv = command.split()
    if argv[0] == "ed":
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "xxzfidelity", *argv], capture_output=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        code, text = done.returncode, done.stdout
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
    assert code == 0, command
    return text


def digest(command: str) -> str:
    return hashlib.sha256(transcript(command).encode("utf-8")).hexdigest()


def refusal(command: str) -> list:
    """[exit code, stderr JSON] of command, asserting that it fails with
    one line on stderr and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    assert code != 0 and out.getvalue() == "", command
    assert err.getvalue().count("\n") == 1, command
    return [code, json.loads(err.getvalue())]


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_pinned(command):
    assert digest(command) == json.loads(PINS.read_text())[command]


@pytest.mark.parametrize("command", REFUSED)
def test_refusal_is_pinned(command):
    assert refusal(command) == json.loads(PINS.read_text())[command]


def repin() -> None:
    """Rewrite the pins; print each command whose output moved."""
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = {command: digest(command) for command in COMMANDS}
    new.update((command, refusal(command)) for command in REFUSED)
    PINS.write_text(json.dumps(new, indent=2) + "\n")
    for command in new:
        if old.get(command) != new[command]:
            print(command)


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit(f"usage: {sys.argv[0]} --repin")
    repin()
