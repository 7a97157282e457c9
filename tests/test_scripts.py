"""Smoke runs of the experiment scripts at small sizes.

The scripts call the public entry points of each track directly, so an
API change that breaks them shows here rather than at the next full
experiment run.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_power_track():
    out = _run("run_power_track.py", "--n-train", "60", "--n-val", "10", "--n-test", "10")
    assert "method\tmse\tmapm_mw\tmrpm_mvar" in out.splitlines()
    assert "improved fraction:" in out


def test_attack_track():
    out = _run("run_attack_track.py", "--samples", "5")
    lines = out.splitlines()
    assert any(line.startswith("attack\tn_attacked\trobust_accuracy") for line in lines)
    assert "violation ratio cyclic/pgd:" in out
