"""The demos run end to end against the library in this checkout."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [["torus_certificates.py", "5"], ["bracket_divisibility.py"], ["higher_genus_determinants.py"]],
    ids=["torus_certificates", "bracket_divisibility", "higher_genus_determinants"],
)
def test_demo_runs(argv) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
