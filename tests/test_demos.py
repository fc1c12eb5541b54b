"""Every demo script runs to completion against the package this process
imported, and prints the same bytes as when its digest was pinned.

Regenerate the digests after a deliberate change to a demo's output:

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qflagk

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_signed_permutations.py": "cfa5d94400ca56201f008f9ed6f69293ee87afcd033dd33fe1f21e3160bf45a7",
    "02_laurent_rings.py": "6bb5582f76bbf057b5a1eee6ba3d2750c6a7fc90cbe06442e8c77207a1694fd4",
    "03_quaternionic_cells.py": "857c04f5af3d1ff167f5565c64eef66aaa7c629b73857c3c8cbca6c47644d9e8",
    "04_schubert_classes.py": "bbc065b1f0658218ce0ac6d0083caae298e72cf907f1d2627ba27272be007e72",
    "05_gkm_models.py": "4f4a2bfd3e89fc7118e87ee30b843b6549ce054f79ce56a62790f66c543051a4",
}


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(qflagk.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, timeout=120
    )


def test_demos_exist():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]


if __name__ == "__main__":
    for demo in DEMOS:
        print(f'    "{demo.name}": "{hashlib.sha256(_run(demo).stdout).hexdigest()}",')
