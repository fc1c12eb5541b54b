"""How tier-1 starts ``qflagk``, a demo or a probe as a child process.

A child imports the package this process imported, not the checkout's
``src/``: run against an installed copy, tier-1 tests that copy.  A
``qflagk`` child runs ``qflagk.cli`` as ``__main__`` under ``WRAPPER``,
which turns an exception that escapes the command into exit ``ESCAPED``, so
a crash cannot pass for one of the command's own exit codes.
"""

import os
import sys
from pathlib import Path

import qflagk

SRC = str(Path(qflagk.__file__).resolve().parent.parent)
ESCAPED = 70  # EX_SOFTWARE of sysexits.h

# argv[1] is code run first (a plant; it must not import qflagk.cli itself),
# the rest the command's arguments; a traceback that cannot be written is dropped
WRAPPER = f"""
import contextlib, runpy, sys, traceback
plant = sys.argv.pop(1)
try:
    exec(plant)
    runpy.run_module("qflagk.cli", run_name="__main__")
except Exception:
    with contextlib.suppress(OSError):
        traceback.print_exc()
    sys.exit({ESCAPED})
"""


def env(**extra):
    """The environment of a child: this one, with ``SRC`` as its path."""
    return dict(os.environ, PYTHONPATH=SRC, **extra)


def qflagk_argv(*argv, plant=""):
    """The command line of a child that runs ``qflagk argv`` after ``plant``."""
    return [sys.executable, "-c", WRAPPER, plant, *argv]
