"""Golden CLI outputs: exit code and sha256 of normalised stdout.

The entries cover every command at rank <= 3, and every ``verify`` suite,
``basis``, one ``schubert --w``, ``decompose`` and ``cell-index`` at rank 4,
the default cap.

Each command runs in-process through ``cli.main``.  An entry hashes the
printed bytes, layout included, less the only line that may differ between
runs: the ``wall_time_s`` line of a ``verify`` report, JSON or text.
``check`` reports violations in edge order, so its entries pin that order.

Regenerate entries (all, or only the named ones) after a deliberate change:

    PYTHONPATH=src python tests/test_golden_cli.py [ID ...]
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qflagk import quatflag, randgen
from qflagk.cli import SUITES, main

FIXTURE = Path(__file__).with_name("golden_cli.json")
N = 3
COMMON = ["--n", str(N), "--trials", "6", "--seed", "3"]


def _commands():
    cmds = {}
    for suite in SUITES:
        cmds[f"verify-{suite}"] = ["verify", "--suite", suite, *COMMON, "--format", "json"]
    for suite in ("gkm-t", "gkm-x"):
        cmds[f"verify-{suite}-mutate"] = [*cmds[f"verify-{suite}"], "--mutate", "2"]
    cmds["verify-gkm-t-mutate-text"] = [
        "verify", "--suite", "gkm-t", *COMMON, "--mutate", "2", "--format", "text",
    ]
    for n in (2, 3):
        cmds[f"schubert-all-n{n}"] = ["schubert", "--all", "--n", str(n)]
    cmds["schubert-w-n3"] = ["schubert", "--w", "[-2,3,-1]", "--n", str(N)]
    for fmt in ("text", "json"):
        cmds[f"basis-{fmt}"] = ["basis", "--n", str(N), "--format", fmt]
        for command in ("decompose", "cell-index"):
            cmds[f"{command}-{fmt}"] = [
                command, "--input", "matrix.json", "--n", str(N), "--format", fmt,
            ]
        for model in "TXG":
            for state in ("valid", "mutated"):
                cmds[f"check-{model}-{state}-{fmt}"] = [
                    "check", "--model", model, "--input", f"{model}-{state}.json",
                    "--n", str(N), "--format", fmt,
                ]
    # rank 4, the default cap: every verify suite and the basis
    rank4 = ["--n", "4", "--seed", "3", "--format", "json"]
    for suite in ("schubert", "roots", "gkm-t", "gkm-x"):
        cmds[f"verify-{suite}-n4"] = [
            "verify", "--suite", suite, "--trials", "4", "--mutate", "1", *rank4,
        ]
    for suite, trials in (("theorem1", 2), ("theorem2", 4), ("presentation", 4), ("cells", 2)):
        cmds[f"verify-{suite}-n4"] = ["verify", "--suite", suite, "--trials", str(trials), *rank4]
    cmds["basis-n4"] = ["basis", *rank4]
    cmds["schubert-w-n4"] = ["schubert", "--w", "[1,-3,-2,-4]", *rank4]
    for command in ("decompose", "cell-index"):
        cmds[f"{command}-n4"] = [command, "--input", "matrix-n4.json", *rank4]
    return cmds


COMMANDS = _commands()


def _write_inputs(directory):
    """Seeded valid T/X/G tuples, copies with +1 at two vertices, a dense
    rank-3 matrix and a rank-4 matrix in a small cell."""
    makers = {
        "T": randgen.random_t_tuple,
        "X": randgen.random_x_tuple,
        "G": randgen.random_g_tuple,
    }
    for seed, (model, make) in enumerate(makers.items()):
        rng = randgen.trial_rng(3, seed)
        f = make(rng, N)
        mutated = rng.sample(list(f.values), 2)
        bad = type(f)(N, {v: p + 1 if v in mutated else p for v, p in f.values.items()})
        for state, tup in (("valid", f), ("mutated", bad)):
            (directory / f"{model}-{state}.json").write_text(json.dumps(tup.to_json()))
    g = randgen.random_invertible_matrix(randgen.trial_rng(3, 3), N)
    (directory / "matrix.json").write_text(json.dumps(g.to_json()))
    # g = u * p_tau * b for a tau of two inversions: its rows keep zeros,
    # where a dense matrix, which lands in the big cell, keeps none
    rng, tau = randgen.trial_rng(3, 4), (2, 3, 1, 4)
    rows = [list(r) for r in quatflag.QMatrix.identity(4).entries]
    for mu, nu in quatflag.free_positions(tau):
        rows[mu - 1][nu - 1] = randgen.random_quaternion(rng)
    g = (quatflag.QMatrix(rows) * quatflag.perm_matrix(tau)
         * randgen.random_upper_triangular(rng, 4))
    (directory / "matrix-n4.json").write_text(json.dumps(g.to_json()))


def _argv(name, directory):
    return [str(directory / a) if a.endswith(".json") else a for a in COMMANDS[name]]


def _entry(rc, out):
    kept = "".join(
        line for line in out.splitlines(keepends=True)
        if not line.lstrip().startswith(('"wall_time_s":', "wall_time_s:"))
    )
    return {"exit": rc, "sha256": hashlib.sha256(kept.encode()).hexdigest()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(directory)
    return directory


def test_fixture_covers_every_command():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, inputs, capsys):
    want = json.loads(FIXTURE.read_text())[name]
    argv = _argv(name, inputs)
    rc = main(argv)
    assert _entry(rc, capsys.readouterr().out) == want


def _regenerate(names):
    golden = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        for name in names or sorted(COMMANDS):
            argv = _argv(name, directory)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            golden[name] = _entry(rc, buf.getvalue())
    FIXTURE.write_text(json.dumps(dict(sorted(golden.items())), indent=2) + "\n")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
