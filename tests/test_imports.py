"""What each command loads, and the package's names resolved on first use.

Every ``qflagk`` command is a process of its own, so the layers it imports
are part of its run time; without cached bytecode each one is compiled too.
The module sets are read in a fresh interpreter per case, with
``PYTHONDONTWRITEBYTECODE=1`` as a user may set it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qflagk
from qflagk import gkm, quatflag, randgen, ringcore, weylc

SRC = str(Path(qflagk.__file__).resolve().parent.parent)

# the names the package exported when it imported every layer up front
EXPORTED = {
    ringcore: ["BinomialDivisor", "LaurentPoly", "NotDivisible", "NotInvariant", "XPoly",
               "basis_decompose", "divide_exact", "sigma_k", "sym_in_x", "weyl_act_poly",
               "x_expand", "xpoly_divide_exact"],
    weylc: ["SignedPerm", "bruhat_leq", "coset_map", "enumerate_sign_changes",
            "enumerate_weyl", "length", "max_length_rep", "positive_roots", "reduced_word",
            "reflection", "simple_reflection"],
    quatflag: ["QMatrix", "Quaternion", "SingularMatrix", "bruhat_decompose", "cell_index",
               "perm_matrix", "u_membership"],
    gkm: ["GKMTupleG", "GKMTupleT", "GKMTupleX", "InexactDivision", "NotInTupleSpan",
          "SchubertTable", "TupleNotInvariant", "canonical_class", "demazure", "descend_pi",
          "expand_in_schubert", "gkm_check_g", "gkm_check_t", "gkm_check_x", "j_descend",
          "j_expand", "descent_invariance_check", "point_class", "presentation_check",
          "pullback_pi", "quaternionic_schubert_classes", "schubert_class", "schubert_table",
          "weyl_act_tuple"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]

# in a fresh interpreter: run the code in argv[1], print the loaded submodules
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qflagk."))))
"""


def _loaded(code):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=SRC)
    env.pop("QFLAGK_MAX_N", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [m.removeprefix("qflagk.") for m in json.loads(proc.stdout)]


def _main(*argv):
    return f"from qflagk import cli; assert cli.main({list(argv)!r}) in (0, 1)"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    matrix = root / "matrix.json"
    matrix.write_text(json.dumps(quatflag.perm_matrix((2, 3, 1)).to_json()))
    tup = root / "tuple.json"
    tup.write_text(json.dumps(gkm.schubert_class(weylc.SignedPerm.from_window((2, -1))).to_json()))
    return {"matrix": str(matrix), "tuple": str(tup)}


CASES = [
    (["verify", "--suite", "roots", "--n", "2"], ["cli", "weylc"]),
    (["basis", "--n", "3"], ["cli", "weylc"]),
    (["decompose", "--input", "matrix"], ["cli", "quatflag", "weylc"]),
    (["cell-index", "--input", "matrix"], ["cli", "quatflag", "weylc"]),
    (["check", "--model", "T", "--input", "tuple"], ["cli", "gkm", "ringcore", "weylc"]),
    (["verify", "--suite", "schubert", "--n", "2"], ["cli", "gkm", "ringcore", "weylc"]),
    (["verify", "--suite", "presentation", "--n", "2"], ["cli", "gkm", "ringcore", "weylc"]),
    (["schubert", "--all", "--n", "2"], ["cli", "gkm", "ringcore", "weylc"]),
    (["schubert", "--w", "[2,-1]", "--n", "2"], ["cli", "gkm", "ringcore", "weylc"]),
    (["verify", "--suite", "cells", "--n", "2", "--trials", "2"],
     ["cli", "quatflag", "randgen", "weylc"]),
    (["verify", "--suite", "gkm-x", "--n", "2", "--trials", "2"],
     ["cli", "gkm", "randgen", "ringcore", "weylc"]),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
def test_each_command_loads_only_the_layers_it_runs(inputs, argv, expected):
    argv = [inputs.get(a, a) for a in argv]
    assert _loaded(_main(*argv)) == expected


def test_the_bare_package_loads_no_layer():
    assert _loaded("import qflagk") == []
    # a layer resolves on first use, with the layers it imports itself
    assert _loaded("import qflagk; qflagk.SignedPerm") == ["weylc"]
    assert _loaded("from qflagk import gkm") == ["gkm", "ringcore", "weylc"]


def test_every_exported_name_resolves_to_its_layer_object():
    for module, name in NAMES:
        assert getattr(qflagk, name) is getattr(module, name), name
        assert name in dir(qflagk), name


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from qflagk import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(module, name)
    assert sorted(qflagk.__all__) == sorted(name for _, name in NAMES)


def test_layers_and_unknown_names():
    from qflagk import gkm as layer

    assert layer is gkm and qflagk.gkm is gkm and qflagk.weylc is weylc
    with pytest.raises(AttributeError, match="no_such_name"):
        qflagk.no_such_name
    with pytest.raises(ImportError):
        exec("from qflagk import no_such_name", {})


def test_the_public_name_count_is_unchanged():
    assert sum(len(m.__all__) for m in (ringcore, weylc, quatflag, gkm, randgen)) == 87
