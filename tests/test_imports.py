"""What each command loads, and the layers' public name lists.

Every ``qflagk`` command is a process of its own, so the layers it imports
are part of its run time; without cached bytecode each one is compiled too.
The module sets are read in a fresh interpreter per case, with
``PYTHONDONTWRITEBYTECODE=1`` as a user may set it.  Each name is imported
from its layer, whose ``__all__`` lists its public names; the package itself
exports none.  Layers reach each other only by public names: no module of
the package imports or reads a private name of another, looks a layer's
attribute up by a name built at run time or reads ``sys.modules``, and only
``ringcore`` reads how a polynomial or a divisor is stored.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import child
import qflagk
from qflagk import gkm, quatflag, randgen, ringcore, weylc

# in a fresh interpreter: run the code in argv[1], print the loaded submodules
# and which of ``dataclasses`` and the ``inspect`` it imports were loaded: no
# command needs them, and importing them is a sizeable part of a command's start
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("qflagk.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def _loaded(code):
    proc = subprocess.run([sys.executable, "-c", PROBE, code],
                          env=child.env(PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers, unneeded = json.loads(proc.stdout)
    assert unneeded == []
    return [m.removeprefix("qflagk.") for m in layers]


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
    (["verify", "--suite", "theorem2", "--n", "2", "--trials", "2"],
     ["cli", "randgen", "ringcore", "weylc"]),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
def test_each_command_loads_only_the_layers_it_runs(inputs, argv, expected):
    argv = [inputs.get(a, a) for a in argv]
    assert _loaded(_main(*argv)) == expected


def test_the_bare_package_loads_no_layer():
    assert _loaded("import qflagk") == []
    # a layer loads with the layers it imports itself
    assert _loaded("from qflagk import gkm") == ["gkm", "ringcore", "weylc"]


def test_layers_and_unknown_names():
    from qflagk import gkm as layer

    assert layer is gkm and qflagk.gkm is gkm and qflagk.weylc is weylc
    with pytest.raises(AttributeError, match="no_such_name"):
        qflagk.no_such_name
    with pytest.raises(ImportError):
        exec("from qflagk import no_such_name", {})


LAYERS = [ringcore, weylc, quatflag, gkm, randgen]


@pytest.mark.parametrize("layer", LAYERS, ids=[m.__name__.removeprefix("qflagk.") for m in LAYERS])
def test_every_public_name_is_defined_once(layer):
    missing = [name for name in layer.__all__ if name not in vars(layer)]
    assert missing == []
    assert len(set(layer.__all__)) == len(layer.__all__)


def test_the_public_name_count_is_unchanged():
    assert sum(len(m.__all__) for m in LAYERS) == 85


# the packed-term storage and its bound rule, which ringcore alone reads
STORAGE = {"_packed", "_bound", "_steps", "_trusted"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cross_layer_reads(path, layers):
    """(module, line, layer, name) for each private name of another layer
    that the module at ``path`` imports or reads, (module, line, layer,
    source) for each lookup of a layer's attribute by a name that is not a
    literal (``getattr``, ``vars`` or ``__dict__``), (module, line, "sys",
    "modules") for each read of ``sys.modules``, and (module, line,
    "storage", attribute) for each packed-storage attribute read outside
    ringcore."""
    module = path.stem
    found = []
    bound = {}  # local name -> the layer module it is bound to
    sys_names = set()  # local names of the sys module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sys_names.update(a.asname or a.name for a in node.names if a.name == "sys")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found.extend((module, node.lineno, "sys", a.name)
                         for a in node.names if a.name == "modules")
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("qflagk").lstrip(".")
            for alias in node.names:
                if not source and alias.name in layers:  # from . import gkm
                    bound[alias.asname or alias.name] = alias.name
                elif source in layers and source != module and _private(alias.name):
                    found.append((module, node.lineno, source, alias.name))

    def layer_of(expr):
        layer = bound.get(expr.id, expr.id) if isinstance(expr, ast.Name) else None
        return layer if layer in layers and layer != module else None

    # vars(layer)["name"] and layer.__dict__["name"] name what they read
    by_literal = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            func, args = node.func.id, node.args
            if ((func == "getattr" and len(args) > 1 and not isinstance(args[1], ast.Constant)
                 or func == "vars" and id(node) not in by_literal)
                    and (layer := layer_of(args[0]))):
                found.append((module, node.lineno, layer, ast.unparse(node)))
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in STORAGE and module != "ringcore":
            found.append((module, node.lineno, "storage", node.attr))
        elif node.attr == "modules" and getattr(node.value, "id", None) in sys_names:
            found.append((module, node.lineno, "sys", "modules"))
        elif (node.attr == "__dict__" and id(node) not in by_literal
              and (layer := layer_of(node.value))):
            found.append((module, node.lineno, layer, ast.unparse(node)))
        elif _private(node.attr) and (layer := layer_of(node.value)):
            found.append((module, node.lineno, layer, node.attr))
    return found


def test_layers_reach_each_other_only_by_public_names():
    # Every module of the package, each a layer: none imports or reads a
    # private name of another (dunder names are public), looks a layer's
    # attribute up by a built name or reads sys.modules (each call names
    # what it calls), and only ringcore reads how a polynomial or a divisor
    # is stored.  bench/ wraps private names on purpose, from outside the
    # program, and is not scanned.
    paths = sorted(Path(child.SRC, "qflagk").glob("*.py"))
    layers = {path.stem for path in paths} - {"__init__"}
    assert {"cli", "gkm", "quatflag", "randgen", "ringcore", "weylc"} <= layers
    assert sorted(read for path in paths for read in _cross_layer_reads(path, layers)) == []
