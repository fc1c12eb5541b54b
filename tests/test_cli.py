"""Command-line surface: suites, exit codes, file formats, determinism."""

import concurrent.futures
import json
import os
import random
import subprocess

import pytest

import child
from qflagk import cli, gkm, quatflag, ringcore, weylc
from qflagk.cli import MAX_COMPONENT_DIGITS, SUITES, main
from qflagk.randgen import random_invertible_matrix, trial_rng

DEV_FULL = "/dev/full"  # every write to it fails with ENOSPC


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["roots", "presentation", "schubert", "gkm-t", "gkm-x", "theorem2"])
def test_verify_suites_pass_at_rank_two(capsys, suite):
    rc, out, _ = run(capsys, "verify", "--suite", suite, "--n", "2", "--trials", "5")
    assert rc == 0, out
    assert "OK" in out


def test_verify_cells_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "cells", "--n", "2", "--trials", "5")
    assert rc == 0, out
    # one trial and two jobs: the only trial runs in this process
    rc, out, _ = run(capsys, "verify", "--suite", "cells", "--n", "3", "--trials", "1",
                     "--jobs", "2")
    assert rc == 0, out


def _cells_violations(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "cells", "--n", "3", "--trials", "3",
                     "--format", "json")
    report = json.loads(out)
    assert rc == 1 and report["passed"] == report["checks"] - 1
    return report["violations"]


def test_verify_cells_reports_a_wrong_cell_dimension(capsys, monkeypatch):
    real = quatflag.free_positions
    tau = (3, 1, 2)
    monkeypatch.setattr(
        quatflag, "free_positions", lambda t: real(t)[1:] if t == tau else real(t))
    assert _cells_violations(capsys) == [{"check": "cell-dimension", "tau": list(tau)}]


def test_verify_cells_reports_a_wrong_closure_order(capsys, monkeypatch):
    real = weylc.bruhat_leq
    pair = ((2, 1, 3), (1, 3, 2))  # incomparable, so the flip says a <= b
    monkeypatch.setattr(
        weylc, "bruhat_leq", lambda a, b: (not real(a, b)) if (a, b) == pair else real(a, b))
    assert _cells_violations(capsys) == [
        {"check": "closure-vs-oracle", "a": list(pair[0]), "b": list(pair[1])}]


def test_verify_rank_one_trivial_suites(capsys):
    # rank one has no index pairs: theorem2 is vacuous, theorem1 holds
    rc, out, _ = run(capsys, "verify", "--suite", "theorem2", "--n", "1", "--trials", "3")
    assert rc == 0, out
    rc, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n", "1", "--trials", "3")
    assert rc == 0, out


def test_verify_theorem1_passes_on_the_quaternionic_classes(capsys):
    # the exhaustive half checks the quaternionic Schubert classes, which
    # descend; see the README's Known mathematical gap section
    for n in ("2", "3"):
        rc, out, _ = run(
            capsys, "verify", "--suite", "theorem1", "--n", n, "--trials", "3",
            "--format", "json",
        )
        assert rc == 0, out
        report = json.loads(out)
        assert report["violations"] == []
        assert report["passed"] == report["checks"]


def test_verify_theorem1_reports_a_class_off_the_g_model(capsys, monkeypatch):
    classes = gkm.quaternionic_schubert_classes(2)
    tau = (1, 2)
    values = dict(classes[tau].values)
    values[tau] = values[tau] + ringcore.XPoly.X(2, 1)
    broken = dict(classes)
    broken[tau] = gkm.GKMTupleG(2, values)
    monkeypatch.setattr(gkm, "quaternionic_schubert_classes", lambda n: broken)
    rc, out, _ = run(
        capsys, "verify", "--suite", "theorem1", "--n", "2", "--trials", "1",
        "--format", "json",
    )
    assert rc == 1
    kinds = {(v["check"], tuple(v["class"])) for v in json.loads(out)["violations"]}
    assert kinds == {("quaternionic-valid", tau)}


def test_verify_theorem1_reports_a_failed_expansion(capsys, monkeypatch):
    # a trial whose expansion raises NotInTupleSpan recovers no coefficients
    def refuse(f, basis):
        raise gkm.NotInTupleSpan((1, 2), f.values[weylc.SignedPerm.identity(f.rank)])

    monkeypatch.setattr(gkm, "expand_in_schubert", refuse)
    rc, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n", "2", "--trials", "2",
                     "--format", "json")
    assert rc == 1
    report = json.loads(out)
    assert report["violations"] == [
        {"check": "expansion-recovery", "trial": 0}, {"check": "expansion-recovery", "trial": 1}]
    assert report["passed"] == report["checks"] - 2


def test_verify_mutate_mode_finds_witnesses(capsys):
    rc, out, _ = run(
        capsys, "verify", "--suite", "gkm-t", "--n", "2", "--trials", "3",
        "--mutate", "1", "--format", "json",
    )
    assert rc == 1
    report = json.loads(out)
    assert report["violations"]
    for v in report["violations"]:
        assert "remainder" in v and "index" in v and "partner" in v


@pytest.mark.parametrize("suite", list(SUITES))
def test_passed_counts_the_checks_that_found_nothing(capsys, suite):
    # a failing GKM check lists one violation per failing edge, but it is
    # one failed check
    rc, out, _ = run(capsys, "verify", "--suite", suite, "--n", "2", "--trials", "4",
                     "--seed", "3", "--mutate", "2", "--format", "json")
    report = json.loads(out)
    assert 0 <= report["passed"] <= report["checks"]
    assert (report["passed"] == report["checks"]) == (not report["violations"]) == (rc == 0)
    # rank two has two X-vertices: --mutate 2 moves one of them, as +1 at
    # both would keep every tuple valid
    pinned = {"gkm-t": (4, 0, 24), "gkm-x": (4, 0, 4)}
    if suite in pinned:
        assert (report["checks"], report["passed"], len(report["violations"])) == pinned[suite]


def test_mutate_leaves_one_fixed_point_unmoved_at_rank_one(capsys):
    # K = 2 reaches the two T-vertices of rank one, so one of them moves and
    # every trial fails; the one X-vertex has nothing to move against
    for suite, counts in (("gkm-t", (4, 0, 4)), ("gkm-x", (4, 4, 0))):
        rc, out, _ = run(capsys, "verify", "--suite", suite, "--n", "1", "--trials", "4",
                         "--seed", "3", "--mutate", "2", "--format", "json")
        report = json.loads(out)
        assert (report["checks"], report["passed"], len(report["violations"])) == counts
        assert rc == (1 if report["violations"] else 0)


def test_theorem2_counts_only_the_checks_it_makes(capsys, monkeypatch):
    # when the bridge division fails, the three checks on its quotients are
    # never made; f + 1 is not divisible by X_mu - X_nu
    divide = ringcore.xpoly_divide_exact
    monkeypatch.setattr(ringcore, "xpoly_divide_exact", lambda f, mu, nu: divide(f + 1, mu, nu))
    rc, out, _ = run(capsys, "verify", "--suite", "theorem2", "--n", "2", "--trials", "3",
                     "--format", "json")
    report = json.loads(out)
    assert rc == 1
    assert (report["checks"], report["passed"]) == (3, 0)
    assert [v["check"] for v in report["violations"]] == ["bridge-divisible"] * 3


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nonsense", "--n", "2")
    assert rc == 2
    assert "unknown suite" in err


def _division_failures():
    """One InexactDivision and two NotDivisible (Laurent and X), each raised
    by the routine that raises it in a run, with the witness it prints."""
    n = 2
    numerator = ringcore.LaurentPoly.x(n, 1) + 2
    w = weylc.SignedPerm.from_window((2, -1))
    yield gkm.InexactDivision(w, 1, numerator), {
        "error": "inexact-division", "w": [2, -1], "i": 1, "numerator": numerator.to_json()}
    for divide, args in (
        (ringcore.divide_exact, (numerator, ringcore.BinomialDivisor([(1, -1)]))),
        (ringcore.xpoly_divide_exact, (ringcore.XPoly.X(n, 1) + 1, 1, 2)),
    ):
        with pytest.raises(ringcore.NotDivisible) as info:
            divide(*args)
        exc = info.value
        yield exc, {"error": "not-divisible", "factor": list(exc.factor),
                    "remainder": exc.remainder.to_json()}


@pytest.mark.parametrize("suite", ["roots", "cells", "gkm-t"])
def test_internal_inexact_division_exits_3_with_its_witness(capsys, monkeypatch, suite):
    # the exhaustive part, or the trial worker of a suite without one, raises
    for exc, witness in _division_failures():
        def fail(*args, exc=exc):
            raise exc

        exhaustive, trial = SUITES[suite]
        monkeypatch.setitem(SUITES, suite, (fail, trial) if exhaustive else (None, fail))
        rc, out, err = run(capsys, "verify", "--suite", suite, "--n", "2", "--trials", "2")
        assert rc == 3 and out == ""
        assert err.splitlines()[0] == "internal inexact division; witness:"
        assert json.loads(err.splitlines()[-1]) == witness


def _assert_generic_witness(rc, out, err, exc):
    name = type(exc).__name__
    assert rc == 3 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == f"internal error: {name}; witness:"
    assert json.loads(err.splitlines()[-1]) == {
        "error": "internal", "exception": name, "message": str(exc)}


@pytest.mark.parametrize("exc", [
    ZeroDivisionError("not a division of the ring"),
    KeyError("no such point"),
    gkm.NotInTupleSpan((1, 2), ringcore.LaurentPoly.one(2)),
    quatflag.SingularMatrix("no pivot"),
    OverflowError("exponent out of range"),
], ids=lambda exc: type(exc).__name__)
def test_any_other_exception_exits_3_with_a_generic_witness(capsys, monkeypatch, exc):
    # a crash is not a violation found: it exits 3, not 1, without a traceback
    def fail(n):
        raise exc

    monkeypatch.setitem(SUITES, "roots", (fail, None))
    _assert_generic_witness(*run(capsys, "verify", "--suite", "roots", "--n", "2"), exc)


def test_an_exception_in_a_pool_worker_exits_3_with_a_generic_witness(capsys, monkeypatch):
    # trial 0 runs in this process, so only a later trial crosses the pool
    parent = os.getpid()

    def fail(n, rng, t, mutate):
        if os.getpid() != parent:
            raise KeyError(f"trial {t}")
        yield []

    monkeypatch.setitem(SUITES, "cells", (None, fail))
    rc, out, err = run(capsys, "verify", "--suite", "cells", "--n", "2", "--trials", "3",
                       "--jobs", "2")
    _assert_generic_witness(rc, out, err, KeyError("trial 1"))


def test_rank_cap_and_env_override(capsys, monkeypatch):
    rc, _, err = run(capsys, "verify", "--suite", "roots", "--n", "5", "--trials", "1")
    assert rc == 2 and "cap" in err
    # --unsafe-n is the one way past the cap; the retired QFLAGK_MAX_N is ignored
    monkeypatch.setenv("QFLAGK_MAX_N", "5")
    rc, _, err = run(capsys, "basis", "--n", "5")
    assert rc == 2 and "cap" in err
    monkeypatch.setenv("QFLAGK_MAX_N", "abc")
    assert run(capsys, "basis")[0] == 0
    monkeypatch.delenv("QFLAGK_MAX_N")
    rc, _, _ = run(capsys, "basis", "--n", "5", "--unsafe-n")
    assert rc == 0


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify", "--suite", "presentation", "--n", "2",
        "--format", "json", "--output", str(target),
    )
    assert rc == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["suite"] == "presentation"
    assert report["violations"] == []
    # the CLI reads back a class it wrote
    target = tmp_path / "class.json"
    assert run(capsys, "schubert", "--w", "[2,-1]", "--n", "2", "--format", "json",
               "--output", str(target)) == (0, "", "")
    rc, out, _ = run(capsys, "check", "--model", "T", "--input", str(target), "--n", "2",
                     "--format", "json")
    assert rc == 0 and json.loads(out)["violations"] == []


@pytest.mark.parametrize("where", ["directory", "missing-parent", "empty", "full-device"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    # an empty path is a path that cannot be opened, not standard output
    target = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "out.txt",
              "empty": "", "full-device": DEV_FULL}[where]
    if where == "full-device" and not os.path.exists(DEV_FULL):
        pytest.skip(f"no {DEV_FULL} on this system")
    rc, out, err = run(capsys, "basis", "--n", "2", "--output", str(target))
    assert rc == 2 and out == ""
    assert "cannot write --output" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# schubert
# ---------------------------------------------------------------------------

def test_schubert_rank_one_window_examples(capsys):
    rc, out, _ = run(capsys, "schubert", "--n", "1", "--w", "[-1]", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    cls = gkm.GKMTupleT.from_json(data)
    assert cls == gkm.GKMTupleT.constant(1, 1)

    rc, out, _ = run(capsys, "schubert", "--n", "1", "--w", "[1]", "--format", "json")
    assert rc == 0
    cls = gkm.GKMTupleT.from_json(json.loads(out))
    assert cls == gkm.point_class(1)


def test_schubert_all_classes_valid(capsys):
    rc, out, _ = run(capsys, "schubert", "--n", "2", "--all", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["classes"]) == 8
    for key, tup in data["classes"].items():
        cls = gkm.GKMTupleT.from_json(tup)
        assert gkm.gkm_check_t(cls) == []


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_schubert_all_prints_the_json_of_its_payload(tmp_path, capsys, n, fmt):
    # the writer streams the bytes of json.dumps over the whole payload
    # without building it; both formats print the JSON
    payload = {
        "classes": {w.window_str(): cls.to_json() for w, cls in gkm.schubert_table(n).items()},
        "convention": gkm.CONVENTION,
        "rank": n,
    }
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert run(capsys, "schubert", "--all", "--n", str(n), "--format", fmt) == (0, want, "")
    p = tmp_path / "all.json"
    assert run(capsys, "schubert", "--all", "--n", str(n), "--format", fmt,
               "--output", str(p)) == (0, "", "")
    assert p.read_text(encoding="utf-8") == want


def test_schubert_bad_window(capsys):
    rc, _, err = run(capsys, "schubert", "--n", "2", "--w", "[0,1]")
    assert rc == 2
    rc, _, err = run(capsys, "schubert", "--n", "2", "--w", "[1]")
    assert rc == 2
    rc, out, err = run(capsys, "schubert", "--n", "2", "--w", "[" * 30000 + "]" * 30000)
    assert rc == 2 and out == "" and "bad window" in err


# ---------------------------------------------------------------------------
# decompose / cell-index
# ---------------------------------------------------------------------------

def _write_matrix(path, m):
    path.write_text(json.dumps(m.to_json()))


def test_decompose_identity_and_permutation(tmp_path, capsys):
    p = tmp_path / "m.json"
    _write_matrix(p, quatflag.QMatrix.identity(2))
    rc, out, _ = run(capsys, "decompose", "--input", str(p), "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["tau"] == [1, 2]
    assert quatflag.QMatrix.from_json(data["u"]) == quatflag.QMatrix.identity(2)

    _write_matrix(p, quatflag.perm_matrix((2, 1)))
    rc, out, _ = run(capsys, "decompose", "--input", str(p), "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["tau"] == [2, 1]


def test_decompose_random_roundtrip(tmp_path, capsys):
    g = random_invertible_matrix(trial_rng(20, 0), 3)
    p = tmp_path / "m.json"
    _write_matrix(p, g)
    rc, out, _ = run(capsys, "decompose", "--input", str(p), "--format", "json")
    assert rc == 0
    data = json.loads(out)
    u = quatflag.QMatrix.from_json(data["u"])
    b = quatflag.QMatrix.from_json(data["b"])
    tau = tuple(data["tau"])
    assert u * quatflag.perm_matrix(tau) * b == g


def test_decompose_singular_and_parse_errors(tmp_path, capsys):
    p = tmp_path / "m.json"
    zero = quatflag.QMatrix.from_rows([[0, 0], [0, 0]])
    _write_matrix(p, zero)
    rc, _, err = run(capsys, "decompose", "--input", str(p))
    assert rc == 1 and "singular" in err
    p.write_text("not json")
    rc, _, _ = run(capsys, "decompose", "--input", str(p))
    assert rc == 2
    rc, _, _ = run(capsys, "decompose", "--input", str(tmp_path / "missing.json"))
    assert rc == 2


def test_decompose_recomposition_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    p = tmp_path / "m.json"
    g = random_invertible_matrix(trial_rng(21, 0), 3)
    _write_matrix(p, g)
    decompose = quatflag.bruhat_decompose
    scale = quatflag.QMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    def wrong_b(m):
        u, tau, b = decompose(m)
        return u, tau, b * scale

    monkeypatch.setattr(quatflag, "bruhat_decompose", wrong_b)
    rc, out, err = run(capsys, "decompose", "--input", str(p))
    assert (rc, out) == (3, "")
    assert err.splitlines()[0] == "internal error: recomposition mismatch; witness:"
    u, tau, b = wrong_b(g)
    witness = json.loads(err.splitlines()[-1])
    assert witness == {"error": "recomposition-mismatch", "g": g.to_json(), "u": u.to_json(),
                       "tau": list(tau), "b": b.to_json()}
    # the witness's g is an input that decompose reads back
    monkeypatch.undo()
    p.write_text(json.dumps(witness["g"]))
    rc, out, _ = run(capsys, "decompose", "--input", str(p), "--n", "3", "--format", "json")
    assert rc == 0 and json.loads(out)["tau"] == list(tau)


def test_cell_index_singular_exits_1(tmp_path, capsys):
    p = tmp_path / "m.json"
    _write_matrix(p, quatflag.QMatrix.from_rows([[1, 2], [2, 4]]))
    rc, out, err = run(capsys, "cell-index", "--input", str(p))
    assert (rc, out) == (1, "")
    assert "matrix is singular" in err


def test_cell_index_command(tmp_path, capsys):
    p = tmp_path / "m.json"
    _write_matrix(p, quatflag.perm_matrix((2, 3, 1)))
    rc, out, _ = run(capsys, "cell-index", "--input", str(p), "--format", "json")
    assert rc == 0
    assert json.loads(out)["tau"] == [2, 3, 1]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_commands_render_only_the_form_they_print(tmp_path, capsys, monkeypatch, fmt):
    # one rendering of the payload per command, in either format
    p = tmp_path / "m.json"
    _write_matrix(p, quatflag.perm_matrix((2, 3, 1)))
    rendered = []
    dumps = json.dumps

    def counted(obj, *args, **kwargs):
        if isinstance(obj, dict):
            rendered.append(sorted(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    for argv, keys in (
        (["decompose", "--input", str(p)], ["b", "tau", "u"]),
        (["cell-index", "--input", str(p)], ["tau"]),
    ):
        rendered.clear()
        rc, _, _ = run(capsys, *argv, "--format", fmt)
        assert rc == 0
        assert rendered == [keys]


def _qflagk(*argv, stdout):
    """Start ``qflagk argv`` as a child process writing to ``stdout``."""
    return subprocess.Popen(child.qflagk_argv(*argv), env=child.env(),
                            stdout=stdout, stderr=subprocess.PIPE)


# planted in a child: decompose returns the factors of the identity, exit 3
_MISMATCH = """
from qflagk import quatflag
real = quatflag.bruhat_decompose
quatflag.bruhat_decompose = lambda g: real(quatflag.perm_matrix(tuple(range(1, g.n + 1))))
"""


@pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL} on this system")
@pytest.mark.parametrize("plant, argv, matrix", [
    ("", ["verify", "--suite", "nope", "--n", "2"], None),  # a usage error
    ("", ["verify", "--n", "2"], None),  # argparse's own
    ("", ["decompose", "--input", "m.json"], [[0, 0], [0, 0]]),
    ("", ["cell-index", "--input", "m.json"], [[1, 2], [2, 4]]),
    (_MISMATCH, ["decompose", "--input", "m.json"], [[0, 1], [1, 0]]),
], ids=["usage", "argparse", "decompose-singular", "cell-index-singular", "mismatch"])
def test_a_full_stderr_keeps_the_exit_code(tmp_path, plant, argv, matrix):
    # the messages are lost, and each command still exits 2, 1 or 3 as it
    # would; an exception that escaped would exit child.ESCAPED
    if matrix is not None:
        _write_matrix(tmp_path / "m.json", quatflag.QMatrix.from_rows(matrix))
    want = {"verify": 2, "cell-index": 1, "decompose": 3 if plant else 1}[argv[0]]
    with open(DEV_FULL, "w") as full:
        done = subprocess.run(child.qflagk_argv(*argv, plant=plant), cwd=tmp_path,
                              env=child.env(), stdout=subprocess.DEVNULL, stderr=full,
                              timeout=120)
    assert done.returncode == want


def _closed_stdout(*argv, after):
    """Run ``qflagk argv`` as a child process and close the read end of its
    standard output after its first ``after`` bytes; (exit code, stderr)."""
    with _qflagk(*argv, stdout=subprocess.PIPE) as proc:
        proc.stdout.read(after)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


def _assert_one_stdout_error(rc, err):
    assert rc == 2
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("cannot write standard output")


@pytest.mark.parametrize("argv, after", [
    # the table is past the pipe's buffer, so the child is still writing
    (["schubert", "--all", "--n", "3"], 100),
    # a report is written in one piece, after the suite: close at once
    (["verify", "--suite", "roots", "--n", "3"], 0),
    (["--help"], 0),
    (["verify", "--help"], 0),
])
def test_a_closed_stdout_is_exit_2_without_a_traceback(argv, after):
    _assert_one_stdout_error(*_closed_stdout(*argv, after=after))


@pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL} on this system")
@pytest.mark.parametrize("argv", [
    ["basis", "--n", "2"],
    ["verify", "--suite", "roots", "--n", "2"],
    ["schubert", "--all", "--n", "3"],
    ["schubert", "--w", "[-2,1]"],
    ["--help"],
], ids=["basis", "verify", "schubert-all", "schubert-w", "help"])
def test_a_full_stdout_is_exit_2_without_a_traceback(argv):
    with open(DEV_FULL, "w") as full, _qflagk(*argv, stdout=full) as proc:
        _, err = proc.communicate(timeout=120)
    _assert_one_stdout_error(proc.returncode, err.decode())


def test_help_prints_what_argparse_prints(capsys):
    for argv in (["--help"], ["verify", "--help"], ["schubert", "-h"]):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        shown = capsys.readouterr().out
        assert shown.startswith("usage: qflagk")
        assert run(capsys, *argv) == (0, shown, "")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    ["--all"],
    # the class of [-1,-2,3] holds 22 objects with 8 distinct term sets
    ["--w", "[-1,-2,3]"],
], ids=["all", "w"])
def test_schubert_all_renders_each_term_set_once(capsys, monkeypatch, argv, fmt):
    # the rank-3 table holds 2 304 values in 472 objects, with 170 distinct
    # term sets: each is rendered once, whichever objects share it
    n = 3
    table = gkm.schubert_table(n)
    classes = table.values() if argv == ["--all"] else [
        table[weylc.SignedPerm.from_window_str(argv[1])]]
    term_sets = {frozenset(p.terms.items()) for cls in classes for p in cls.values.values()}
    calls = []
    to_json = ringcore.LaurentPoly.to_json

    def counted(p):
        calls.append(frozenset(p.terms.items()))
        return to_json(p)

    monkeypatch.setattr(ringcore.LaurentPoly, "to_json", counted)
    rc, _, _ = run(capsys, "schubert", "--n", str(n), *argv, "--format", fmt)
    assert rc == 0
    assert sorted(map(sorted, calls)) == sorted(map(sorted, term_sets))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schubert_w_prints_the_json_of_its_class(capsys, n):
    # the rendering --all shares, at depth 0: the bytes of json.dumps
    for w in weylc.enumerate_weyl(n)[::48 if n == 4 else 1]:
        want = json.dumps(gkm.schubert_class(w).to_json(), indent=2, sort_keys=True) + "\n"
        assert run(capsys, "schubert", "--n", str(n), "--w", w.window_str()) == (0, want, "")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _write_tuple(path, tup):
    path.write_text(json.dumps(tup.to_json()))


def test_check_constant_tuples_pass(tmp_path, capsys):
    for model, tup in (
        ("T", gkm.GKMTupleT.constant(2, 3)),
        ("X", gkm.GKMTupleX.constant(2, 3)),
        ("G", gkm.GKMTupleG.constant(2, 3)),
    ):
        p = tmp_path / f"{model}.json"
        _write_tuple(p, tup)
        rc, out, _ = run(capsys, "check", "--model", model, "--input", str(p))
        assert rc == 0
        assert "OK" in out


def test_check_canonical_class_passes(tmp_path, capsys):
    p = tmp_path / "g.json"
    _write_tuple(p, gkm.canonical_class(1, 2))
    rc, _, _ = run(capsys, "check", "--model", "G", "--input", str(p))
    assert rc == 0


def test_check_perturbed_class_fails_with_witness(tmp_path, capsys):
    cls = gkm.canonical_class(1, 2)
    values = dict(cls.values)
    values[(1, 2)] = values[(1, 2)] + 1
    broken = gkm.GKMTupleG(2, values)
    p = tmp_path / "g.json"
    _write_tuple(p, broken)
    rc, out, _ = run(capsys, "check", "--model", "G", "--input", str(p), "--format", "json")
    assert rc == 1
    data = json.loads(out)
    assert data["violations"]
    v = data["violations"][0]
    assert sorted([v["index"], v["partner"]]) == [[1, 2], [2, 1]]


def test_check_division_past_the_exponent_limit_exits_2(tmp_path, capsys):
    # both exponents are inside the limit, but dividing x1^21845 + x2 by
    # x1 x2^-1 - 1 walks 21845 steps, each adding 1 to the exponent of x2
    limit = ringcore.EXPONENT_LIMIT
    values = {w: ringcore.LaurentPoly.zero(2) for w in gkm.GKMTupleT.model.vertices(2)}
    values[weylc.SignedPerm.identity(2)] = ringcore.LaurentPoly(
        2, {(limit * 2 // 3, 0): 1, (0, 1): 1})
    p = tmp_path / "t.json"
    _write_tuple(p, gkm.GKMTupleT(2, values))
    rc, out, err = run(capsys, "check", "--model", "T", "--input", str(p))
    assert rc == 2 and out == "" and "cannot check tuple" in err


def test_check_unprintable_remainder_exits_2(tmp_path, capsys):
    # c of 4 300 nines reads and prints, but the witness of c*X1 + c*X2 at
    # [1,2] against 0 at [2,1] is 2c*X2, one digit past the interpreter's
    # limit on printing an int
    c = int("9" * 4300)
    values = {tau: ringcore.XPoly.zero(2) for tau in weylc.all_perms(2)}
    values[(1, 2)] = ringcore.XPoly(2, {(1, 0): c, (0, 1): c})
    p = tmp_path / "g.json"
    _write_tuple(p, gkm.GKMTupleG(2, values))
    rc, out, err = run(capsys, "check", "--model", "G", "--input", str(p))
    assert rc == 2 and out == "" and "cannot print the violations" in err


def test_check_label_that_is_no_signed_permutation_exits_2(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"model": "T", "rank": 2, "values": {"[1,1]": [["1", [0, 0]]]}}))
    rc, out, err = run(capsys, "check", "--model", "T", "--input", str(p))
    assert (rc, out, err) == (2, "", "cannot read tuple: (1, 1) is not a permutation of 1..2\n")


def test_check_wrong_model_tag(tmp_path, capsys):
    p = tmp_path / "t.json"
    _write_tuple(p, gkm.GKMTupleT.constant(2, 1))
    rc, _, err = run(capsys, "check", "--model", "X", "--input", str(p))
    assert rc == 2 and "cannot read tuple: tuple is tagged model 'T', expected 'X'" in err


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_lists_max_length_representatives(capsys):
    rc, out, _ = run(capsys, "basis", "--n", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["representatives"] == {"[1,2]": [-1, -2], "[2,1]": [-2, -1]}


def test_check_wrong_index_set_is_a_parse_error(tmp_path, capsys):
    data = gkm.GKMTupleT.constant(2, 1).to_json()
    del data["values"]["[1,2]"]
    p = tmp_path / "partial.json"
    p.write_text(json.dumps(data))
    rc, _, err = run(capsys, "check", "--model", "T", "--input", str(p))
    assert rc == 2


@pytest.mark.parametrize("model, label, twin", [("G", "[1,2]", "[1, 2]"), ("T", "[-2,1]", "[-2, 1]")])
def test_check_refuses_a_fixed_point_named_twice(tmp_path, capsys, model, label, twin):
    # two spellings of one label: neither value may silently win
    data = getattr(gkm, f"GKMTuple{model}").constant(2, 1).to_json()
    assert label in data["values"]
    data["values"][twin] = [["5", [0, 0]]]
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(data))
    rc, out, err = run(capsys, "check", "--model", model, "--n", "2", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == "cannot read tuple: values name a fixed point twice\n"


def test_check_non_object_input_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "list.json"
    for body in ("[]", "[1, 2]", '"T"', '{"model": "T", "rank": 2, "values": []}'):
        p.write_text(body)
        rc, _, err = run(capsys, "check", "--model", "T", "--input", str(p))
        assert rc == 2, body
        assert "cannot read tuple" in err and "Traceback" not in err


def test_check_rank_must_match_n(tmp_path, capsys):
    # a rank-7 tuple under --n 2 is refused before any of its 645120 fixed
    # points is enumerated, so the rank cap on --n also caps the input
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"model": "T", "rank": 7, "values": {}}))
    rc, _, err = run(capsys, "check", "--model", "T", "--n", "2", "--input", str(p))
    assert rc == 2 and "rank" in err
    _write_tuple(p, gkm.GKMTupleX.constant(3, 1))
    rc, _, err = run(capsys, "check", "--model", "X", "--n", "2", "--input", str(p))
    assert rc == 2 and "expected 2" in err
    rc, _, _ = run(capsys, "check", "--model", "X", "--n", "3", "--input", str(p))
    assert rc == 0


# ---------------------------------------------------------------------------
# input validation: matrices, flags, environment
# ---------------------------------------------------------------------------

MATRIX_COMMANDS = ("decompose", "cell-index")


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_matrix_with_zero_denominator_is_a_parse_error(tmp_path, capsys, command):
    p = tmp_path / "m.json"
    p.write_text(json.dumps([[["1/0", "0", "0", "0"]]]))
    rc, _, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and "cannot read matrix" in err and "Traceback" not in err


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_empty_matrix_is_a_parse_error(tmp_path, capsys, command):
    p = tmp_path / "m.json"
    p.write_text("[]")
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_matrix_size_obeys_the_rank_cap(tmp_path, capsys, command):
    p = tmp_path / "m.json"
    _write_matrix(p, quatflag.QMatrix.identity(6))
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cap" in err
    rc, out, _ = run(capsys, command, "--input", str(p), "--unsafe-n", "--format", "json")
    assert rc == 0
    assert json.loads(out)["tau"] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("argv", [
    ("basis", "--n", "0"),
    ("basis", "--trials", "0"),
    ("basis", "--jobs", "0"),
    ("basis", "--n", "abc"),
    ("verify", "--suite", "gkm-t", "--mutate", "-1"),
], ids=["n-zero", "trials-zero", "jobs-zero", "n-not-int", "mutate-negative"])
def test_counts_must_be_positive_integers(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert argv[-2] in err and "Traceback" not in err


def test_verify_roots_checks_the_reflection_formula(capsys, monkeypatch):
    # -1 is an involution that negates (1, 1), so only the reflection
    # formula on the basis vectors tells it from the reflection of (1, 1)
    from qflagk import weylc

    real = weylc.reflection
    wrong = weylc.SignedPerm((-1, -2))
    monkeypatch.setattr(
        weylc, "reflection", lambda alpha: wrong if tuple(alpha) == (1, 1) else real(alpha)
    )
    rc, out, _ = run(capsys, "verify", "--suite", "roots", "--n", "2", "--format", "json")
    assert rc == 1
    report = json.loads(out)
    assert [(v["check"], v["root"]) for v in report["violations"]] == [
        ("reflection-formula", [1, 1])
    ]
    assert report["checks"] == 3 * 4 + 2 + 8 * 4 + 8 * 8 + 8


@pytest.mark.parametrize("suite", ["cells", "gkm-t", "theorem1", "gkm-x", "theorem2"])
def test_verify_reports_do_not_depend_on_jobs(capsys, suite):
    argv = ["verify", "--suite", suite, "--n", "3", "--trials", "6", "--seed", "3",
            "--format", "json"]
    if suite in ("gkm-t", "gkm-x"):
        argv += ["--mutate", "2"]
    reports = []
    for jobs in ("1", "2", "3"):
        _, out, _ = run(capsys, *argv, "--jobs", jobs)
        report = json.loads(out)
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
    if "--mutate" in argv:
        # --jobs 2 runs trial 0 first, then trials 1-3 and 4-5 in two workers
        assert {v["trial"] < 3 for v in reports[0]["violations"]} == {True, False}


@pytest.mark.parametrize("cpus, workers", [(None, 1), (3, 3)])
def test_trial_pool_has_at_most_one_worker_per_cpu(capsys, monkeypatch, cpus, workers):
    sizes, chunks = [], []

    class InlinePool:
        """Records its size and runs each chunk here: no worker is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            chunks.append(args)
            done = concurrent.futures.Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ["verify", "--suite", "gkm-t", "--n", "2", "--trials", "40", "--mutate", "1",
            "--format", "json"]
    reports = []
    for jobs in ("1", "100000"):
        rc, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert rc == 1
        report = json.loads(out)
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1]
    # the 39 trials after trial 0 are still split one per chunk
    assert sizes == [workers] and len(chunks) == 39


# ---------------------------------------------------------------------------
# JSON integers: a boolean or a float is not read as an integer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window", ["[true,2]", "[1.0,2]"], ids=["bool", "float"])
def test_schubert_window_entries_must_be_integers(capsys, window):
    rc, out, err = run(capsys, "schubert", "--n", "2", "--w", window)
    assert rc == 2 and out == "" and "bad window" in err


def test_matrix_entries_must_not_be_booleans(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps([[[True, False, False, False]]]))
    rc, out, err = run(capsys, "cell-index", "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_quaternion_must_be_a_list_not_a_string(tmp_path, capsys, command):
    # "1234" has four characters, but it is not four components
    p = tmp_path / "m.json"
    p.write_text(json.dumps([["1234"]]))
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


# ---------------------------------------------------------------------------
# matrix components are bounded at MAX_COMPONENT_DIGITS digits
# ---------------------------------------------------------------------------

Q_ONE = ["1", "0", "0", "0"]


def _diagonal_doc(entry, n):
    """The n x n matrix with ``entry`` on the diagonal and 1 elsewhere."""
    return [[entry if i == j else Q_ONE for j in range(n)] for i in range(n)]


def _dense_doc(digits, n=4, seed=0):
    """A dense n x n matrix whose components are fractions with numerators
    and denominators of exactly ``digits`` digits."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10 ** digits - 1
    return [[[f"{rng.choice([-1, 1]) * rng.randint(low, high)}/{rng.randint(low, high)}"
              for _ in range(4)] for _ in range(n)] for _ in range(n)]


def test_huge_exponent_component_is_a_parse_error(tmp_path, capsys):
    # 10**100000 over 1: the factors it led to overflowed the interpreter's
    # limit on printing an int, and decompose raised instead of exiting 2
    p = tmp_path / "m.json"
    p.write_text(json.dumps(_diagonal_doc(["1e100000", "1", "1", "1"], 2)))
    rc, out, err = run(capsys, "decompose", "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_huger_exponent_component_is_refused_before_it_is_expanded(tmp_path, capsys, command):
    # at 3x3 with 10**1000000 the row reduction itself ran for minutes
    p = tmp_path / "m.json"
    p.write_text(json.dumps(_diagonal_doc(["1e1000000", "1", "1", "1"], 3)))
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_dense_matrix_beyond_the_component_bound_is_a_parse_error(tmp_path, capsys, command):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(_dense_doc(MAX_COMPONENT_DIGITS + 1)))
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err
    p.write_text(json.dumps(_dense_doc(50)))  # factors of about 4 700 digits
    rc, out, err = run(capsys, command, "--input", str(p))
    assert rc == 2 and out == "" and "cannot read matrix" in err


def test_dense_matrix_at_the_component_bound_decomposes(tmp_path, capsys):
    doc = _dense_doc(MAX_COMPONENT_DIGITS)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "decompose", "--input", str(p), "--format", "json")
    assert rc == 0
    data = json.loads(out)
    g = quatflag.QMatrix.from_json(doc)
    u = quatflag.QMatrix.from_json(data["u"])
    b = quatflag.QMatrix.from_json(data["b"])
    assert u * quatflag.perm_matrix(tuple(data["tau"])) * b == g
    rc, out, _ = run(capsys, "cell-index", "--input", str(p), "--format", "json")
    assert rc == 0 and json.loads(out)["tau"] == data["tau"]


def test_unprintable_factors_above_the_cap_exit_2(tmp_path, capsys):
    # above the cap the bound no longer keeps the factors printable: a dense
    # 5x5 at the bound factors into components past the interpreter's limit
    # on the digits of an int, which used to raise from Fraction.__str__
    p = tmp_path / "m.json"
    p.write_text(json.dumps(_dense_doc(MAX_COMPONENT_DIGITS, n=5, seed=0)))
    rc, out, err = run(capsys, "decompose", "--input", str(p), "--unsafe-n")
    assert rc == 2 and out == "" and "cannot print the factors" in err


T1 ={"model": "T", "rank": 1, "values": {"[1]": [["1", [0]]], "[-1]": [["1", [0]]]}}


@pytest.mark.parametrize("model, n, doc", [
    ("T", 1, {**T1, "rank": True}),
    ("T", 1, {**T1, "rank": 1.9}),
    ("T", 1, {**T1, "values": {"[1]": [["1", [True]]], "[-1]": [["1", [0]]]}}),
    ("T", 1, {**T1, "values": {"[1]": [["1", [1]], ["1", [True]]], "[-1]": [["1", [0]]]}}),
    ("T", 1, {**T1, "values": {"[1]": [["1", [1]], ["1", [1.0]]], "[-1]": [["1", [0]]]}}),
    ("T", 1, {**T1, "values": {"[1]": [[True, [0]]], "[-1]": [["1", [0]]]}}),
    ("X", 2, {"model": "X", "rank": 2,
              "values": {"[true,2]": [["1", [0, 0]]], "[2,1]": [["1", [0, 0]]]}}),
    ("X", 2, {"model": "X", "rank": 2,
              "values": {'["1","2"]': [["1", [0, 0]]], '["2","1"]': [["1", [0, 0]]]}}),
], ids=["rank-bool", "rank-float", "exponent-bool",
        "exponent-bool-after-int", "exponent-float-after-int", "coefficient-bool", "vertex-bool",
        "vertex-string"])
def test_tuple_integers_must_be_integers(tmp_path, capsys, model, n, doc):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "check", "--model", model, "--n", str(n), "--input", str(p))
    assert rc == 2 and out == "" and "cannot read tuple" in err
