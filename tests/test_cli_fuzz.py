"""Hypothesis fuzz of the CLI input layer.

Arbitrary JSON documents go to ``decompose``, ``cell-index`` and ``check``,
arbitrary window text to ``schubert --w``, arbitrary tokens to the
counted flags of ``basis``, and flag values, well-formed or with one flag
broken, to ``verify --jobs 1``, to ``schubert`` and to ``decompose``,
``cell-index``, ``check`` and ``basis`` at ranks 1 to 3.
Whatever the input, ``main`` must return 0, 1 or 2: an exception a command
lets out exits 3, so a fuzzed input that reached a bug would exit 3.
Matrix documents include dense 4x4 ones and components at and beyond the
bound on their digits, such as ``"1e100000"`` and 60-digit numerators.
Exponents in the tuple documents are small (-2..2) or +-10 000, below a
third of the ring's limit: an edge is decided, and a failing edge's
witness formed, by residues in time that does not depend on the span;
only an X edge whose first factor alone divides walks the span in a long
division.  Exponents at and beyond the limit
(``ringcore.EXPONENT_LIMIT``), such as 2^62 and 10^30, are refused with
exit 2 wherever they appear in a well-formed document.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qflagk import weylc
from qflagk.cli import MAX_COMPONENT_DIGITS, SUITES, main
from qflagk.ringcore import EXPONENT_LIMIT

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
junk = st.sampled_from(["1/0", "x", "", "1e999"]) | any_json


def _signed(low, high):
    return st.tuples(st.sampled_from([-1, 1]), st.integers(low, high)).map(lambda t: t[0] * t[1])


# matrix components: small ones, ones at the bound on digits above and
# below the line, and ones beyond it, which exit 2 however they are written
D = MAX_COMPONENT_DIGITS
BOUND = 10 ** D - 1
at_bound = _signed(10 ** (D - 1), BOUND) | _signed(10 ** (D - 1), BOUND).map(str) | st.builds(
    "{}/{}".format, _signed(1, BOUND), st.integers(1, BOUND))
beyond = st.sampled_from(["1e100000", "-2.5e-100000", "1e1000000", "0e99999999", f"1e{D}",
                          f"1e-{D}", f" 1e{D} "]) \
    | _signed(10 ** 59, 10 ** 70) | _signed(10 ** 59, 10 ** 70).map(str) \
    | st.builds("1/{}".format, st.integers(10 ** D, 10 ** 70))
rational = st.sampled_from(["0", "1", "-1", "1/2", "-2/3"]) | st.integers(-3, 3) | at_bound
clean_quaternion = st.lists(rational, min_size=4, max_size=4)
quaternion = clean_quaternion | st.lists(rational | beyond | junk, max_size=5)


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


# dense 4x4 documents at the default rank cap: all within the bound, or with
# components beyond it mixed in
dense = _square(4, clean_quaternion) | _square(4, st.lists(rational | beyond, min_size=4, max_size=4))
matrices = st.integers(0, 3).flatmap(lambda n: _square(n, quaternion)) \
    | st.lists(st.lists(quaternion, max_size=3), max_size=3) | dense | any_json

# rank-2 fixed points: the T-model's signed windows, the X/G-models' permutations
VERTICES = {
    "T": ["[1,2]", "[2,1]", "[-1,2]", "[1,-2]", "[-1,-2]", "[2,-1]", "[-2,1]", "[-2,-1]"],
    "X": ["[1,2]", "[2,1]"],
    "G": ["[1,2]", "[2,1]"],
}
polynomial = st.lists(
    st.tuples(
        st.sampled_from(["1", "-1", "2", "0"]) | st.integers(-3, 3),
        st.lists(st.integers(-2, 2) | st.sampled_from([-10_000, 10_000]), min_size=2, max_size=2),
    ).map(list),
    max_size=3,
)
well_formed = st.sampled_from("TXG").flatmap(lambda model: st.fixed_dictionaries({
    "model": st.just(model),
    "rank": st.just(2),
    "values": st.fixed_dictionaries({key: polynomial for key in VERTICES[model]}),
}))
# exponents at and beyond the limit, which no model reads
beyond_limit = st.sampled_from([EXPONENT_LIMIT, -EXPONENT_LIMIT, 2**62, -2**62, 10**30, -10**30])
tuples = well_formed | st.fixed_dictionaries({
    "model": st.sampled_from("TXG") | any_json,
    "rank": st.sampled_from([2, 1, 3, 0, -1, "2", 2.5, 1e999]) | any_json,
    "values": st.dictionaries(
        st.sampled_from(VERTICES["T"] + ["[1]", "[1,1]", "[0,1]"]) | st.text(max_size=5),
        polynomial | junk,
        max_size=8,
    ) | any_json,
}) | any_json


def signed_windows(n):
    return st.permutations(range(1, n + 1)).flatmap(lambda perm: st.lists(
        st.sampled_from([1, -1]), min_size=n, max_size=n,
    ).map(lambda signs: [s * v for s, v in zip(signs, perm)]))


# a valid window of the requested rank, of another rank, or anything else
schubert_args = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    (signed_windows(n) | st.integers(1, 4).flatmap(signed_windows) | any_json).map(json.dumps)
    | st.text(max_size=8),
))

tokens = st.sampled_from(["0", "1", "-1", "4", "5", "1_0", " 2", "+3", "1e3", "--n"]) \
    | st.integers(-10**30, 10**30).map(str) | st.text(max_size=5)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    return rc


def _run_on_document(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return _run([*argv, "--input", str(path)])


@FUZZ
@given(doc=matrices, command=st.sampled_from(["decompose", "cell-index"]))
def test_matrix_commands_keep_the_exit_code_contract(doc, command):
    _run_on_document([command, "--format", "json"], doc)


@FUZZ
@given(doc=tuples, model=st.sampled_from(["T", "X", "G"]))
def test_check_keeps_the_exit_code_contract(doc, model):
    _run_on_document(["check", "--model", model], doc)


@FUZZ
@given(doc=well_formed, exponent=beyond_limit, data=st.data())
def test_check_refuses_exponents_beyond_the_limit(doc, exponent, data):
    # one term of one fixed point gets the exponent, in one of its slots
    key = data.draw(st.sampled_from(sorted(doc["values"])))
    terms = doc["values"][key]
    if not terms:
        terms.append(["1", [0, 0]])
    term = data.draw(st.sampled_from(terms))
    term[1][data.draw(st.integers(0, 1))] = exponent
    assert _run_on_document(["check", "--model", doc["model"]], doc) == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(args=schubert_args)
def test_schubert_window_keeps_the_exit_code_contract(args):
    n, window = args
    _run(["schubert", "--n", str(n), "--w", window])


@FUZZ
@given(flag=st.sampled_from(["--n", "--trials", "--jobs"]), token=tokens)
def test_count_flags_keep_the_exit_code_contract(flag, token):
    _run(["basis", flag, token])



# verify flags: well-formed values, and values that break the flag
VERIFY_FLAGS = {
    "--suite": (st.sampled_from(sorted(SUITES)),
                st.sampled_from(["", "Roots", "gkm", "--n"]) | st.text(max_size=5)
                .filter(lambda s: s not in SUITES)),
    "--n": (st.sampled_from(["1", "2"]), st.sampled_from(["5", "0", "-1", "x", "1.5", ""])),
    "--trials": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x", "1.5", ""])),
    "--mutate": (st.integers(0, 2).map(str), st.sampled_from(["-1", "x", "1.5", "", "1e3"])),
    "--seed": (st.integers(-3, 12).map(str), st.sampled_from(["x", "1.5", "", "1e3"])),
}


@st.composite
def verify_argv(draw):
    # at most one broken flag, so that a well-formed run is drawn often
    broken = draw(st.sampled_from([None] * 5 + list(VERIFY_FLAGS)))
    argv = ["verify"]
    for flag, (good, bad) in VERIFY_FLAGS.items():
        argv += [flag, draw(bad if flag == broken else good)]
    return broken, argv + ["--jobs", "1"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(drawn=verify_argv())
def test_verify_keeps_the_exit_code_contract(drawn):
    # one process and no --output: every outcome comes back through main
    broken, argv = drawn
    rc = _run(argv)
    assert (rc == 2) == (broken is not None), (argv, rc)


# schubert flags: --w or --all, --n and --format, with at most one broken;
# a broken target is a bad window, both --w and --all, or neither
BAD_WINDOWS = st.sampled_from(["", "x", "[0,1]", "[1,1]", "[1,2", "[1.0]", "[true]", "[[1]]"])


@st.composite
def schubert_argv(draw):
    broken = draw(st.sampled_from([None] * 4 + ["target", "--n", "--format"]))
    n = draw(st.integers(1, 3))
    window = json.dumps(draw(signed_windows(n)))
    argv = ["schubert",
            "--n", draw(VERIFY_FLAGS["--n"][1]) if broken == "--n" else str(n),
            "--format", draw(st.sampled_from(["xml", "", "JSON"]) if broken == "--format"
                             else st.sampled_from(["json", "text"]))]
    if broken == "target":
        wrong_rank = st.integers(1, 4).filter(lambda m: m != n).flatmap(signed_windows)
        target = draw(st.sampled_from([[], ["--all", "--w", window]])
                      | (BAD_WINDOWS | wrong_rank.map(json.dumps)).map(lambda w: ["--w", w]))
    else:
        target = draw(st.sampled_from([["--all"], ["--w", window]]))
    return broken, argv + target


# 60 examples: a rank-3 --all run prints the whole table, about 0.2 s
@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=schubert_argv())
def test_schubert_keeps_the_exit_code_contract(drawn):
    broken, argv = drawn
    rc = _run(argv)
    assert (rc == 2) == (broken is not None), (argv, rc)


# decompose, cell-index, check and basis: a well-formed document of rank
# --n, or one flag broken; a broken --input is a missing file or a document
# that is not JSON, and a broken --model is not a model or not the tag of
# the document
small = st.sampled_from(["0", "1", "-1", "1/2", "-2/3"]) | st.integers(-3, 3)
DATA_FLAGS = {
    "--format": (st.sampled_from(["json", "text"]), st.sampled_from(["xml", "", "JSON"])),
    "--seed": VERIFY_FLAGS["--seed"],
    "--trials": VERIFY_FLAGS["--trials"],
    "--jobs": (st.integers(1, 3).map(str), VERIFY_FLAGS["--trials"][1]),
}


def _fixed_points(model, n):
    if model == "T":
        return [w.window_str() for w in weylc.enumerate_weyl(n)]
    return [weylc.perm_embed(tau).window_str() for tau in weylc.all_perms(n)]


@st.composite
def data_argv(draw):
    command = draw(st.sampled_from(["decompose", "cell-index", "check", "basis"]))
    flags = ["--n", *DATA_FLAGS] + (["--input"] if command != "basis" else []) \
        + (["--model"] if command == "check" else [])
    broken = draw(st.sampled_from([None] * 4 + flags))
    n = draw(st.integers(1, 3))
    argv = [command, "--n", draw(VERIFY_FLAGS["--n"][1]) if broken == "--n" else str(n)]
    for flag, (good, bad) in DATA_FLAGS.items():
        argv += [flag, draw(bad if flag == broken else good)]
    doc = None
    if command == "check":
        # a constant tuple, or one that is 1 more at one fixed point
        model = draw(st.sampled_from("TXG"))
        points = _fixed_points(model, n)
        value = draw(st.lists(st.tuples(st.integers(-3, 3).map(str), st.lists(
            st.integers(0, 2), min_size=n, max_size=n)).map(list), max_size=2))
        bumped = draw(st.sampled_from([None, *points]))
        doc = {"model": model, "rank": n, "values": {
            p: value + [["1", [0] * n]] * (p == bumped) for p in points}}
        argv += ["--model", draw(st.sampled_from(["t", "Y", ""] + [m for m in "TXG" if m != model]))
                 if broken == "--model" else model]
    elif command != "basis":
        doc = draw(_square(n, st.lists(small, min_size=4, max_size=4)))
    if broken == "--input":
        doc = draw(st.sampled_from([None, "{", "[1,"]))
    return broken, argv, doc


# 80 examples: the slowest, a rank-3 T-check, takes about 0.02 s
@settings(max_examples=80, deadline=None, derandomize=True)
@given(drawn=data_argv())
def test_data_commands_keep_the_exit_code_contract(drawn):
    broken, argv, doc = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if isinstance(doc, str):
            path.write_text(doc)
        elif doc is not None:
            path.write_text(json.dumps(doc))
        rc = _run(argv + ["--input", str(path)] * (argv[0] != "basis"))
    assert rc in (0, 1, 2) and (rc == 2) == (broken is not None), (argv, doc, rc)
