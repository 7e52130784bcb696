import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroot import cli


@pytest.fixture
def a2_path(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text('{"n": 2, "a": [[2, -1], [-1, 2]]}')
    return str(p)


@pytest.fixture
def affine_a1_path(tmp_path):
    p = tmp_path / "aff.json"
    p.write_text('{"n": 2, "a": [[2, -2], [-2, 2]]}')
    return str(p)


@pytest.fixture
def affine_a2_path(tmp_path):
    p = tmp_path / "aff2.json"
    p.write_text('{"n": 3, "a": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}')
    return str(p)


def run(argv, capsys):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_length(a2_path, capsys):
    code, out, err = run(["weyl", "length", "--gcm", a2_path, "--word", "0,1,0"], capsys)
    assert code == 0
    assert out.strip() == "3"
    assert err.startswith("# twinroot weyl length")


def test_roots_interval(a2_path, capsys):
    code, out, _ = run(["roots", "interval", "--gcm", a2_path, "--alpha", "0", "--beta", "1"], capsys)
    assert code == 0
    assert json.loads(out) == [[0, 1], [1, 0], [1, 1]]


def test_trd_twintree_dot_panel_degrees(capsys):
    code, out, _ = run(
        ["trd", "twintree", "--group", "su3", "--q", "2", "--radius", "2", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph")
    # base chamber degree = (1+q - 1) + (1+q^3 - 1) = 2 + 8
    base_edges = [ln for ln in out.splitlines() if ln.strip().startswith("n0 ->")]
    degrees = {}
    for ln in base_edges:
        t = ln.split("label=")[1].split(",")[0].strip("];")
        degrees[t] = degrees.get(t, 0) + 1
    assert degrees == {"0": 2, "1": 8}


def test_byte_stable_output(a2_path, capsys):
    _, out1, _ = run(["weyl", "ball", "--gcm", a2_path, "--radius", "3"], capsys)
    _, out2, _ = run(["weyl", "ball", "--gcm", a2_path, "--radius", "3"], capsys)
    assert out1 == out2
    _, tree1, _ = run(["trd", "twintree", "--group", "sl2", "--q", "2", "--radius", "2"], capsys)
    _, tree2, _ = run(["trd", "twintree", "--group", "sl2", "--q", "2", "--radius", "2"], capsys)
    assert tree1 == tree2


def test_exit_codes(a2_path, affine_a1_path, affine_a2_path, capsys, tmp_path):
    # invalid input: 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "a": [[3]]}')
    code, _, err = run(["weyl", "coxeter", "--gcm", str(bad)], capsys)
    assert code == 1 and "error" in err
    # missing file: 1
    code, _, _ = run(["weyl", "coxeter", "--gcm", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    # prenilpotency needs no search radius: decided even at radius 0
    code, out, err = run(
        [
            "roots", "prenilpotent", "--gcm", affine_a1_path,
            "--alpha", "3,2", "--beta=-2,-1", "--search-radius", "0",
        ],
        capsys,
    )
    assert code == 0 and out == "false\n"
    # radius-0 interval witnesses come from the dihedral walk, not a ball
    code, out, _ = run(
        ["roots", "interval", "--gcm", a2_path, "--alpha", "0", "--beta", "1", "--search-radius", "0"],
        capsys,
    )
    assert code == 0 and json.loads(out) == [[0, 1], [1, 0], [1, 1]]
    # affine membership is exact: the radius plays no part
    code, out, _ = run(
        [
            "roots", "interval", "--gcm", affine_a2_path,
            "--alpha=-1,0,0", "--beta", "0,1,1", "--search-radius", "0",
        ],
        capsys,
    )
    assert code == 0 and json.loads(out) == [[-1, 0, 0], [0, 1, 1]]
    # undecided: 2 (on an indefinite GCM a radius-0 ball starves a membership certificate)
    h3 = tmp_path / "h3.json"
    h3.write_text('{"n": 3, "a": [[2, -1, 0], [-1, 2, -2], [0, -2, 2]]}')
    code, _, err = run(
        ["roots", "interval", "--gcm", str(h3), "--alpha=-2,-2,-1", "--beta=-1,0,0", "--search-radius", "0"],
        capsys,
    )
    assert code == 2 and "containment test for candidate (-1, -1, 0) undecided at radius 0" in err
    # a missing root argument: 1, one error line
    code, out, err = run(["roots", "positive", "--gcm", a2_path], capsys)
    assert code == 1 and out == "" and err.count("\nerror: ") == 1


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["weyl", "length", "--bogus", "x"])
    assert exc.value.code == 1


def test_help_texts_name_flags(capsys):
    for verb, sub in [
        ("gcm", "validate"),
        ("weyl", "length"),
        ("roots", "interval"),
        ("cone", "fold"),
        ("group", "bruhat"),
        ("trd", "twintree"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([verb, sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--gcm", "--word", "--alpha", "--beta", "--group", "--q",
                     "--radius", "--format", "--level-window", "--search-radius",
                     "--seed"):
            assert flag in text


def test_gcm_commands(a2_path, capsys):
    code, out, _ = run(["gcm", "validate", "--gcm", a2_path], capsys)
    assert code == 0 and json.loads(out)["valid"]
    code, out, _ = run(["gcm", "sc", "--gcm", a2_path], capsys)
    assert json.loads(out)["c"] == [[2, -1], [-1, 2]]
    code, out, _ = run(["gcm", "dual", "--gcm", a2_path], capsys)
    assert code == 0


def test_weyl_misc(a2_path, affine_a1_path, capsys):
    code, out, _ = run(["weyl", "coxeter", "--gcm", a2_path, "--format", "tsv"], capsys)
    assert out.splitlines() == ["1\t3", "3\t1"]
    code, out, _ = run(["weyl", "order", "--gcm", affine_a1_path], capsys)
    assert json.loads(out) is None
    code, out, _ = run(["weyl", "reduced", "--gcm", a2_path, "--word", "0,1,0,1"], capsys)
    assert json.loads(out) is False


def test_roots_misc(a2_path, capsys):
    code, out, _ = run(["roots", "ball", "--gcm", a2_path, "--radius", "3"], capsys)
    assert len(json.loads(out)) == 6
    code, out, _ = run(["roots", "nibbling", "--gcm", a2_path], capsys)
    assert json.loads(out) == [[1, 0], [1, 1], [0, 1]]
    code, out, _ = run(["roots", "positive", "--gcm", a2_path, "--alpha", "1,1"], capsys)
    assert json.loads(out) is True


def test_cone_commands(affine_a2_path, capsys):
    code, out, _ = run(["cone", "fold", "--gcm", affine_a2_path, "--word", "0,2,1"], capsys)
    data = json.loads(out)
    assert data["orbits"] == [[0], [1, 2]]
    assert data["m"] == [[1, None], [None, 1]]
    code, out, _ = run(["cone", "fixed", "--gcm", affine_a2_path, "--word", "0,2,1"], capsys)
    assert len(json.loads(out)) == 2


def test_cone_folds_by_the_group_the_permutation_generates(affine_a2_path, tmp_path, capsys):
    three_a2 = tmp_path / "a2x3.json"
    three_a2.write_text(json.dumps(
        {"n": 6, "a": [[2 if i == j else -1 if i // 2 == j // 2 else 0 for j in range(6)] for i in range(6)]}
    ))
    code, out, _ = run(["cone", "fold", "--gcm", str(three_a2), "--word", "2,3,4,5,0,1"], capsys)
    assert code == 0 and out == '{"m": [[1, 3], [3, 1]], "orbits": [[0, 2, 4], [1, 3, 5]]}\n'
    code, out, _ = run(["cone", "fixed", "--gcm", affine_a2_path, "--word", "1,2,0"], capsys)
    assert code == 0 and json.loads(out) == [[{"num": 1, "den": 1}] * 3]
    code, out, lines = _run_fresh(["cone", "fold", "--gcm", affine_a2_path, "--word", "1,2,0"])
    assert (code, out, lines) == (1, "", ["error: orbit (0, 1, 2) spans a non-spherical subdiagram"])
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["cone", "fold", "--help"])
    assert "fold by the group it generates" in " ".join(capsys.readouterr().out.split())


def test_group_commands(capsys, monkeypatch):
    code, out, _ = run(["group", "su3", "--q", "3"], capsys)
    data = json.loads(out)
    assert data["metabelian_order"] == 27 and data["metabelian_center"] == 3
    from twinroot.chevalley import loop_group

    G = loop_group(2, 2)
    g = G._canonical_s(1) * G._canonical_s(0)
    monkeypatch.setattr("sys.stdin", io.StringIO(g.to_json()))
    code, out, _ = run(["group", "bruhat", "--group", "sl2", "--q", "2"], capsys)
    assert json.loads(out)["word"] == [1, 0]
    monkeypatch.setattr("sys.stdin", io.StringIO(g.to_json()))
    code, out, _ = run(["group", "birkhoff", "--group", "sl2", "--q", "2"], capsys)
    assert code == 0


def test_trd_check_cli(capsys):
    code, out, _ = run(["trd", "check", "--group", "sl2", "--q", "3", "--level-window", "1"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(["trd", "check", "--group", "su3", "--q", "2", "--level-window", "1"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(["trd", "rsd", "--group", "su3", "--q", "2"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv", [["trd", "check", "--group", "sl2", "--q", "3", "--level-window", "1"], ["trd", "rsd", "--group", "su3"]]
)
def test_trd_reports_use_the_search_radius(argv, capsys):
    # the stderr echo and the report's config name the same radius
    code, out, err = run(argv + ["--search-radius", "5"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["search_radius"] == 5
    assert '"search_radius": 5' in err
    _, default_out, _ = run(argv, capsys)
    assert json.loads(default_out)["config"]["search_radius"] == 8
    _, eight_out, _ = run(argv + ["--search-radius", "8"], capsys)
    assert eight_out == default_out


def test_group_bruhat_failed_factorization_is_a_typed_error(capsys, monkeypatch):
    # digits outside 0..p-1 are rejected when the matrix is read, before any
    # field table is indexed: exit 1, one error line, nothing on stdout
    for digit in (-1, 7):
        text = '{"n": 2, "entries": [[[{"k": 0, "c": [%d]}], []], [[], [{"k": 0, "c": [1]}]]]}' % digit
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(["group", "bruhat", "--group", "sl2", "--q", "2"], capsys)
        assert code == 1 and out == ""
        lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
        assert lines == [f"error: coefficient [{digit}] is not 1 to 1 base-2 digits"]


def _identity_json(n):
    rows = [[[{"k": 0, "c": [1]}] if i == j else [] for j in range(n)] for i in range(n)]
    return json.dumps({"n": n, "entries": rows})


@pytest.mark.parametrize(
    "verb, group, text",
    [
        ("bruhat", "sl2", '{"n": 2, "entries": [[[{"k": 0, "c": 1}], []], [[], [{"k": 0, "c": [1]}]]]}'),
        ("bruhat", "sl2", '{"n": 2, "entries": [[[[0, 1]], []], [[], [{"k": 0, "c": [1]}]]]}'),
        ("bruhat", "sl2", '{"n": 2, "entries": [[[{"k": [0], "c": [1]}], []], [[], [{"k": 0, "c": [1]}]]]}'),
        ("bruhat", "sl2", '{"n": 2, "entries": [1, 2]}'),
        ("bruhat", "sl2", "[1, 2]"),
        ("birkhoff", "sl2", _identity_json(3)),
        ("bruhat", "sl3", _identity_json(2)),
        ("bruhat", "sl2", '{"n": true, "entries": [[[{"k": 0, "c": [1]}]]]}'),
        ("bruhat", "sl2", '{"n": 2, "entries": [[[{"k": true, "c": [1]}], []], [[], [{"k": -1, "c": [1]}]]]}'),
        # 1 + 1 = 0 over F_2: a repeated exponent is rejected, not read as its last term
        ("bruhat", "sl2",
         '{"n": 2, "entries": [[[{"k": 0, "c": [1]}, {"k": 0, "c": [1]}], []], [[], [{"k": 0, "c": [1]}]]]}'),
        ("bruhat", "sl2", '{"n": 2, "entries": [[[{"k": 0}], []], [[], [{"k": 0, "c": [1]}]]]}'),
    ],
    ids=[
        "coefficient_not_a_list", "term_not_an_object", "exponent_not_an_int", "row_not_a_list", "not_an_object",
        "3x3_for_sl2", "2x2_for_sl3", "size_is_a_bool", "exponent_is_a_bool", "repeated_exponent",
        "term_without_digits",
    ],
)
def test_group_bruhat_malformed_matrices_are_typed_errors(verb, group, text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(["group", verb, "--group", group, "--q", "2"], capsys)
    assert code == 1 and out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "a, alpha",
    [
        ('[[2, -2], [-2, 2]]', "1,1"),  # delta of affine A1, an imaginary root
        ('[[2, -1], [-1, 2]]', "1,2"),
        ('[[2, -1, 0], [-1, 2, -2], [0, -2, 2]]', "1,1,1"),  # H3
    ],
    ids=["affine_A1", "A2", "H3"],
)
def test_roots_commands_reject_non_real_vectors(a, alpha, capsys, tmp_path):
    path = tmp_path / "gcm.json"
    path.write_text('{"n": %d, "a": %s}' % (alpha.count(",") + 1, a))
    for argv in (
        ["roots", "positive", "--alpha", alpha],
        ["roots", "prenilpotent", "--alpha", alpha, "--beta", "0"],
        ["roots", "interval", "--alpha", "0", "--beta", alpha],
    ):
        code, out, err = run([*argv, "--gcm", str(path)], capsys)
        assert code == 1 and out == ""
        lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
        assert lines == [f"error: ({alpha.replace(',', ', ')}) is not a real root"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group", "mu", "--group", "sl2", "--alpha", "5"], "error: --alpha takes one node index in 0..1, got '5'"),
        (["group", "mu", "--group", "sl2", "--alpha", "-1"], "error: --alpha takes one node index in 0..1, got '-1'"),
        (["group", "mu", "--group", "sl3", "--alpha", "1,2"], "error: --alpha takes one node index in 0..2, got '1,2'"),
        (["group", "mu", "--group", "sl3", "--alpha", ""], "error: --alpha takes one node index in 0..2, got ''"),
        (["roots", "positive", "--alpha", "7"], "error: simple root index 7 outside 0..1"),
        (["roots", "prenilpotent", "--alpha", "0", "--beta", "-1"], "error: simple root index -1 outside 0..1"),
    ],
    ids=["mu_past_the_last_node", "mu_negative_node", "mu_two_nodes", "mu_no_node", "positive_past_the_rank",
         "negative_beta"],
)
def test_index_arguments_out_of_range(argv, message, a2_path, capsys):
    code, out, err = run([*argv, "--gcm", a2_path], capsys)
    lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
    assert code == 1 and out == "" and lines == [message]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "positive", "--alpha", ","],
        ["roots", "positive", "--alpha", "0,"],
        ["roots", "positive", "--alpha", "1,,0"],
        ["weyl", "length", "--word", "0,,1"],
    ],
    ids=["only_a_comma", "trailing_comma", "inner_empty_field", "word_inner_empty_field"],
)
def test_csv_empty_fields_are_rejected(argv, a2_path, capsys):
    code, out, err = run([*argv, "--gcm", a2_path], capsys)
    lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
    assert code == 1 and out == ""
    assert lines == [f"error: empty field in the comma-separated list {argv[-1]!r}"]


def test_missing_word_is_the_empty_word(a2_path, capsys):
    for argv in (["weyl", "length"], ["weyl", "length", "--word", ""]):
        code, out, _ = run([*argv, "--gcm", a2_path], capsys)
        assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trd", "check"], "error: trd check expects --group sl2, sl3 or su3"),
        (["trd", "twintree"], "error: trd twintree expects --group sl2, sl3 or su3"),
        (["group", "mu"], "error: matrix commands expect --group sl2 or sl3"),
    ],
    ids=["trd_check", "trd_twintree", "group_mu"],
)
def test_missing_group_names_the_groups_the_verb_takes(argv, message, capsys):
    code, out, err = run(argv, capsys)
    lines = [ln for ln in err.splitlines() if not ln.startswith("# twinroot ")]
    assert code == 1 and out == "" and lines == [message]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_LOADED = """
import contextlib, io, json, sys
from twinroot import cli
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    if code != 0:
        sys.exit(f"{argv} exited with {code}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "twinroot")))
"""
_MATRIX_LAYERS = {"twinroot.fields", "twinroot.laurent", "twinroot.chevalley", "twinroot.descent", "twinroot.trd"}


def _modules_loaded_by(calls):
    """The twinroot modules a fresh interpreter holds after importing the
    CLI and running each (argv, stdin) of calls through cli.dispatch."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(calls)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_importing_the_cli_loads_only_gcm_and_errors():
    assert _modules_loaded_by([]) == {"twinroot", "twinroot.cli", "twinroot.errors", "twinroot.gcm"}


@pytest.mark.parametrize(
    "verb, subverbs, extra",
    [
        ("gcm", ["validate", "sc", "adjoint", "dual"], []),
        ("weyl", ["coxeter", "length", "reduced", "ball", "order"], ["--word", "0,1"]),
        ("roots", ["ball", "positive", "prenilpotent", "interval", "nibbling"], ["--alpha", "0", "--beta", "1"]),
        ("cone", ["fold", "fixed"], ["--word", "1,0"]),
    ],
)
def test_gcm_level_verbs_load_no_matrix_layer(verb, subverbs, extra, a2_path):
    loaded = _modules_loaded_by([([verb, sv, "--gcm", a2_path, *extra], "") for sv in subverbs])
    assert f"twinroot.{verb}" in loaded and not loaded & _MATRIX_LAYERS


def test_matrix_group_verbs_load_neither_descent_nor_trd():
    from twinroot.chevalley import loop_group

    g = loop_group(2, 2)._canonical_s(1).to_json()
    calls = [(["group", sv, "--group", "sl2"], g) for sv in ("mu", "bruhat", "birkhoff")]
    loaded = _modules_loaded_by(calls)
    # chevalley does not import roots either, which keeps loop-group work off the root layer
    assert "twinroot.chevalley" in loaded and not loaded & {"twinroot.descent", "twinroot.trd", "twinroot.roots"}


_VERBS = {
    "gcm": ["validate", "sc", "adjoint", "dual"],
    "weyl": ["coxeter", "length", "reduced", "ball", "order"],
    "roots": ["ball", "positive", "prenilpotent", "interval", "nibbling"],
    "cone": ["fold", "fixed"],
    "group": ["mu", "bruhat", "birkhoff", "su3"],
    "trd": ["check", "rsd", "twintree"],
}


def _reference_parser():
    """The parser with the common options added to each subverb parser on
    its own, as the shared option parser replaces."""
    parser = cli._Parser(prog="twinroot")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, subverbs in _VERBS.items():
        subs = verbs.add_parser(verb).add_subparsers(dest="subverb", required=True)
        for sv in subverbs:
            cli._add_common(subs.add_parser(sv))
    return parser


def _parse(parser, argv):
    """(Namespace or the exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_help_matches_the_reference_parser():
    # each verb's help lists its subverbs, so the two parsers have the same 23
    calls = [["--help"]] + [[verb, "--help"] for verb in _VERBS]
    calls += [[verb, sv, "--help"] for verb, subverbs in _VERBS.items() for sv in subverbs]
    for argv in calls:
        got = _parse(cli.build_parser(), argv)
        assert got[0] == 0 and got == _parse(_reference_parser(), argv), argv


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gcm", "validate", "--gcm", "a.json"], None),
        (["weyl", "ball", "--gcm", "a.json", "--radius", "3", "--format", "tsv"], None),
        (["roots", "interval", "--alpha", "0", "--beta=-1,0", "--search-radius", "0"], None),
        (["cone", "fixed", "--word", "0,2,1", "--alpha", "0"], None),
        (["group", "mu", "--group", "sl3", "--q", "3", "--seed", "5"], None),
        (["trd", "check", "--group", "su3", "--level-window", "1"], None),
        (["trd", "check", "--level-window", "-1"], 1),
        (["weyl", "length", "--bogus", "x"], 1),
        (["group", "bruhat", "--q", "5"], 1),
        (["trd"], 1),
    ],
)
def test_parse_matches_the_reference_parser(argv, code):
    got = _parse(cli.build_parser(), argv)
    assert got == _parse(_reference_parser(), argv)
    assert got[0] == code if code is not None else got[0].verb == argv[0]


def _run_fresh(argv):
    """(exit code, stdout, stderr lines other than the config echo) of one
    CLI call; argparse rejections leave by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), [ln for ln in err.getvalue().splitlines() if not ln.startswith("# twinroot ")]


_JSON_LEAVES = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["a", "n", "b"]), kids, max_size=3),
    max_leaves=8,
)
_NOT_AN_INT = (
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3) | st.lists(st.integers(), max_size=2)
)


@st.composite
def _malformed_gcm_json(draw):
    kind = draw(st.sampled_from(["not-an-object", "no-a", "a-not-rows", "bad-entry"]))
    if kind == "not-an-object":
        return json.dumps(draw(_JSON.filter(lambda v: not isinstance(v, dict))))
    if kind == "no-a":
        return json.dumps(draw(st.dictionaries(st.sampled_from(["n", "b"]), _JSON, max_size=3)))
    if kind == "a-not-rows":
        rows = draw(_JSON.filter(lambda v: not isinstance(v, list) or not all(isinstance(r, list) for r in v)))
        return json.dumps({"a": rows})
    rows = [[2, -1], [-1, 2]]
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    rows[i][j] = draw(_NOT_AN_INT)
    return json.dumps({"a": rows})


@settings(max_examples=80, deadline=None)
@example("[1,2]")
@example("null")
@example('{"a": 5}')
@example('{"a": [[2, -1.5], [-1, 2]]}')
@example('{"a": [[2, true], [-1, 2]]}')
@given(_malformed_gcm_json())
def test_cli_rejects_malformed_gcm_json(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gcm.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, lines = _run_fresh(["gcm", "validate", "--gcm", path])
    assert code == 1 and out == "" and len(lines) == 1 and lines[0].startswith("error: "), (text, lines)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [["roots", "ball"], ["weyl", "ball"], ["trd", "check", "--group", "sl2"], ["trd", "twintree"],
         ["roots", "interval"]]
    ),
    st.sampled_from(["--radius", "--level-window", "--search-radius"]),
    st.integers(max_value=-1),
    st.booleans(),
)
def test_cli_rejects_negative_numeric_flags(command, flag, value, joined):
    argv = [*command, f"{flag}={value}"] if joined else [*command, flag, str(value)]
    code, out, lines = _run_fresh(argv)
    assert code == 1 and out == "" and len(lines) == 1 and "is negative" in lines[0], (argv, lines)


@settings(max_examples=60, deadline=None)
@example([5])
@given(st.lists(st.integers(-5, 8), min_size=1, max_size=3).filter(lambda s0: any(not 0 <= i < 3 for i in s0)))
def test_cli_rejects_s0_out_of_range(s0):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "aff2.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"n": 3, "a": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}')
        alpha = ",".join(map(str, s0))
        code, out, lines = _run_fresh(["cone", "fixed", "--gcm", path, "--word", "0,2,1", f"--alpha={alpha}"])
    assert code == 1 and out == "" and len(lines) == 1 and "outside 0..2" in lines[0], (s0, lines)


_NOT_DIGITS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
    | st.lists(st.integers() | st.booleans() | st.floats(allow_nan=False), max_size=3).filter(
        lambda c: not (len(c) == 1 and type(c[0]) is int and c[0] in (0, 1))
    )
)


@st.composite
def _bad_matrix_call(draw):
    """(argv, stdin) of a group bruhat|birkhoff call over F_2 whose matrix
    is malformed, of the wrong size for the group, not of determinant 1 or
    beyond the degree window; the base matrix is the identity."""
    n = draw(st.sampled_from([2, 3]))
    data = json.loads(_identity_json(n))
    entries = data["entries"]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(
        ["not-an-object", "bad-n", "bad-entries", "bad-term", "bad-k", "bad-c", "wrong-size", "det", "window"]
    ))
    if kind == "not-an-object":
        data = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "bad-n":
        data["n"] = draw(_NOT_AN_INT)
    elif kind == "bad-entries":
        def square(v):
            return isinstance(v, list) and len(v) == n and all(isinstance(r, list) and len(r) == n for r in v)

        data["entries"] = draw(_JSON.filter(lambda v: not square(v)))
    elif kind == "bad-term":
        not_a_list = _JSON.filter(lambda v: not isinstance(v, list))
        not_a_dict = _JSON.filter(lambda v: not isinstance(v, dict))
        entries[i][j] = draw(not_a_list | st.lists(not_a_dict, min_size=1, max_size=2))
    elif kind == "bad-k":
        entries[i][j] = [{"k": draw(_NOT_AN_INT), "c": [1]}]
    elif kind == "bad-c":
        entries[i][j] = [{"k": 0, "c": draw(_NOT_DIGITS)}]
    elif kind == "det":
        entries[0][0] = [{"k": draw(st.integers(-8, 8).filter(bool)), "c": [1]}]
    elif kind == "window":
        k = draw(st.integers(9, 10**6))
        entries[0][0], entries[1][1] = [{"k": k, "c": [1]}], [{"k": -k, "c": [1]}]
    group = 5 - n if kind == "wrong-size" else n
    verb = draw(st.sampled_from(["bruhat", "birkhoff"]))
    return ["group", verb, "--group", f"sl{group}", "--q", "2"], json.dumps(data)


@settings(max_examples=100, deadline=None)
@example((["group", "bruhat", "--group", "sl2", "--q", "2"], '{"n": 2, "entries": [["\\n", []], [[], []]]}'))
@example((["group", "bruhat", "--group", "sl2", "--q", "2"],
          '{"n": 2, "entries": [[[{"k": 0, "c": [1]}, {"k": 0, "c": [1]}], []], [[], [{"k": 0, "c": [1]}]]]}'))
@example((["group", "birkhoff", "--group", "sl2", "--q", "2"],
          '{"n": 2, "entries": [[[{"k": 0}], []], [[], [{"k": 0, "c": [1]}]]]}'))
@given(_bad_matrix_call())
def test_cli_rejects_malformed_matrix_json(call):
    argv, text = call
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, out, lines = _run_fresh(argv)
    assert code == 1 and out == "" and len(lines) == 1 and lines[0].startswith("error: "), (argv, text, lines)
