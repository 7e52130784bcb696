"""cli-oneshot: a fixed list of `twinroot` invocations, each a fresh child
process (python3 -m twinroot.cli) reading generated GCM or matrix files.

One round covers every verb group (gcm, weyl, roots, cone, group, trd), with
five heavier calls (twin trees, an SU3 axiom check, a rank-4 ball), and
sends two malformed matrices to `group bruhat`.  Those two count as failed
until the CLI rejects them with exit code 1 and a one-line `error:` message;
today one raises IndexError and the other a bare AssertionError.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from twinroot.chevalley import loop_group

import ref
from harness import Op, Workload, expect
from wl_loop import SPAN, iwahori_pair, to_program
from wl_roots import FINITE_ORDER, K4, MATRICES, check_ball, check_nibbling, root_pairs
from wl_twin import tree_chambers

ROOT = Path(__file__).resolve().parent.parent
ROUNDS_PER_10S = 4
MIN_ROUNDS = 4  # 116 invocations, so the p90 has 11 samples beyond it
CHILD_TIMEOUT_S = 60
MALFORMED = ('"c":[7]', '"c":[-1]')


def build(seed: int, seconds: int) -> Workload:
    rng = random.Random(f"cli-oneshot/{seed}")
    work = ROOT / ".bench_out" / f"cli-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    files = _Files(work)
    invocations = []
    for k in range(max(MIN_ROUNDS, round(seconds * ROUNDS_PER_10S / 10.0))):
        invocations += _round(rng, files, k)
    ops = [Op(kind, _child(argv, stdin, expected_ok), check) for kind, argv, stdin, expected_ok, check in invocations]
    traced = [Op(kind, _in_process(argv, stdin, expected_ok), check)
              for kind, argv, stdin, expected_ok, check in invocations]
    return Workload(ops, traced_ops=traced, child_rss_mb=_children_peak_rss_mb)


class _Files:
    def __init__(self, work: Path):
        self.work = work

    def write(self, name, obj) -> str:
        path = self.work / name
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)

    def gcm(self, a) -> str:
        name = "gcm_" + "_".join(str(-x) if x < 0 else str(x) for row in a for x in row) + ".json"
        return self.write(name, {"n": len(a), "a": [list(r) for r in a]})


class CliFailure(Exception):
    """The CLI exited with a code or stderr its contract does not allow."""


def _child(argv, stdin, expected_ok):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "twinroot.cli", *argv]

    def call():
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env, cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S, check=False)
        return _verdict(proc.returncode, proc.stdout, proc.stderr, expected_ok)

    return call


def _in_process(argv, stdin, expected_ok):
    from twinroot import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
        except Exception as exc:  # an uncaught exception is the child's traceback
            code, err = 1, io.StringIO(f"Traceback\n{type(exc).__name__}: {exc}\n")
        finally:
            sys.stdin = saved
        return _verdict(code, out.getvalue(), err.getvalue(), expected_ok)

    return call


def _verdict(code, stdout, stderr, expected_ok):
    diagnostics = [ln for ln in stderr.splitlines() if not ln.startswith("# twinroot ")]
    if expected_ok:
        if code != 0:
            raise CliFailure(f"exit {code}: {' | '.join(diagnostics[-2:])}")
    elif code != 1 or len(diagnostics) != 1 or not diagnostics[0].startswith("error:"):
        raise CliFailure(f"malformed input gave exit {code} and {len(diagnostics)} stderr lines: "
                         f"{' | '.join(diagnostics[-1:])}")
    return stdout


def _children_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- one round ---------------------------------------------------------------------


def _round(rng, files, k):
    """(kind, argv, stdin, expected_ok, check) for one pass over every verb.

    GCMs, groups and sizes rotate with the round's position k, so every seed
    runs the same mix of costs; the seed draws words, roots and matrices."""
    names = sorted(MATRICES)
    finite = sorted(FINITE_ORDER)
    out = []
    salt = itertools.count()

    def pick(options):
        return options[(k + next(salt)) % len(options)]

    def add(kind, argv, check, stdin=None, ok=True):
        out.append((kind, argv, stdin, ok, check))

    a = MATRICES[pick(names)]
    path = files.gcm(a)
    want = {"n": len(a), "a": [list(r) for r in a], "valid": True}
    add("gcm", ["gcm", "validate", "--gcm", path], _expect_json(want))
    for sub in ("sc", "adjoint", "dual"):
        a = MATRICES[pick(names)]
        add("gcm", ["gcm", sub, "--gcm", files.gcm(a)], _check_datum(a, transpose=sub == "dual"))

    a = MATRICES[pick(names)]
    add("weyl", ["weyl", "coxeter", "--gcm", files.gcm(a)], _check_coxeter(a))
    a = MATRICES[pick(names)]
    word = [rng.randrange(len(a)) for _ in range(rng.randint(6, 14))]
    add("weyl", ["weyl", "length", "--gcm", files.gcm(a), "--word", _csv(word)],
        _expect_json(ref.length(a, ref.element(a, word))))
    a = MATRICES[pick(names)]
    word = [rng.randrange(len(a)) for _ in range(rng.randint(3, 6))]
    add("weyl", ["weyl", "reduced", "--gcm", files.gcm(a), "--word", _csv(word)], _expect_json(ref.is_reduced(a, word)))
    add("weyl", ["weyl", "ball", "--gcm", files.gcm(K4), "--radius", "5"], _check_word_ball("K4", K4, 5))
    name = pick(finite)
    add("weyl", ["weyl", "order", "--gcm", files.gcm(MATRICES[name])], _expect_json(FINITE_ORDER[name]))

    a, r = MATRICES[pick(names)], pick((1, 2, 3))
    add("roots", ["roots", "ball", "--gcm", files.gcm(a), "--radius", str(r)], _check_root_ball(a, r))
    a = MATRICES[pick(names)]
    root = rng.choice(ref.real_roots(a, 3))
    add("roots", ["roots", "positive", "--gcm", files.gcm(a), f"--alpha={_csv(root)}"],
        _expect_json(ref.sign(root) > 0))
    a = MATRICES[pick(("affine_A1", "affine_A2"))]
    x, y = rng.choice(root_pairs(a, 3))
    add("roots", ["roots", "prenilpotent", "--gcm", files.gcm(a), f"--alpha={_csv(x)}", f"--beta={_csv(y)}"],
        _check_prenilpotent(a, x, y))
    a = MATRICES[pick(finite)]
    x, y = rng.choice(root_pairs(a, 8))
    add("roots", ["roots", "interval", "--gcm", files.gcm(a), f"--alpha={_csv(x)}", f"--beta={_csv(y)}"],
        _check_interval(a, x, y))
    a = MATRICES[pick(finite)]
    add("roots", ["roots", "nibbling", "--gcm", files.gcm(a), "--radius", "2"], _check_full_nibbling(a))

    affine_a2 = MATRICES["affine_A2"]
    add("cone", ["cone", "fold", "--gcm", files.gcm(affine_a2), "--word", "0,2,1"],
        _expect_json({"orbits": [[0], [1, 2]], "m": [[1, None], [None, 1]]}))
    block = MATRICES[pick(("A2", "B2", "G2"))]
    doubled = tuple(tuple(block[i % 2][j % 2] if (i < 2) == (j < 2) else 0 for j in range(4)) for i in range(4))
    add("cone", ["cone", "fold", "--gcm", files.gcm(doubled), "--word", "2,3,0,1"], _check_block_fold(block))
    add("cone", ["cone", "fixed", "--gcm", files.gcm(affine_a2), "--word", "0,2,1"],
        _expect_json([[_frac(1), _frac(0), _frac(0)], [_frac(0), _frac(1), _frac(1)]]))

    n, q = pick(((2, 2), (2, 3), (3, 2), (3, 3)))
    node = rng.randrange(n)
    add("group", ["group", "mu", "--group", f"sl{n}", "--q", str(q), f"--alpha={node}"], _check_mu(n, q, node))
    for n, q in ((2, pick((2, 3))), (3, 2)):
        f = ref.field(q)
        g = ref.random_group_element(f, n, rng, 5, SPAN)
        add("group", ["group", "bruhat", "--group", f"sl{n}", "--q", str(q)], _check_bruhat(n, q, g),
            stdin=json.dumps(ref.to_json_obj(f, g)))
    n = pick((2, 3))
    f = ref.field(3)
    g = ref.random_group_element(f, n, rng, 5, SPAN)
    add("group", ["group", "birkhoff", "--group", f"sl{n}", "--q", "3"], _check_birkhoff(n, 3, g, rng.randrange(2**32)),
        stdin=json.dumps(ref.to_json_obj(f, g)))
    q = pick((2, 3))
    add("group", ["group", "su3", "--q", str(q)], _expect_json(
        {"q": q, "metabelian_order": q**3, "metabelian_center": q, "abelian_order": q,
         "kernel_order": q * q - 1, "kernel_commutative": True}))

    seed = rng.randrange(10**6)
    add("trd", ["trd", "check", "--group", "su3", "--q", "2", "--seed", str(seed)], _check_report)
    add("trd", ["trd", "rsd", "--group", "su3", "--q", "2", "--seed", str(seed)], _check_report)
    add("trd", ["trd", "twintree", "--group", "su3", "--q", "2", "--radius", "2"], _check_tree(2, (2, 8)))
    add("trd", ["trd", "twintree", "--group", "sl2", "--q", "3", "--radius", "3"], _check_tree(3, (3, 3)))
    add("trd", ["trd", "twintree", "--group", "sl2", "--q", "3", "--radius", "3", "--format", "tsv"],
        _check_tree_tsv(3, (3, 3)))

    identity = {"n": 2, "entries": [[[{"k": 0, "c": [1]}], []], [[], [{"k": 0, "c": [1]}]]]}
    for bad in MALFORMED:
        text = json.dumps(identity).replace('"c": [1]', bad, 1)
        add("malformed", ["group", "bruhat", "--group", "sl2", "--q", "2"], _no_output, stdin=text, ok=False)
    return out


def _csv(values):
    return ",".join(str(v) for v in values)


def _frac(x):
    return {"num": x, "den": 1}


# --- checks of the parsed stdout ---------------------------------------------------


def _expect_json(want):
    def check(stdout):
        got = json.loads(stdout)
        expect(got == want, f"stdout {got!r}, expected {want!r}")

    return check


def _no_output(stdout):
    expect(stdout == "", "malformed input produced output")


def _check_datum(a, transpose):
    n = len(a)
    want = [[a[j][i] if transpose else a[i][j] for j in range(n)] for i in range(n)]

    def check(stdout):
        d = json.loads(stdout)
        expect(d["gcm"]["a"] == want, "datum carries the wrong matrix")
        pairing = [[sum(x * y for x, y in zip(d["h"][i], d["c"][j])) for j in range(n)] for i in range(n)]
        expect(pairing == want, f"<h_i, c_j> = {pairing}, expected {want}")

    return check


def _check_coxeter(a):
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    n = len(a)
    return _expect_json([[1 if i == j else orders.get(a[i][j] * a[j][i]) for j in range(n)] for i in range(n)])


def _check_word_ball(name, a, r):
    ball_check = check_ball(name, a, r)

    def check(stdout):
        ball_check([SimpleNamespace(word=tuple(item["word"])) for item in json.loads(stdout)])

    return check


def _check_root_ball(a, r):
    def check(stdout):
        got = [tuple(v) for v in json.loads(stdout)]
        expect(len(got) == len(set(got)) and sorted(got) == ref.real_roots(a, r),
               "root ball differs from the reference")

    return check


def _check_prenilpotent(a, x, y):
    def check(stdout):
        want = ref.is_prenilpotent(ref.ball(a, 12), x, y)
        expect(json.loads(stdout) is want, f"prenilpotency of {x}, {y}: brute force {want}")

    return check


def _check_interval(a, x, y):
    def check(stdout):
        got = sorted(tuple(v) for v in json.loads(stdout))
        want = ref.interval(ref.ball(a, 20), ref.real_roots(a, 8), x, y)
        expect(got == want, f"[{x}, {y}]: got {got}, exhaustive {want}")

    return check


def _check_full_nibbling(a):
    n = len(a)
    positives = tuple(sorted(v for v in ref.real_roots(a, 8) if ref.sign(v) > 0))
    nibbling = check_nibbling(a, tuple(range(n)), positives)

    def check(stdout):
        nibbling(SimpleNamespace(roots=[SimpleNamespace(coords=tuple(v)) for v in json.loads(stdout)]))

    return check


def _check_block_fold(block):
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    m = orders[block[0][1] * block[1][0]]
    return _expect_json({"orbits": [[0, 2], [1, 3]], "m": [[1, m], [m, 1]]})


def _matrix(q, obj):
    return ref.from_json_obj(ref.field(q), obj)


def _check_mu(n, q, node):
    def check(stdout):
        got = _matrix(q, json.loads(stdout))
        expect(got == ref.canonical_s(ref.field(q), n, node), f"mu-map of node {node} differs")

    return check


def _check_bruhat(n, q, g):
    f = ref.field(q)

    def check(stdout):
        d = json.loads(stdout)
        word = tuple(d["word"])
        b1, b2 = _matrix(q, d["b1"]), _matrix(q, d["b2"])
        expect(ref.is_reduced(ref.affine_gcm(n), word), f"cell word {word} is not reduced")
        expect(ref.in_iwahori(f, b1) and ref.in_iwahori(f, b2), "b1 or b2 is not in the Iwahori subgroup")
        expect(ref.mprod(f, b1, ref.canonical_rep(f, n, word), b2) == g, "b1 * w_hat * b2 != g")

    return check


def _check_birkhoff(n, q, g, check_seed):
    f = ref.field(q)

    def check(stdout):
        word = tuple(json.loads(stdout)["word"])
        expect(ref.is_reduced(ref.affine_gcm(n), word), f"cell word {word} is not reduced")
        G = loop_group(q, n)
        moved = iwahori_pair(f, n, g, random.Random(check_seed), (1, -1))
        again = G.birkhoff_cell(to_program(G, moved)).word
        expect(again == word, f"Birkhoff cell of b+ g b- is {again}, of g {word}")

    return check


def _check_report(stdout):
    rep = json.loads(stdout)
    expect(rep["passed"] is True and all(r["passed"] for r in rep["results"]), f"{rep['name']} fails on genuine data")


def _check_tree_tsv(radius, panels):
    def check(stdout):
        rows = [line.split("\t") for line in stdout.splitlines()]
        want = tree_chambers(radius, panels)
        expect([int(r[0]) for r in rows] == list(range(want)), f"twin tree lists {len(rows)} chambers, expected {want}")

    return check


def _check_tree(radius, panels):
    def check(stdout):
        data = json.loads(stdout)
        want = tree_chambers(radius, panels)
        expect(len(data["nodes"]) == want, f"twin tree has {len(data['nodes'])} chambers, expected {want}")
        edges = {(e["a"], e["b"]) for e in data["edges"]}
        expect(all(0 <= a < b < want for a, b in edges), "edge outside the chamber list")

    return check
