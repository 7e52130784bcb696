"""Command-line front end.

Exit codes: 0 success, 1 invalid input (diagnostic on stderr), 2 when an
operation returns Undecided.  The resolved configuration is echoed to stderr
so stdout stays byte-stable for identical inputs.  Each verb imports the
layers it runs inside its dispatch function, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gcm as gcmmod
from .errors import IndexOutOfRange, TwinrootError, UndecidedError, UnknownFormat


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_common(p):
    p.add_argument("--gcm", help="path to a GCM JSON file {n, a}")
    p.add_argument("--word", help="comma-separated generator indices, or for cone verbs a node "
                   "permutation: they fold by the group it generates")
    p.add_argument("--alpha", help="simple root index or CSV coordinates")
    p.add_argument("--beta", help="simple root index or CSV coordinates")
    p.add_argument("--group", choices=["sl2", "sl3", "su3"])
    p.add_argument("--q", type=int, choices=[2, 3], default=2)
    p.add_argument("--radius", type=nonnegative, default=2)
    p.add_argument("--format", choices=["dot", "json", "tsv"], default="json")
    p.add_argument("--level-window", type=nonnegative, default=2, dest="level_window")
    p.add_argument("--search-radius", type=nonnegative, default=8, dest="search_radius")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="twinroot")
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, subverbs in {
        "gcm": ["validate", "sc", "adjoint", "dual"],
        "weyl": ["coxeter", "length", "reduced", "ball", "order"],
        "roots": ["ball", "positive", "prenilpotent", "interval", "nibbling"],
        "cone": ["fold", "fixed"],
        "group": ["mu", "bruhat", "birkhoff", "su3"],
        "trd": ["check", "rsd", "twintree"],
    }.items():
        vp = verbs.add_parser(verb)
        subs = vp.add_subparsers(dest="subverb", required=True)
        for sv in subverbs:
            subs.add_parser(sv, parents=[common])
    return parser


def _load_gcm(args) -> gcmmod.GeneralizedCartanMatrix:
    if not args.gcm:
        raise TwinrootError("--gcm PATH is required for this command")
    with open(args.gcm, "r", encoding="utf-8") as fh:
        return gcmmod.gcm_from_json(fh.read())


def _csv_ints(text):
    """Comma-separated integers; no text (None or "") is the empty tuple, and
    an empty field in any other text is an error."""
    if not text:
        return ()
    fields = text.split(",")
    if "" in fields:
        raise UnknownFormat(f"empty field in the comma-separated list {text!r}")
    return tuple(int(x) for x in fields)


def _root_arg(A, text):
    """The RootVector a simple-root index or CSV coordinates name; BadRoot unless real."""
    from . import roots as rootsmod
    if not text:
        raise TwinrootError("--alpha and --beta take a simple-root index or CSV coordinates")
    vals = _csv_ints(text)
    root = rootsmod.simple_root(A, vals[0]) if len(vals) == 1 else rootsmod.RootVector(vals)
    rootsmod.root_witness(A, root.coords)
    return root


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("TWINROOT_SEED", "0"))


def _echo_config(args):
    items = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("verb", "subverb") and v is not None
    }
    print(f"# twinroot {args.verb} {args.subverb} {json.dumps(items, sort_keys=True)}",
          file=sys.stderr)


def _emit(value):
    sys.stdout.write(value if value.endswith("\n") else value + "\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _tsv(rows) -> str:
    return "\n".join("\t".join(str(x) for x in row) for row in rows)


def _inf_json(x):
    from . import weyl
    return None if x == weyl.INF else x


def _dispatch_gcm(args):
    A = _load_gcm(args)
    if args.subverb == "validate":
        _emit(_json({"n": A.n, "a": [list(r) for r in A.a], "valid": True}))
    elif args.subverb == "sc":
        _emit(gcmmod.simply_connected_datum(A).to_json())
    elif args.subverb == "adjoint":
        _emit(gcmmod.minimal_adjoint_datum(A).to_json())
    elif args.subverb == "dual":
        _emit(gcmmod.dual_datum(gcmmod.simply_connected_datum(A)).to_json())
    return 0


def _dispatch_weyl(args):
    from . import weyl
    A = _load_gcm(args)
    if args.subverb == "coxeter":
        m = weyl.coxeter_matrix(A).m
        if args.format == "tsv":
            _emit(_tsv([["inf" if x == weyl.INF else int(x) for x in row] for row in m]))
        else:
            _emit(_json([[_inf_json(x) for x in row] for row in m]))
    elif args.subverb == "length":
        w = weyl.from_word(A, _csv_ints(args.word))
        _emit(str(w.length))
    elif args.subverb == "reduced":
        _emit(_json(weyl.is_reduced(A, _csv_ints(args.word))))
    elif args.subverb == "ball":
        ball = weyl.enumerate_ball(A, args.radius)
        if args.format == "tsv":
            _emit(_tsv([[w.length, ",".join(map(str, w.word))] for w in ball]))
        else:
            _emit(_json([{"word": list(w.word)} for w in ball]))
    elif args.subverb == "order":
        _emit(_json(_inf_json(weyl.group_order(A))))
    return 0


def _dispatch_roots(args):
    from . import roots as rootsmod
    A = _load_gcm(args)
    if args.subverb == "ball":
        rr = rootsmod.enumerate_real_roots(A, args.radius)
        _emit(_json([list(r.coords) for r in rr]))
    elif args.subverb == "positive":
        _emit(_json(rootsmod.is_positive(_root_arg(A, args.alpha))))
    elif args.subverb == "prenilpotent":
        alpha, beta = _root_arg(A, args.alpha), _root_arg(A, args.beta)
        _emit(_json(rootsmod.is_prenilpotent_pair(A, alpha, beta)))
    elif args.subverb == "interval":
        interval = rootsmod.closed_interval(
            A, _root_arg(A, args.alpha), _root_arg(A, args.beta), args.search_radius
        )
        _emit(_json([list(r.coords) for r in interval.members]))
    elif args.subverb == "nibbling":
        positives = [r for r in rootsmod.enumerate_real_roots(A, args.radius + 4) if r.sign > 0]
        seq = rootsmod.nibbling_sequence(A, tuple(range(A.n)), positives)
        _emit(_json([list(r.coords) for r in seq.roots]))
    return 0


def _perm_arg(args):
    if not args.word:
        raise TwinrootError("--word CSV holds the node permutation for cone commands")
    return _csv_ints(args.word)


def _dispatch_cone(args):
    from . import cone
    A = _load_gcm(args)
    if args.subverb == "fold":
        rc = cone.relative_coxeter(A, [_perm_arg(args)])
        out = {
            "orbits": [list(o) for o in rc.orbits],
            "m": [[_inf_json(x) for x in row] for row in rc.m],
        }
        _emit(_json(out))
    elif args.subverb == "fixed":
        s0 = _csv_ints(args.alpha)
        basis = cone.fixed_subspace(A, [_perm_arg(args)], s0)
        _emit(_json([f.to_json_obj() for f in basis]))
    return 0


def _group_of(args, expected="matrix commands expect --group sl2 or sl3"):
    from .chevalley import loop_group
    if args.group in ("sl2", "sl3"):
        return loop_group(args.q, 2 if args.group == "sl2" else 3)
    raise TwinrootError(expected)


def _dispatch_group(args):
    if args.subverb == "su3":
        from .descent import anisotropic_kernel, relative_root_group, su3_datum
        d = su3_datum(args.q)
        v1, z1 = relative_root_group(d, 1)
        v0, _ = relative_root_group(d, 0)
        kernel, commutative = anisotropic_kernel(d)
        _emit(
            _json(
                {
                    "q": args.q,
                    "metabelian_order": len(v1),
                    "metabelian_center": len(z1),
                    "abelian_order": len(v0),
                    "kernel_order": len(kernel),
                    "kernel_commutative": commutative,
                }
            )
        )
        return 0
    from .laurent import matrix_from_json
    G = _group_of(args)
    if args.subverb == "mu":
        nodes = _csv_ints("1" if args.alpha is None else args.alpha)
        if len(nodes) != 1 or not 0 <= nodes[0] < G.n:
            raise IndexOutOfRange(f"--alpha takes one node index in 0..{G.n - 1}, got {args.alpha!r}")
        _emit(G._canonical_s(nodes[0]).to_json())
        return 0
    g = matrix_from_json(G.field, sys.stdin.read())
    if args.subverb == "bruhat":
        w, b1, b2 = G.bruhat_cell(g)
        _emit(_json({"word": list(w.word), "b1": b1.to_json_obj(), "b2": b2.to_json_obj()}))
    elif args.subverb == "birkhoff":
        _emit(_json({"word": list(G.birkhoff_cell(g).word)}))
    return 0


def _dispatch_trd(args):
    from . import descent, trd
    seed = _seed(args)
    if args.subverb == "rsd":
        if args.group != "su3":
            raise TwinrootError("the CLI exposes the su3 center-line basis; use --group su3")
        d = descent.su3_datum(args.q)
        rep = trd.check_rsd(trd.su3_oracle(d), trd.center_line_basis(d), sample_budget=60, seed=seed,
                            search_radius=args.search_radius)
        _emit(rep.to_json())
        return 0 if rep.passed else 1
    orc = (trd.su3_oracle(descent.su3_datum(args.q)) if args.group == "su3"
           else trd.split_oracle(_group_of(args, f"trd {args.subverb} expects --group sl2, sl3 or su3")))
    if args.subverb == "check":
        rep = trd.check_trd(orc, sample_budget=60, level_window=args.level_window, seed=seed,
                            search_radius=args.search_radius)
        _emit(rep.to_json())
        return 0 if rep.passed else 1
    graph = trd.building_ball(orc, +1, args.radius)  # twintree
    if args.format == "tsv":
        rows = [[k, ".".join(map(str, c.word)) or "e"] for k, c in enumerate(graph.chambers)]
        _emit(_tsv(rows))
    else:
        _emit(trd.export_graph(graph, args.format))
    return 0


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return {
            "gcm": _dispatch_gcm,
            "weyl": _dispatch_weyl,
            "roots": _dispatch_roots,
            "cone": _dispatch_cone,
            "group": _dispatch_group,
            "trd": _dispatch_trd,
        }[args.verb](args)
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except TwinrootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
