"""Command-line front end.

Subcommands expose the main library operations: `verify` replays the bundled
counterexamples and exits 0 only if every check passes, `burau`, `pairing`,
`twist` and `hom` print single computations, and `search` launches the two
search harnesses.  Exit codes: 0 success, 1 verification failure, 2 usage
or input error, 3 internal error (a bug: the traceback goes to stderr).
Machine-readable output is JSON behind --json; default output is plain text.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from collections import Counter

from .complexes import (
    act_complex,
    euler_characteristic,
    hom_table,
    is_spherical,
    k0_class,
    projective,
    render_hom_table,
)
from .criteria import KernelCertificate, Rejection, criterion1, verify_bigelow3
from .fixtures import D4_MODULI, affine_fixture, d4_fixture
from .graphs import (
    graph_json,
    load_graph,
    validate_vertex,
    validate_word,
    word_from_string,
)
from .laurent import ZZ, IntegersMod
from .matrices import PairingForm, act, basis_vector, pairing, word_matrix
from .search import bucket_search, confirm_pair, enumerate_curves, find_pairs
from .zigzag import zigzag

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _graph(spec: str):
    """An argparse type: a preset name or a graph file, loaded at parse time."""
    try:
        return load_graph(spec)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read graph {spec!r}: {exc}") from None


def _word(text: str):
    """An argparse type: a braid word ('1,-2' or '1 -2'), parsed at parse
    time; `_check_graph_args` then holds its letters against the graph."""
    try:
        return word_from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid braid word {text!r}") from None


def _check_graph_args(args) -> None:
    """Hold each vertex and word argument against --graph, and a curve
    search that may confirm pairs against its zigzag algebra, so that an
    error names the argument under its subcommand's usage."""
    for name in ("i1", "i2", "start", "word", "w1", "w2"):
        value = getattr(args, name, None)
        if value is None:
            continue
        check = validate_word if name in ("word", "w1", "w2") else validate_vertex
        try:
            check(args.graph, value)
        except ValueError as exc:
            args.parser.error(f"argument --{name}: {exc}")
    if getattr(args, "limit", 0):
        # a curve search confirms its candidate pairs over the zigzag algebra
        try:
            zigzag(args.graph)
        except ValueError as exc:
            args.parser.error(
                f"argument --graph: {exc}, and --limit {args.limit} asks to confirm "
                "candidate pairs over it; use --limit 0 to enumerate and scan only"
            )


def _ring(args) -> object:
    return ZZ if args.mod is None else IntegersMod(args.mod)


def _emit(args, human: str, machine) -> None:
    if getattr(args, "json", False):
        print(json.dumps(machine, indent=2, sort_keys=True))
    else:
        print(human)


def _verify_one(name: str):
    """Run one named fixture end to end.  Returns (passed, payload)."""
    if name in ("affine-a3", "affine-a3-variant"):
        fixture = affine_fixture(variant=name.endswith("variant"))
        (w1, i1), (w2, i2) = fixture.witnesses
        outcome = criterion1(w1, i1, w2, i2, fixture.graph)
    else:
        p = int(name.split("-")[-1])
        fixture = d4_fixture(p)
        (beta, i) = fixture.witnesses[0]
        outcome = verify_bigelow3(fixture.graph, beta, i, p)
    ok = isinstance(outcome, KernelCertificate) and outcome.verified
    return ok, outcome.to_json()


def cmd_verify(args) -> int:
    if args.target != "d4-mod" and args.p is not None:
        print(f"verify {args.target} takes no modulus", file=sys.stderr)
        return EXIT_USAGE
    if args.target == "d4-mod":
        if args.p is None:
            print("verify d4-mod needs a modulus, e.g. `verify d4-mod 7`", file=sys.stderr)
            return EXIT_USAGE
        if args.p not in D4_MODULI:
            print(f"no fixture for p={args.p}; available p: 6..16", file=sys.stderr)
            return EXIT_USAGE
        names = [f"d4-mod-{args.p}"]
    elif args.target == "all":
        names = ["affine-a3", "affine-a3-variant"] + [
            f"d4-mod-{p}" for p in D4_MODULI
        ]
    else:
        names = [args.target]
    payloads = {}
    all_ok = True
    for name in names:
        ok, payload = _verify_one(name)
        payloads[name] = payload
        all_ok = all_ok and ok
        if not args.json:
            status = "PASS" if ok else "FAIL"
            detail = ""
            if not ok:
                detail = f" ({payload.get('clause')}: {payload.get('detail')})"
            print(f"{status} {name}{detail}")
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_burau(args) -> int:
    form = PairingForm(args.form)
    m = word_matrix(args.graph, args.word, form, _ring(args))
    _emit(args, str(m), m.to_json())
    return EXIT_OK


def cmd_pairing(args) -> int:
    g = args.graph
    form = PairingForm(args.form)
    ring = _ring(args)
    x = act(g, args.w1, basis_vector(g, args.i1, ring), form)
    y = act(g, args.w2, basis_vector(g, args.i2, ring), form)
    p = pairing(x, y, form)
    _emit(args, str(p), {"pairing": str(p), "terms": p.to_json_terms()})
    return EXIT_OK


def cmd_twist(args) -> int:
    g = args.graph
    cx = act_complex(g, args.word, projective(zigzag(g), args.start))
    k0 = k0_class(cx)
    spherical = is_spherical(cx)
    human = "\n".join(
        [str(cx), f"k0 class: {k0}", f"spherical: {spherical}"]
    )
    machine = {
        "summands": [
            {"vertex": v, "g": gg, "h": hh} for v, gg, hh in cx.summands
        ],
        "k0": [c.to_json_terms() for c in k0.coords],
        "spherical": spherical,
    }
    _emit(args, human, machine)
    return EXIT_OK


def cmd_hom(args) -> int:
    g = args.graph
    algebra = zigzag(g)
    cx = act_complex(g, args.w1, projective(algebra, args.i1))
    cy = act_complex(g, args.w2, projective(algebra, args.i2))
    table = hom_table(cx, cy)
    euler = euler_characteristic(table)
    human = "\n".join([render_hom_table(table), f"Euler pairing: {euler}"])
    machine = {
        "hom_table": {f"{gg},{hh}": dim for (gg, hh), dim in sorted(table.items())},
        "total": sum(table.values()),
        "euler": str(euler),
    }
    _emit(args, human, machine)
    return EXIT_OK


def cmd_search(args) -> int:
    g = args.graph
    if args.kind == "curves":
        store = enumerate_curves(g, budget=args.budget)
        pairs = find_pairs(store, criterion=args.criterion, limit=args.limit)
        confirmed = []
        rejections = Counter()
        for pair in pairs:
            outcome = confirm_pair(g, pair, args.criterion)
            if isinstance(outcome, Rejection):
                rejections[outcome.clause] += 1
            elif outcome.verified:
                confirmed.append(outcome.to_json())
        result = {
            "manifest": {
                "graph": graph_json(g),
                "kind": "curves",
                "budget": args.budget,
                "criterion": args.criterion,
            },
            "store_size": len(store),
            "candidate_pairs": len(pairs),
            "certificates": confirmed,
            "rejections": dict(rejections),
            "twisted_complexes": len(store.memo),
        }
        if args.store:
            store.save(args.store)
    else:
        result = bucket_search(
            g,
            p=args.p,
            budget=args.budget,
            seed=args.seed,
            fix_vertex=args.start,
        )
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burau",
        description="Exact Burau representations, categorical twists, and "
        "kernel-element verification for Artin-Tits groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay a bundled counterexample")
    p_verify.add_argument(
        "target",
        choices=["affine-a3", "affine-a3-variant", "d4-mod", "all"],
    )
    p_verify.add_argument("p", type=int, nargs="?", help="modulus for d4-mod")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_burau = sub.add_parser("burau", help="Burau matrix of a word")
    p_burau.add_argument("--graph", type=_graph, required=True)
    p_burau.add_argument("--word", type=_word, required=True)
    p_burau.add_argument("--form", choices=["standard", "dual"], default="standard")
    p_burau.add_argument("--mod", type=_int_at_least(2))
    p_burau.add_argument("--json", action="store_true")
    p_burau.set_defaults(func=cmd_burau, parser=p_burau)

    p_pair = sub.add_parser("pairing", help="pairing of two twisted roots")
    p_pair.add_argument("--graph", type=_graph, required=True)
    p_pair.add_argument("--w1", type=_word, required=True)
    p_pair.add_argument("--i1", type=int, required=True)
    p_pair.add_argument("--w2", type=_word, required=True)
    p_pair.add_argument("--i2", type=int, required=True)
    p_pair.add_argument("--form", choices=["standard", "dual"], default="standard")
    p_pair.add_argument("--mod", type=_int_at_least(2))
    p_pair.add_argument("--json", action="store_true")
    p_pair.set_defaults(func=cmd_pairing, parser=p_pair)

    p_twist = sub.add_parser("twist", help="twisted projective complex of a word")
    p_twist.add_argument("--graph", type=_graph, required=True)
    p_twist.add_argument("--word", type=_word, required=True)
    p_twist.add_argument("--start", type=int, required=True)
    p_twist.add_argument("--json", action="store_true")
    p_twist.set_defaults(func=cmd_twist, parser=p_twist)

    p_hom = sub.add_parser("hom", help="bigraded hom table of two twisted projectives")
    p_hom.add_argument("--graph", type=_graph, required=True)
    p_hom.add_argument("--w1", type=_word, required=True)
    p_hom.add_argument("--i1", type=int, required=True)
    p_hom.add_argument("--w2", type=_word, required=True)
    p_hom.add_argument("--i2", type=int, required=True)
    p_hom.add_argument("--json", action="store_true")
    p_hom.set_defaults(func=cmd_hom, parser=p_hom)

    p_search = sub.add_parser("search", help="run a counterexample search")
    kinds = p_search.add_subparsers(dest="kind", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", type=_graph, required=True)
    common.add_argument("--budget", type=_int_at_least(0), default=1000)
    common.add_argument("--out", help="write the run result to this path")

    p_curves = kinds.add_parser(
        "curves",
        parents=[common],
        help="enumerate curves over Z, scan pairs, confirm them categorically",
    )
    p_curves.add_argument("--criterion", type=int, choices=[1, 2], default=1)
    p_curves.add_argument(
        "--limit",
        type=_int_at_least(0),
        default=16,
        help="stop the pair scan after this many candidate pairs; each is "
        "then confirmed, so this caps candidates, not certificates",
    )
    p_curves.add_argument("--store", help="write the curve store to this path")
    p_curves.set_defaults(func=cmd_search, parser=p_curves)

    p_buckets = kinds.add_parser(
        "buckets", parents=[common], help="seeded bucket walk in the dual monoid mod p"
    )
    p_buckets.add_argument("--seed", type=int, default=0)
    p_buckets.add_argument("--p", type=_int_at_least(2), default=5)
    p_buckets.add_argument("--start", type=int, default=1, help="vertex to fix")
    p_buckets.set_defaults(func=cmd_search, parser=p_buckets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_graph_args(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the library's own input checks raise ValueError (NotFiniteType too)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
