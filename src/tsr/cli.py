"""Command-line surface: ``tsr <subcommand>``.

Verdicts (YES/NO) and numbers go to stdout; exit status is 0 when a command
ran to a decision, 2 on input errors, 3 when an instance needs the oracle but
exceeds (or was not granted) the exhaustive-search guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import generators
from .activation import activate, is_target_set
from .errors import InstanceTooLarge, TsrError, UnknownVertex
from .gadgets import oneway_gadget, sigma_gadget, theta_gadget, xi_gadget
from .graph import (
    PlainGraph,
    ThresholdGraph,
    parse_graph,
    parse_seed_set,
    serialize_graph,
    serialize_seed_set,
    vc_to_tss,
)
from .oracle import (
    DEFAULT_GUARD,
    ktar_decide,
    min_target_set_size,
    tj_components,
    tj_decide,
)
from .reconfig import TAR, TJ, parse_sequence, validate_sequence
from .reductions import (
    parse_hitting_system,
    reduce_33_to_b312,
    reduce_33_to_pb342,
    reduce_hitting_to_split,
    reduce_vc23_to_cubic,
    serialize_hitting_system,
)
from .solvers import component_plan, solve, solve_maxdeg2, solve_threshold1, solve_tree

OK, INPUT_ERROR, GUARD_EXCEEDED = 0, 2, 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> ThresholdGraph:
    return parse_graph(_read(path))


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    print(f"graph OK: n={g.n} m={g.m}")
    if args.seed:
        seed = parse_seed_set(_read(args.seed), g)
        kind = "target set" if is_target_set(g, seed) else "seed set (not a target set)"
        print(f"seed OK: size={len(seed)} {kind}")
    if args.sequence:
        seq = parse_sequence(_read(args.sequence))
        report = validate_sequence(g, seq)
        if report.ok:
            print(f"sequence OK: model={seq.model} length={len(seq)}")
        else:
            print(f"sequence INVALID at step {report.first_violation}: {report.reason}")
            return INPUT_ERROR
    return OK


def _cmd_activate(args) -> int:
    g = _load_graph(args.graph)
    seed = parse_seed_set(_read(args.seed), g)
    trace = activate(g, seed)
    sys.stdout.write(trace.format())
    print("target set" if trace.final == frozenset(g.vertices) else "not a target set")
    return OK


def _tractable(g: ThresholdGraph):
    """g's component plan and the solver for it; None, with a hint, if a component is not covered."""
    plan = component_plan(g)
    if plan is None:
        print("instance has a component that is not threshold-1, a tree, a path or a cycle; "
              "rerun with --oracle to search exhaustively", file=sys.stderr)
        return None
    # the named solvers in the order threshold-1, tree, maximum degree 2, looked
    # up per call so that callers (bench/test_smoke.py) can patch them
    tree = len(plan.components) == 1 and g.m == g.n - 1
    return plan, solve_threshold1 if plan.tau1 else solve_tree if tree else solve_maxdeg2 if plan.deg2 else solve


def _cmd_solve_min(args) -> int:
    g = _load_graph(args.graph)
    if args.oracle:
        print(min_target_set_size(g, guard=args.guard, cap=args.cap))
        return OK
    tractable = _tractable(g)
    if tractable is None:
        return GUARD_EXCEEDED
    print(tractable[0].min_size)
    return OK


def _emit_sequence(path: str | None, seq) -> None:
    if path:
        Path(path).write_text(seq.format(), encoding="utf-8")


def _oracle_pair(g, x, y, args):
    """Exhaustive TJ or k-TAR decision; k defaults to |x|."""
    if args.model == "tar":
        k = args.k if args.k is not None else len(x)
        return ktar_decide(g, x, y, k, guard=args.guard)
    return tj_decide(g, x, y, guard=args.guard)


def _cmd_reconfigure(args) -> int:
    g = _load_graph(args.graph)
    x = parse_seed_set(_read(args.src), g)
    y = parse_seed_set(_read(args.dst), g)
    if args.oracle:
        report = _oracle_pair(g, x, y, args)
        yes, seq = report.reconfigurable, report.shortest
    else:
        tractable = _tractable(g)
        if tractable is None:
            return GUARD_EXCEEDED
        yes, seq = tractable[1](g, x, y, model=TAR if args.model == "tar" else TJ)
    print("YES" if yes else "NO")
    if yes and seq is not None:
        _emit_sequence(args.emit_sequence, seq)
    return OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if args.src and args.dst:
        x = parse_seed_set(_read(args.src), g)
        y = parse_seed_set(_read(args.dst), g)
        report = _oracle_pair(g, x, y, args)
        if args.json:
            payload = {
                "k": report.k,
                "reconfigurable": report.reconfigurable,
                "shortest_length": len(report.shortest) if report.shortest else None,
                "explored": report.explored,
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            print("YES" if report.reconfigurable else "NO")
            if report.shortest is not None:
                print(f"shortest length {len(report.shortest)}")
        if report.reconfigurable and report.shortest is not None:
            _emit_sequence(args.emit_sequence, report.shortest)
        return OK
    if args.size is None:
        print("oracle needs --size, or both --from and --to", file=sys.stderr)
        return INPUT_ERROR
    report = tj_components(g, args.size, guard=args.guard, cap=args.cap)
    if args.json:
        payload = {
            "k": report.k,
            "num_target_sets": report.num_target_sets,
            "components": [
                [sorted(s) for s in comp] for comp in report.components
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{report.num_target_sets} target sets")
        for i, comp in enumerate(report.components, start=1):
            sets = " ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in comp)
            print(f"component {i}: {sets}")
    return OK


def _cmd_reduce(args) -> int:
    if args.kind == "split":
        hs = parse_hitting_system(_read(args.input))
        n, out = hs.n, reduce_hitting_to_split(hs)
    else:
        g = _load_graph(args.input)
        n, out = g.n, (
            reduce_vc23_to_cubic(PlainGraph.build(g.n, g.edges)) if args.kind == "vc-cubic"
            else reduce_33_to_pb342(g) if args.kind == "pb342" else reduce_33_to_b312(g)
        )
    text = serialize_graph(out.graph)
    if args.output:
        # seed ids name input vertices (hitting-system elements): check them before writing
        paths = ((args.src, ".from.seed"), (args.dst, ".to.seed"))
        seeds = {suffix: parse_seed_set(_read(path)) for path, suffix in paths if path}
        for v in sorted(set().union(*seeds.values())):
            if not 1 <= v <= n:
                raise UnknownVertex(f"seed vertex {v} not in 1..{n}")
        prefix = Path(args.output)
        prefix.with_suffix(".tsr").write_text(text, encoding="utf-8")
        prefix.with_suffix(".origin").write_text(out.format_provenance(), encoding="utf-8")
        for suffix, s in seeds.items():
            prefix.with_suffix(suffix).write_text(serialize_seed_set(out.forward(s)), encoding="utf-8")
        print(f"wrote {prefix.with_suffix('.tsr')}")
    else:
        sys.stdout.write(text)
    return OK


def _cmd_gadget(args) -> int:
    if args.kind == "oneway":
        g, _ = oneway_gadget()
    elif args.kind == "theta":
        g, _ = theta_gadget()
    elif args.kind == "theta1":
        g, _ = theta_gadget(r_tau=1)
    elif args.kind == "xi":
        g, _ = xi_gadget()
    else:
        g = vc_to_tss(sigma_gadget()[0])
    sys.stdout.write(serialize_graph(g))
    return OK


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "tree":
        g = generators.random_tree(rng, args.n)
    elif args.kind == "path":
        g = generators.random_path(rng, args.m)
    elif args.kind == "cycle":
        g = generators.random_cycle(rng, args.m)
    elif args.kind == "random-deg2":
        g = generators.random_maxdeg2(rng, args.n)
    else:
        hs = generators.random_hitting_system(rng, args.n, args.m, args.k)
        sys.stdout.write(serialize_hitting_system(hs))
        return OK
    sys.stdout.write(serialize_graph(g))
    return OK


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tsr`` parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="tsr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_guard(sp):
        sp.add_argument("--guard", type=_count, default=DEFAULT_GUARD,
                        help="abort exhaustive search beyond this many states")
        sp.add_argument("--cap", type=_count, default=20,
                        help="refuse enumeration beyond this many vertices")

    sp = sub.add_parser("check", help="validate graph / seed / sequence files")
    sp.add_argument("graph")
    sp.add_argument("--seed")
    sp.add_argument("--sequence")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("activate", help="print the activation trace of a seed")
    sp.add_argument("graph")
    sp.add_argument("--seed", required=True)
    sp.set_defaults(func=_cmd_activate)

    sp = sub.add_parser("solve-min", help="minimum target set size")
    sp.add_argument("graph")
    sp.add_argument("--oracle", action="store_true")
    add_guard(sp)
    sp.set_defaults(func=_cmd_solve_min)

    sp = sub.add_parser("reconfigure", help="decide TJ-reconfigurability")
    sp.add_argument("graph")
    sp.add_argument("--from", dest="src", required=True, help="seed file for X")
    sp.add_argument("--to", dest="dst", required=True, help="seed file for Y")
    sp.add_argument("--model", choices=["tj", "tar"], default="tj")
    sp.add_argument("--k", type=int, default=None, help="TAR budget (oracle mode)")
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--emit-sequence", default=None)
    add_guard(sp)
    sp.set_defaults(func=_cmd_reconfigure)

    sp = sub.add_parser("oracle", help="exhaustive target-set / reconfiguration report")
    sp.add_argument("graph")
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--from", dest="src", default=None)
    sp.add_argument("--to", dest="dst", default=None)
    sp.add_argument("--model", choices=["tj", "tar"], default="tj")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--emit-sequence", default=None)
    sp.add_argument("--json", action="store_true")
    add_guard(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("reduce", help="apply a hardness reduction to an instance")
    sp.add_argument("kind", choices=["vc-cubic", "pb342", "b312", "split"])
    sp.add_argument("input")
    sp.add_argument("-o", "--output", default=None, help="output prefix")
    sp.add_argument("--from", dest="src", default=None)
    sp.add_argument("--to", dest="dst", default=None)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("gadget", help="emit a standalone gadget as a TSR file")
    sp.add_argument("kind", choices=["oneway", "theta", "theta1", "xi", "sigma"])
    sp.set_defaults(func=_cmd_gadget)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("kind", choices=["tree", "cycle", "path", "random-deg2", "hs"])
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_gen)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_EXCEEDED
    except (TsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
