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
from .errors import InstanceTooLarge, MalformedLine, TsrError
from .gadgets import attach
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
    DEFAULT_CAP,
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
    """The text of an input file; one that is not UTF-8 is a ``MalformedLine`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_graph(path: str) -> ThresholdGraph:
    return parse_graph(_read(path))


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    # every file is read before the first line is printed, so one that cannot be read prints nothing
    seed_text = _read(args.seed) if args.seed else None
    seq_text = _read(args.sequence) if args.sequence else None
    print(f"graph OK: n={g.n} m={g.m}")
    if seed_text is not None:
        seed = parse_seed_set(seed_text, g)
        kind = "target set" if is_target_set(g, seed) else "seed set (not a target set)"
        print(f"seed OK: size={len(seed)} {kind}")
    if seq_text is not None:
        seq = parse_sequence(seq_text)
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
    sys.stdout.writelines(trace.lines())  # streamed: the whole trace is never one string
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
    if yes and seq is not None:  # before the verdict: a write error leaves stdout empty
        _emit_sequence(args.emit_sequence, seq)
    print("YES" if yes else "NO")
    return OK


def _misuse(args) -> str | None:
    """Why the options of ``tsr solve-min``, ``reconfigure`` or ``oracle`` do not make one query, or None."""
    if args.command == "oracle":
        pair = (args.src, args.dst, args.model, args.k, args.emit_sequence)
        if args.size is not None and any(o is not None for o in pair):
            return "--size takes none of --from, --to, --model, --k and --emit-sequence"
        if (args.src is None) != (args.dst is None):
            return "--from and --to go together"
        if args.size is None and args.src is None:
            return "oracle needs --size, or both --from and --to"
    # a pair search stores states, which --guard bounds; --cap bounds enumeration
    if args.cap is not None and args.src is not None:
        return "--cap applies only to enumeration (--size, solve-min --oracle); --guard bounds a pair search"
    # the solvers neither search nor enumerate
    if not args.oracle and (args.guard is not None or args.cap is not None):
        return "--guard and --cap apply only with --oracle"
    # the solvers answer the |x|-TAR question; another budget needs the TAR search
    if args.k is not None and not args.oracle:
        return "--k applies only with --oracle"
    if args.k is not None and args.model != "tar":
        return "--k applies only with --model tar"
    return None


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if args.src is not None:
        x = parse_seed_set(_read(args.src), g)
        y = parse_seed_set(_read(args.dst), g)
        report = _oracle_pair(g, x, y, args)
        if report.reconfigurable and report.shortest is not None:
            _emit_sequence(args.emit_sequence, report.shortest)
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
        return OK
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
        out = reduce_hitting_to_split(parse_hitting_system(_read(args.input)))
    else:
        g = _load_graph(args.input)
        out = (
            reduce_vc23_to_cubic(PlainGraph.build(g.n, g.edges)) if args.kind == "vc-cubic"
            else reduce_33_to_pb342(g) if args.kind == "pb342" else reduce_33_to_b312(g)
        )
    # seed ids name input vertices (hitting-system elements); the forward map
    # rejects any other id, so map both seeds before any output
    paths = ((args.src, ".from.seed"), (args.dst, ".to.seed"))
    seeds = {suffix: out.forward(parse_seed_set(_read(path))) for path, suffix in paths if path}
    text = serialize_graph(out.graph)
    if args.output:
        prefix = Path(args.output)
        prefix.with_suffix(".tsr").write_text(text, encoding="utf-8")
        prefix.with_suffix(".origin").write_text(out.format_provenance(), encoding="utf-8")
        for suffix, s in seeds.items():
            prefix.with_suffix(suffix).write_text(serialize_seed_set(s), encoding="utf-8")
        print(f"wrote {prefix.with_suffix('.tsr')}")
    else:
        sys.stdout.write(text)
    return OK


def _cmd_gadget(args) -> int:
    g = attach(None, args.kind)[0]  # sigma is a VC gadget, emitted as TSS
    sys.stdout.write(serialize_graph(vc_to_tss(g) if isinstance(g, PlainGraph) else g))
    return OK


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "hs":  # a hitting system, not a graph
        sys.stdout.write(serialize_hitting_system(generators.random_hitting_system(rng, args.n, args.m, args.k)))
        return OK
    # graph kind -> (generator, the option that sizes it)
    gen, size = {
        "tree": (generators.random_tree, args.n),
        "path": (generators.random_path, args.m),
        "cycle": (generators.random_cycle, args.m),
        "random-deg2": (generators.random_maxdeg2, args.n),
    }[args.kind]
    sys.stdout.write(serialize_graph(gen(rng, size)))
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
        sp.add_argument("--guard", type=_count, default=None,
                        help="abort a pair search once it stores more than this many states (for "
                        "--model tar summed over sizes j), or an enumeration beyond this many sets "
                        f"(default {DEFAULT_GUARD})")
        sp.add_argument("--cap", type=_count, default=None,
                        help=f"refuse enumeration beyond this many vertices (default {DEFAULT_CAP}); "
                        "not with --from/--to")

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
    sp.set_defaults(func=_cmd_solve_min, src=None, k=None)  # no pair and no budget, for _misuse

    sp = sub.add_parser("reconfigure", help="decide TJ-reconfigurability")
    sp.add_argument("graph")
    sp.add_argument("--from", dest="src", required=True, help="seed file for X")
    sp.add_argument("--to", dest="dst", required=True, help="seed file for Y")
    sp.add_argument("--model", choices=["tj", "tar"], default="tj")
    sp.add_argument("--k", type=int, default=None, help="TAR budget (only with --oracle --model tar)")
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--emit-sequence", default=None)
    add_guard(sp)
    sp.set_defaults(func=_cmd_reconfigure)

    sp = sub.add_parser("oracle", help="exhaustive target-set / reconfiguration report")
    sp.add_argument("graph")
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--from", dest="src", default=None)
    sp.add_argument("--to", dest="dst", default=None)
    sp.add_argument("--model", choices=["tj", "tar"], default=None, help="pair model (default tj)")
    sp.add_argument("--k", type=int, default=None, help="TAR budget (only with --model tar)")
    sp.add_argument("--emit-sequence", default=None)
    sp.add_argument("--json", action="store_true")
    add_guard(sp)
    sp.set_defaults(func=_cmd_oracle, oracle=True)

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
    if args.command in ("solve-min", "reconfigure", "oracle"):
        misuse = _misuse(args)
        if misuse:
            print(f"error: {misuse}", file=sys.stderr)
            return INPUT_ERROR
        # the bounds not given take their defaults, once _misuse has seen which were
        args.guard = DEFAULT_GUARD if args.guard is None else args.guard
        args.cap = DEFAULT_CAP if args.cap is None else args.cap
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
