import collections
import dataclasses
import itertools
import random
import re

import pytest

from tsr import errors
from tsr.activation import activation_times, is_target_set
from tsr.generators import (
    cycle_with_spacing,
    path_with_spacing,
    random_connected,
    random_cycle,
    random_maxdeg2,
    random_path,
    random_tree,
)
from tsr.graph import ThresholdGraph, disjoint_union
from tsr.oracle import (
    enumerate_target_sets,
    min_target_set_size,
    target_sets_by_size,
    tj_components,
    tj_decide,
)
from tsr.reconfig import TAR, TJ, ReconfigSequence, tar_to_tj, validate_sequence
from tsr.solvers import (
    chen_tree,
    component_plan,
    cycle_moves,
    decompose_deg2,
    maxdeg2_min_size,
    solve,
    solve_maxdeg2,
    solve_threshold1,
    solve_tree,
)


def test_decompose_fig1(fig1):
    dec = decompose_deg2(fig1)
    kinds = sorted((c.kind, c.m, c.terrible) for c in dec.components)
    assert kinds == [("cycle", 4, True), ("path", 0, False)]
    cyc = next(c for c in dec.components if c.kind == "cycle")
    assert cyc.w == (1, 3, 6, 7)
    assert dec.min_size == 3


def test_decompose_odd_cycle_not_terrible():
    g = cycle_with_spacing(5, [0] * 5)
    dec = decompose_deg2(g)
    assert dec.components[0].kind == "cycle"
    assert dec.components[0].m == 5
    assert not dec.components[0].terrible


def test_cycle_runs_are_the_intervals():
    """A cycle's runs are the paper's intervals: cut before each threshold-2
    vertex w_j, with the piece before w_0 wrapping into the last run, they
    tile the walk from w_0; for m >= 2 every two consecutive runs meet every
    target set (V minus them is not one), the must-hit family of weight 1/2
    each behind min_size = ceil(m/2).  Thresholds are rotated round each
    seeded cycle, so its walk can start inside a run."""
    rng = random.Random(32)
    pairs = wrapped = 0
    for m in range(1, 12):
        for _ in range(20):
            g = random_cycle(rng, m)
            shift = rng.randrange(g.n)
            g = ThresholdGraph.build(g.n, g.edges, g.tau[1 + shift :] + g.tau[1 : 1 + shift])
            (comp,) = component_plan(g).components
            order, w, runs = comp.order, comp.w, comp.runs
            i = order.index(w[0])
            wrapped += i > 0
            assert sum(runs, ()) == order[i:] + order[:i], g
            assert [run[0] for run in runs] == list(w), g
            assert comp.min_size == (m + 1) // 2
            for j in range(m if m >= 2 else 0):
                rest = comp.vertices.difference(runs[j - 1], runs[j])
                assert -1 in activation_times(g, rest)[1:], (g, j)
                pairs += 1
    assert pairs == 1300 and wrapped > 100, (pairs, wrapped)


def test_decompose_single_edge():
    g = ThresholdGraph.build(2, [(1, 2)], [1, 1])
    dec = decompose_deg2(g)
    assert dec.components[0].kind == "path" and dec.components[0].m == 0


def test_decompose_rejects_degree3(k4):
    with pytest.raises(errors.DegreeTooLarge):
        decompose_deg2(k4)


def _route_to_canonical(g, s):
    """The plan's TAR route of a one-component graph from s, and where it ends."""
    steps, canonical = component_plan(g).route(0, frozenset(s))
    return ReconfigSequence(frozenset(s), steps, TAR, k=len(s)), canonical


@pytest.mark.parametrize(
    "m,gaps,size,canon_positions",
    [
        (3, [1, 0, 1, 1], 2, (0, 2)),
        (0, [3], 1, None),
        (4, [1, 1, 1, 1, 1], 3, (0, 2, 3)),
        (1, [2, 1], 1, (0,)),
        (2, [1, 0, 1], 2, (0, 1)),
        (4, [1, 0, 0, 0, 2], 3, (0, 2, 3)),
        (5, [1, 0, 2, 0, 1, 1], 3, (0, 2, 4)),
        (6, [1, 1, 0, 2, 0, 1, 1], 4, (0, 2, 4, 5)),
    ],
)
def test_path_canonical_examples(m, gaps, size, canon_positions):
    g = path_with_spacing(m, gaps)
    plan = component_plan(g)
    assert [c.kind for c in plan.components] == ["path"]
    assert plan.min_size == size == min_target_set_size(g)
    # every route ends at the canonical minimum; the whole vertex set is a target set
    canon = plan.route(0, plan.components[0].vertices)[1]
    if canon_positions is None:
        assert canon == {1}
    else:
        w = [v for v in g.vertices if g.tau[v] == 2]
        assert canon == {w[i] for i in canon_positions}
    for s in enumerate_target_sets(g, size) + enumerate_target_sets(g, size + 1):
        seq, end = _route_to_canonical(g, s)
        rep = validate_sequence(g, seq)
        assert rep.ok and seq.end == end == canon
        assert max(len(t) for t in seq.sets()) <= len(s) + 1


def test_cycle_fig3_route():
    """Six threshold-2 vertices; the staged route lands on {w2, w4, w6}."""
    g = cycle_with_spacing(6, [1, 2, 0, 1, 1, 1])
    w = [v for v in g.vertices if g.tau[v] == 2]
    a, d, e = 2, 8, 10
    s = frozenset({w[2], w[5], a, d, e})
    comp = component_plan(g).components[0]
    assert (comp.kind, comp.m) == ("cycle", 6)
    seq, canonical = _route_to_canonical(g, s)
    assert canonical == {w[1], w[3], w[5]}
    rep = validate_sequence(g, seq)
    assert rep.ok and seq.end == canonical
    assert max(len(t) for t in seq.sets()) <= len(s) + 1


def test_cycle_fig4_odd_route():
    """Five threshold-2 vertices; the route ends at {w1, w3, w5}."""
    g = cycle_with_spacing(5, [1, 2, 3, 1, 2])
    w = [v for v in g.vertices if g.tau[v] == 2]
    s = frozenset({w[1], w[3], 2, 4, 13, 14})
    comp = component_plan(g).components[0]
    assert (comp.kind, comp.m) == ("cycle", 5)
    seq, canonical = _route_to_canonical(g, s)
    assert canonical == {w[0], w[2], w[4]}
    # its one consecutive pair is w5, w1: anchored at w1 (index 0)
    assert [p for p in range(5) if {w[p - 1], w[p]} <= canonical] == [0]
    rep = validate_sequence(g, seq)
    assert rep.ok and seq.end == canonical
    assert max(len(t) for t in seq.sets()) <= len(s) + 1


def test_cycle_m2_two_singletons():
    g = cycle_with_spacing(2, [1, 1])
    w = [v for v in g.vertices if g.tau[v] == 2]
    plan = component_plan(g)
    assert plan.min_size == 1
    _, canonical = _route_to_canonical(g, {w[0]})
    flipped = frozenset(w) - canonical
    flip = ReconfigSequence(canonical, tuple(cycle_moves(plan.components[0], canonical, flipped)), TAR, k=1)
    assert validate_sequence(g, flip).ok and flip.end == flipped
    assert {canonical, flipped} == {frozenset({w[0]}), frozenset({w[1]})}


def test_cycle_minimum_sets_match_oracle():
    """An even cycle's minima are the two sets its flip moves between; an odd
    cycle's m rotations are minima reachable from its canonical, and every
    odd-cycle canonical is one."""
    for m, gaps in [(2, [1, 0]), (4, [1, 0, 1, 0]), (5, [1, 0, 0, 1, 0]), (6, [0] * 6)]:
        g = cycle_with_spacing(m, gaps)
        plan = component_plan(g)
        comp = plan.components[0]
        assert (comp.kind, comp.m, comp.terrible) == ("cycle", m, m in (4, 6))
        mins = enumerate_target_sets(g, plan.min_size)
        assert plan.min_size == min_target_set_size(g)
        if m % 2 == 0:
            _, canonical = _route_to_canonical(g, comp.w)
            flipped = frozenset(comp.w) - canonical
            flip = cycle_moves(comp, canonical, flipped)
            assert sorted(map(sorted, mins)) == sorted(map(sorted, (canonical, flipped)))
            assert ReconfigSequence(canonical, tuple(flip), TAR, k=len(canonical)).end == flipped
        else:
            # the m all-threshold-2 minima {w_p, w_p+2, ...}, each reached from the canonical
            _, canonical = _route_to_canonical(g, comp.w)
            rotations = {frozenset(comp.w[(p + 2 * j) % m] for j in range((m + 1) // 2)) for p in range(m)}
            assert len(rotations) == m and rotations <= set(mins)
            for r in rotations:
                assert ReconfigSequence(canonical, tuple(cycle_moves(comp, canonical, r)), TAR).end == r
            sets = mins + enumerate_target_sets(g, plan.min_size + 1)
            assert {_route_to_canonical(g, s)[1] for s in sets} <= rotations


def test_chen_fig5(fig5_tree):
    plan = chen_tree(fig5_tree)
    assert plan.kind == "tree"
    assert plan.s_star == {2, 6, 8, 9}
    assert len(plan.s_star) == 4
    assert tuple(s_i for s_i, _ in plan.regions) == (6, 8, 9, 2)
    assert tuple(p_i for _, p_i in plan.regions) == (
        frozenset({6, 10, 11}),
        frozenset({8, 12, 13}),
        frozenset({9, 14}),
        frozenset({2, 3, 4, 5, 7}),
    )
    for s_i, p_i in plan.regions:
        assert plan.s_star & p_i == {s_i}


def test_chen_single_edge():
    g = ThresholdGraph.build(2, [(1, 2)], [1, 1])
    assert chen_tree(g).s_star == {1}


def test_chen_star():
    g = ThresholdGraph.build(4, [(1, 2), (1, 3), (1, 4)], [3, 1, 1, 1])
    plan = chen_tree(g)
    assert len(plan.s_star) == min_target_set_size(g) == 1


def test_chen_rejects_non_tree(fig1):
    with pytest.raises(errors.NotATree):
        chen_tree(fig1)


def _tree_route(g, s):
    """The TAR sequence from s down the tree's one component route."""
    return ReconfigSequence(s, component_plan(g).route(0, s)[0], TAR, k=len(s))


def test_tree_route_from_s_star(fig5_tree):
    plan = chen_tree(fig5_tree)
    seq = _tree_route(fig5_tree, plan.s_star)
    assert len(seq) == 0


def test_tree_route_from_full_vertex_set(fig5_tree):
    plan = chen_tree(fig5_tree)
    s = frozenset(fig5_tree.vertices)
    seq = _tree_route(fig5_tree, s)
    rep = validate_sequence(fig5_tree, seq)
    assert rep.ok and seq.end == plan.s_star
    sizes = [len(t) for t in seq.sets()]
    assert max(sizes) <= len(s) + 1
    assert sizes == sorted(sizes, reverse=True)  # pure removals shrink monotonically


def test_tree_route_mixed_seed(fig5_tree):
    plan = chen_tree(fig5_tree)
    leaves = frozenset(v for v in fig5_tree.vertices if len(fig5_tree.adj[v]) == 1)
    s = leaves | plan.s_star
    seq = _tree_route(fig5_tree, s)
    rep = validate_sequence(fig5_tree, seq)
    assert rep.ok and seq.end == plan.s_star
    assert max(len(t) for t in seq.sets()) <= len(s) + 1


def test_chen_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        g = random_tree(rng, rng.randint(2, 11))
        assert len(chen_tree(g).s_star) == min_target_set_size(g)


def test_solve_tree_pairs(fig5_tree):
    sets = enumerate_target_sets(fig5_tree, 5)
    for x, y in itertools.combinations(sets[:6], 2):
        yes, seq = solve_tree(fig5_tree, x, y)
        assert yes
        rep = validate_sequence(fig5_tree, seq)
        assert rep.ok and seq.start == x and seq.end == y


def test_solve_tree_tar_model(fig5_tree):
    sets = enumerate_target_sets(fig5_tree, 4)
    yes, seq = solve_tree(fig5_tree, sets[0], sets[-1], model=TAR)
    assert yes and seq.model == TAR
    assert validate_sequence(fig5_tree, seq).ok


def test_solve_threshold1_canonical_and_pairs():
    g = ThresholdGraph.build(
        6, [(1, 2), (3, 4), (5, 6)], [1, 1, 1, 1, 1, 1]
    )
    yes, seq = solve_threshold1(g, {2, 3, 5}, {1, 4, 6})
    assert yes
    rep = validate_sequence(g, seq)
    assert rep.ok and seq.end == {1, 4, 6}
    same = solve_threshold1(g, {2, 4, 6}, {2, 4, 6})[1]
    assert validate_sequence(g, same).ok and same.end == {2, 4, 6}
    with pytest.raises(errors.PreconditionViolated):
        solve_threshold1(ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1]), {2}, {2})


def test_solve_maxdeg2_fig1(fig1):
    no, seq = solve_maxdeg2(fig1, {1, 6, 9}, {3, 7, 9})
    assert no is False and seq is None
    yes, seq2 = solve_maxdeg2(fig1, {1, 6, 9, 10}, {3, 7, 9, 10})
    assert yes
    rep = validate_sequence(fig1, seq2)
    assert rep.ok and seq2.end == {3, 7, 9, 10}


def test_solve_maxdeg2_same_terrible_restriction(fig1):
    # Case 3: minimum endpoints agreeing on the terrible cycle
    x = frozenset({1, 6, 9})
    y = frozenset({1, 6, 10})
    yes, seq = solve_maxdeg2(fig1, x, y)
    assert yes and validate_sequence(fig1, seq).ok and seq.end == y


def test_solve_maxdeg2_non_removable_excess():
    """A non-minimum endpoint may have no single removable vertex; the phased
    route still succeeds (path a-w1-b-w2-c seeded {a,b,c} next to a frozen
    terrible cycle)."""
    # cycle w's at 1,2,3,4; path 5..9 = a w1 b w2 c
    g = ThresholdGraph.build(
        9,
        [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
        [2, 2, 2, 2, 1, 2, 1, 2, 1],
    )
    x = frozenset({1, 3, 5, 7, 9})
    y = frozenset({2, 4, 5, 7, 9})
    for v in x:
        assert not is_target_set(g, x - {v})
    yes, seq = solve_maxdeg2(g, x, y)
    assert yes
    rep = validate_sequence(g, seq)
    assert rep.ok and seq.end == y
    assert tj_decide(g, x, y).reconfigurable


def test_solve_maxdeg2_oracle_agreement_quick():
    rng = random.Random(1234)
    for _ in range(60):
        g = random_maxdeg2(rng, rng.randint(3, 10))
        by = target_sets_by_size(g)
        mn = min(by)
        assert mn == maxdeg2_min_size(g)
        for k in (mn, mn + 1):
            masks = by.get(k, [])[:6]
            sets = [frozenset(v for v in g.vertices if m >> v & 1) for m in masks]
            for x, y in itertools.combinations(sets, 2):
                yes, seq = solve_maxdeg2(g, x, y)
                assert yes == tj_decide(g, x, y).reconfigurable
                if yes:
                    rep = validate_sequence(g, seq)
                    assert rep.ok and seq.end == y


def test_solve_maxdeg2_preconditions(fig1):
    with pytest.raises(errors.PreconditionViolated):
        solve_maxdeg2(fig1, {1, 6, 9}, {3, 7, 9, 10})
    with pytest.raises(errors.PreconditionViolated):
        solve_maxdeg2(fig1, {1, 2, 9}, {3, 7, 9})


def test_solve_threshold1_p3_pair():
    g = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 1, 1])
    yes, seq = solve_threshold1(g, {1, 2}, {2, 3})
    assert yes
    rep = validate_sequence(g, seq)
    assert rep.ok and seq.end == {2, 3}


def _pairs(g, rng, per_size=6):
    """Seeded same-size target-set pairs of g at its two smallest sizes."""
    by = target_sets_by_size(g)
    out = []
    for k in sorted(by)[:2]:
        sets = [frozenset(v for v in g.vertices if m >> v & 1) for m in by[k]]
        pairs = list(itertools.combinations(sets, 2))
        out += rng.sample(pairs, min(per_size, len(pairs)))
    return out


def test_solve_maxdeg2_tar_model_random():
    rng = random.Random(77)
    yes_count = 0
    for _ in range(60):
        g = random_maxdeg2(rng, rng.randint(3, 11))
        for x, y in _pairs(g, rng):
            verdict, tar = solve_maxdeg2(g, x, y, model=TAR)
            tj_verdict, tj = solve_maxdeg2(g, x, y, model=TJ)
            assert verdict == tj_verdict
            if not verdict:
                assert tar is None and tj is None
                continue
            yes_count += 1
            assert tar.model == TAR and tar.k == len(x)
            assert validate_sequence(g, tar).ok
            assert tar.start == x and tar.end == y
            assert tar_to_tj(tar) == tj
    assert yes_count > 100


def _answer(solve, g, x, y, model):
    """A solver's verdict and sequence text, or its error's type and message."""
    try:
        verdict, seq = solve(g, x, y, model=model)
    except errors.TsrError as exc:
        return type(exc).__name__, str(exc)
    return verdict, None if seq is None else seq.format()


def test_plans_are_per_instance_and_never_change_answers():
    """Answers on one graph object, with repeats, match answers on fresh copies."""
    rng = random.Random(4242)
    graphs = [(random_maxdeg2(rng, rng.randint(3, 11)), solve_maxdeg2) for _ in range(25)]
    graphs += [(random_tree(rng, rng.randint(2, 10)), solve_tree) for _ in range(25)]
    for g, solve in graphs:
        stream = []
        for x, y in _pairs(g, rng, 4):
            stream += [(x, y), (y, x), (x, y)]
            bad = [frozenset(c) for c in itertools.combinations(g.vertices, len(x)) if not is_target_set(g, c)]
            stream += [(bad[0], y), (x, bad[-1]), (x, y)] if bad else []
        for model in (TJ, TAR):
            shared = [_answer(solve, g, x, y, model) for x, y in stream]
            alone = [_answer(solve, dataclasses.replace(g), x, y, model) for x, y in stream]
            assert shared == alone
        copy = dataclasses.replace(g)
        assert vars(copy).keys() == {"n", "adj", "tau"}
        if solve is solve_maxdeg2:
            assert decompose_deg2(g) is decompose_deg2(g)
            assert decompose_deg2(copy) is not decompose_deg2(g)
        else:
            assert chen_tree(g) is chen_tree(g)
            assert chen_tree(copy) is not chen_tree(g)
            # one tree plan: chen_tree is the component plan's entry, cached nowhere else
            assert chen_tree(g) is component_plan(g).components[0]
            assert "_tree_plans" not in vars(g)


@pytest.mark.parametrize("model", [TJ, TAR])
@pytest.mark.parametrize("solve", [solve_tree, solve_threshold1, solve_maxdeg2])
def test_same_endpoints_give_the_empty_sequence(solve, model):
    """x == y is the empty sequence from every solver: with k=0 in TJ, as
    every ``tar_to_tj`` answer carries, and with k=|x| in TAR."""
    p4 = ThresholdGraph.build(4, [(1, 2), (2, 3), (3, 4)], [1, 1, 1, 1])
    for x in enumerate_target_sets(p4, 1) + enumerate_target_sets(p4, 2):
        yes, seq = solve(p4, x, set(x), model=model)
        assert yes and seq == ReconfigSequence(x, (), model, k=len(x) if model == TAR else 0)


@pytest.mark.parametrize(
    "solve,n,edges,tau,x,y,bad",
    [
        (solve_tree, 4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1], {2, 3}, {1, 4}, {1, 4}),
        (solve_tree, 4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1], {1, 4}, {1, 4}, {1, 4}),
        (solve_threshold1, 4, [(1, 2), (3, 4)], [1, 1, 1, 1], {1, 3}, {1, 2}, {1, 2}),
        (solve_threshold1, 4, [(1, 2), (3, 4)], [1, 1, 1, 1], {3, 4}, {2, 4}, {3, 4}),
        (solve_maxdeg2, 4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1], {2, 3}, {1, 4}, {1, 4}),
        (solve_maxdeg2, 4, [(1, 2), (3, 4)], [1, 1, 1, 1], {1, 2}, {2, 3}, {1, 2}),
        # fig5, a tree with degree-3 vertices routed by Chen's regions
        (
            solve_tree,
            14,
            [(1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 8), (5, 9), (6, 10), (6, 11), (8, 12), (8, 13), (9, 14)],
            [1, 2, 2, 1, 3, 3, 1, 2, 2, 1, 1, 1, 1, 1],
            {1},
            {14},
            {1},
        ),
    ],
)
def test_endpoint_error_names_the_set(solve, n, edges, tau, x, y, bad):
    """A non-target endpoint raises ``NotATargetSet``, a ``PreconditionViolated``,
    naming the first endpoint that is not a target set."""
    g = ThresholdGraph.build(n, edges, tau)
    for model in (TJ, TAR):
        with pytest.raises(errors.NotATargetSet, match=re.escape(f"{sorted(bad)} is not a target set")) as exc:
            solve(g, x, y, model=model)
        assert isinstance(exc.value, errors.PreconditionViolated)


def _mixed_union(rng):
    """Two or three pieces with n <= 13 in all, in shuffled order: at least one
    tree or connected threshold-1 graph, beside trees, threshold-1 graphs,
    paths and cycles (terrible ones included)."""
    makers = (
        lambda: random_tree(rng, rng.randint(2, 6)),
        lambda: (lambda h: ThresholdGraph.build(h.n, h.edges, [1] * h.n))(random_connected(rng, rng.randint(3, 5))),
        lambda: random_cycle(rng, rng.choice([0, 2, 3, 4]), 1),
        lambda: random_path(rng, rng.randint(0, 2), 1),
    )
    pieces = []
    while not pieces or sum(p.n for p in pieces) > 13:
        pieces = [rng.choice(makers[:2])()] + [rng.choice(makers)() for _ in range(rng.randint(1, 2))]
    rng.shuffle(pieces)
    g = pieces[0]
    for p in pieces[1:]:
        g = disjoint_union(g, p)[0]
    return g


def test_solve_matches_tj_components_on_mixed_unions():
    """On disjoint unions of trees, threshold-1 graphs, paths and cycles, ``solve``
    says YES exactly when ``tj_components`` puts both ends in one class, at the
    minimum size and one above, in TJ and TAR; every YES sequence validates."""
    rng = random.Random(2026)
    verdicts, kinds = collections.Counter(), collections.Counter()
    for _ in range(300):
        g = _mixed_union(rng)
        plan = component_plan(g)
        assert plan.min_size == min_target_set_size(g)
        kinds.update(c.kind for c in plan.components)
        for k in (plan.min_size, plan.min_size + 1):
            classes = tj_components(g, k).components
            sets = [(i, s) for i, cls in enumerate(classes) for s in cls]
            pairs = list(itertools.combinations(sets, 2))
            pairs = rng.sample(pairs, min(10, len(pairs)))
            if len(classes) > 1:
                a, b = rng.sample(classes, 2)
                pairs.append(((0, rng.choice(a)), (1, rng.choice(b))))
            for (i, x), (j, y) in pairs:
                for model in (TJ, TAR):
                    yes, seq = solve(g, x, y, model=model)
                    assert yes == (i == j), (g, x, y, model)
                    verdicts[yes] += 1
                    if yes:
                        assert seq.model == model and (seq.start, seq.end) == (x, y)
                        assert validate_sequence(g, seq).ok
                    else:
                        assert seq is None
    assert set(kinds) == {"path", "cycle", "threshold1", "tree"} and min(kinds.values()) >= 50, kinds
    assert verdicts[True] >= 5000 and verdicts[False] >= 100, verdicts
