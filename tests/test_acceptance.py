"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Each criterion is exact combinatorics or oracle equivalence; there
are no numeric tolerances to tune.
"""

import itertools
import random
import time
from contextlib import contextmanager

from tsr.activation import activate, is_target_set
from tsr.generators import (
    cycle_with_spacing,
    path_with_spacing,
    random_connected,
    random_hitting_system,
    random_maxdeg2,
    random_tree,
)
from tsr.graph import PlainGraph, ThresholdGraph, classify, vc_to_tss
from tsr.oracle import (
    all_target_set_masks,
    enumerate_target_sets,
    ktar_decide,
    min_target_set_size,
    target_sets_by_size,
    tj_decide,
)
from tsr.reconfig import TAR, ReconfigSequence, validate_sequence, tar_to_tj, tj_to_tar
from tsr.reductions import (
    hs_tj_decide,
    reduce_33_to_b312,
    reduce_33_to_pb342,
    reduce_hitting_to_split,
    reduce_vc23_to_cubic,
    verify_reduction,
)
from tsr.solvers import chen_tree, component_plan, maxdeg2_min_size, solve_maxdeg2


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{time.time() - start:.1f}s]")


def _sets_of(g, masks):
    return [frozenset(v for v in g.vertices if m >> v & 1) for m in masks]


def _mask(s):
    out = 0
    for v in s:
        out |= 1 << v
    return out


def test_criterion_1_theta_certification(theta, theta_r1):
    with criterion(1, "theta gadget certification"):
        start = time.time()
        m_seed = frozenset({13, 2, 9})  # r, t_{1,2}, t_{2,3}
        assert min_target_set_size(theta) == 3
        assert min_target_set_size(theta_r1) == 3
        trace = activate(theta, m_seed)
        schedule = [sorted(trace.newly_active(t)) for t in range(len(trace.rounds))]
        assert schedule == [
            [2, 9, 13],
            [1, 3, 8],   # t_{1,1}, t_{1,3}, t_{2,2}
            [7],         # t_{2,1}
            [12],        # t_{2,6}
            [6],         # t_{1,6}
            [5],         # t_{1,5}
            [4, 11],     # t_{1,4}, t_{2,5}
            [10],        # t_{2,4}
        ]
        assert trace.final == frozenset(range(1, 14))
        pairs = list(itertools.combinations(range(1, 14), 2))
        assert len(pairs) == 78
        assert all(not is_target_set(theta_r1, p) for p in pairs)
        assert time.time() - start < 1.0


def test_criterion_2_path_cycle_formulas():
    with criterion(2, "path/cycle minimum formulas"):
        start = time.time()
        rng = random.Random(2024)
        for m in range(0, 9):
            for _ in range(20):
                budget = 14 - m  # keep the oracle side exact and fast
                # paths: positive end runs, random interior runs
                gaps = [1] + [0] * max(m - 1, 0) + [1]
                if m == 0:
                    gaps = [rng.randint(2, 6)]
                else:
                    spare = budget - 2
                    for _ in range(rng.randint(0, max(spare, 0))):
                        gaps[rng.randrange(len(gaps))] += 1
                p = path_with_spacing(m, gaps)
                want = m // 2 + 1
                assert min_target_set_size(p) == want, (m, gaps)
                # cycles: any nonnegative runs totalling >= 3 vertices
                cgaps = [0] * max(m, 1)
                if m == 0:
                    cgaps = [rng.randint(3, 8)]
                else:
                    spare = budget
                    for _ in range(rng.randint(0, max(spare, 0))):
                        cgaps[rng.randrange(len(cgaps))] += 1
                if m + sum(cgaps) < 3:
                    cgaps[0] += 3 - m - sum(cgaps)
                c = cycle_with_spacing(m, cgaps)
                if m == 0:
                    cwant = 1  # threshold-1 case of the cycle lemma
                elif m % 2 == 0:
                    cwant = m // 2
                else:
                    cwant = (m + 1) // 2
                assert maxdeg2_min_size(c) == cwant, (m, cgaps)
                assert min_target_set_size(c) == cwant, (m, cgaps)
                assert maxdeg2_min_size(p) == want
        assert time.time() - start < 30.0


def test_criterion_3_even_cycle_rigidity():
    with criterion(3, "even-cycle rigidity"):
        rng = random.Random(33)
        for m in (4, 6, 8):
            for gaps in ([0] * m, [1] * m, [rng.randint(0, 2) for _ in range(m)]):
                g = cycle_with_spacing(m, gaps)
                k = m // 2
                assert min_target_set_size(g, cap=32) == k == maxdeg2_min_size(g)
                minima = enumerate_target_sets(g, k, cap=32)
                assert len(minima) == 2, (m, gaps)
                s1, s2 = minima
                assert not tj_decide(g, s1, s2).reconfigurable
                rep = ktar_decide(g, s1, s2, k + 1)
                assert rep.reconfigurable
                assert validate_sequence(g, rep.shortest).ok


def test_criterion_4_fig1_fixtures(fig1):
    with criterion(4, "figure-1 fixture pair decisions"):
        x1, y1 = frozenset({1, 6, 9}), frozenset({3, 7, 9})
        x2, y2 = frozenset({1, 6, 9, 10}), frozenset({3, 7, 9, 10})
        solver_no, _ = solve_maxdeg2(fig1, x1, y1)
        assert solver_no is False
        assert tj_decide(fig1, x1, y1).reconfigurable is False
        solver_yes, seq = solve_maxdeg2(fig1, x2, y2)
        assert solver_yes is True
        assert validate_sequence(fig1, seq).ok and seq.end == y2
        rep = tj_decide(fig1, x2, y2)
        assert rep.reconfigurable and len(rep.shortest) == 3
        assert validate_sequence(fig1, rep.shortest).ok


def test_criterion_5_maxdeg2_vs_oracle():
    with criterion(5, "max-degree-2 solver vs oracle, 500 instances"):
        rng = random.Random(555)
        pair_count = 0
        for _ in range(500):
            g = random_maxdeg2(rng, rng.randint(3, 12))
            by_size = target_sets_by_size(g)
            ts_all = set()
            for masks in by_size.values():
                ts_all.update(masks)
            mn = min(by_size)
            assert mn == maxdeg2_min_size(g)
            for k in (mn, mn + 1):
                masks = by_size.get(k, [])
                if len(masks) < 2:
                    continue
                index = {m: i for i, m in enumerate(masks)}
                parent = list(range(len(masks)))

                def find(a):
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    return a

                for m in masks:
                    i = index[m]
                    for out in (v for v in g.vertices if m >> v & 1):
                        base = m & ~(1 << out)
                        for into in g.vertices:
                            if m >> into & 1:
                                continue
                            j = index.get(base | (1 << into))
                            if j is not None:
                                ri, rj = find(i), find(j)
                                if ri != rj:
                                    parent[ri] = rj
                sets = _sets_of(g, masks)
                is_ts = lambda s: _mask(s) in ts_all
                for (i, x), (j, y) in itertools.combinations(enumerate(sets), 2):
                    verdict, seq = solve_maxdeg2(g, x, y)
                    assert verdict == (find(i) == find(j)), (g, sorted(x), sorted(y))
                    if verdict:
                        rep = validate_sequence(g, seq, is_ts=is_ts)
                        assert rep.ok and seq.end == y, (g, sorted(x), sorted(y), rep)
                    pair_count += 1
        assert pair_count > 0
        print(f"  [criterion 5 compared {pair_count} pairs]", end=" ")


def test_criterion_6_tree_solver(fig5_tree):
    with criterion(6, "tree solver vs oracle, 200 trees"):
        assert len(chen_tree(fig5_tree).s_star) == 4
        rng = random.Random(66)
        routes = 0
        for _ in range(200):
            g = random_tree(rng, rng.randint(2, 14))
            plan = chen_tree(g)
            masks = all_target_set_masks(g)
            assert len(plan.s_star) == min(m.bit_count() for m in masks)
            packing_masks = [_mask(p) for _, p in plan.regions]
            for m in masks:
                assert all(m & pm for pm in packing_masks), (g, m)
            ts_all = set(masks)
            is_ts = lambda s: _mask(s) in ts_all
            sample = masks[:: max(1, len(masks) // 20)][:25]
            for m in sample:
                s = frozenset(v for v in g.vertices if m >> v & 1)
                seq = ReconfigSequence(s, component_plan(g).route(0, s)[0], TAR, k=len(s))
                rep = validate_sequence(g, seq, is_ts=is_ts)
                assert rep.ok and seq.end == plan.s_star
                assert max(len(t) for t in seq.sets()) <= len(s) + 1
                routes += 1
        print(f"  [criterion 6 validated {routes} routes]", end=" ")


def test_criterion_7_tj_tar_equivalence():
    with criterion(7, "TJ vs k-TAR equivalence, 300 graphs"):
        rng = random.Random(77)
        for _ in range(300):
            g = random_connected(rng, rng.randint(2, 7))
            k = min_target_set_size(g)
            sets = enumerate_target_sets(g, k)
            for x, y in itertools.combinations(sets, 2):
                tj = tj_decide(g, x, y)
                tar = ktar_decide(g, x, y, k)
                assert tj.reconfigurable == tar.reconfigurable, (g, sorted(x), sorted(y))
                if tj.reconfigurable:
                    assert validate_sequence(g, tj.shortest).ok
                    assert validate_sequence(g, tar.shortest).ok
                    as_tar = tj_to_tar(tj.shortest)
                    assert validate_sequence(g, as_tar).ok
                    back = tar_to_tj(as_tar)
                    assert validate_sequence(g, back).ok
                    assert back.start == x and back.end == tj.shortest.end


def test_criterion_8_reduction_equivalence(k4):
    with criterion(8, "reduction equivalence and audits"):
        # split-graph reduction on 10 random hitting systems
        rng = random.Random(88)
        done = 0
        while done < 10:
            n = rng.randint(2, 5)
            k = rng.randint(1, min(2, n - 1))
            hs = random_hitting_system(rng, n, rng.randint(1, 4), k)
            sets = hs.hitting_sets()
            if len(sets) < 2:
                continue
            x, y = rng.sample(sets, 2)
            out = reduce_hitting_to_split(hs)
            # split structure: clique on universe+apex, independent family
            gg = out.graph
            clique = list(range(1, hs.n + 1)) + [gg.n]
            assert all(
                gg.has_edge(a, b) for a, b in itertools.combinations(clique, 2)
            )
            fam = list(range(hs.n + 1, hs.n + 1 + len(hs.family)))
            assert not any(
                gg.has_edge(a, b) for a, b in itertools.combinations(fam, 2)
            )
            assert verify_reduction(hs_tj_decide(hs, x, y), out, x, y).equivalent
            done += 1
        # sigma reduction on C4 and C6
        for cyc, xy in [
            (PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
             ({1, 3}, {2, 4})),
            (PlainGraph.build(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
             ({1, 3, 5}, {2, 4, 6})),
        ]:
            out = reduce_vc23_to_cubic(cyc)
            g = out.graph
            assert all(len(g.adj[v]) == 3 for v in g.vertices)
            x, y = (frozenset(s) for s in xy)
            source = tj_decide(vc_to_tss(cyc), x, y).reconfigurable
            assert verify_reduction(source, out, x, y).equivalent
            assert verify_reduction(True, out, x, x).equivalent
        # structural audits of the two (3,3) reductions on K4
        outp = reduce_33_to_pb342(k4)
        rep = classify(outp.graph)
        assert rep.degree_set <= {3, 4}
        assert set(outp.graph.tau[1:]) == {2}
        assert rep.is_bipartite
        outb = reduce_33_to_b312(k4)
        repb = classify(outb.graph)
        assert repb.degree_set == {3}
        assert set(outb.graph.tau[1:]) <= {1, 2}
        assert repb.is_bipartite


def test_criterion_9_oplus_counterexample(fig2):
    with criterion(9, "disjoint-union minimality counterexample"):
        # joint pair (not minimum overall) is reconfigurable...
        xj, yj = frozenset({1, 3, 5, 6}), frozenset({2, 4, 5, 6})
        rep = tj_decide(fig2, xj, yj)
        assert rep.reconfigurable
        assert validate_sequence(fig2, rep.shortest).ok
        solver_yes, seq = solve_maxdeg2(fig2, xj, yj)
        assert solver_yes and validate_sequence(fig2, seq).ok
        # ...but the restriction to the cycle factor alone is not
        c4 = ThresholdGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [2, 2, 2, 2])
        assert not tj_decide(c4, {1, 3}, {2, 4}).reconfigurable
        no, _ = solve_maxdeg2(c4, {1, 3}, {2, 4})
        assert no is False
