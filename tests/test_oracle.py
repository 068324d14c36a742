import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from tsr import errors, oracle
from tsr.generators import cycle_with_spacing, path_with_spacing, random_connected
from tsr.graph import ThresholdGraph
from tsr.oracle import (
    DEFAULT_GUARD,
    all_target_set_masks,
    enumerate_target_sets,
    ktar_decide,
    min_target_set_size,
    target_sets_by_size,
    tj_components,
    tj_decide,
)
from tsr.reconfig import validate_sequence
from tsr.reductions import HittingSystem, hs_tj_decide

THETA_M = frozenset({13, 2, 9})
# sha256 of repr(all_target_set_masks(g)) for g = random_connected(Random(20), 20, 0.25),
# as the int16 table computed it
TABLE_20_DIGEST = "adacb8f773268cf41aa7c338f85d45ae7b87e273d56c8726da5a8ad4d1b6d739"


def test_theta_r1_no_size2(theta_r1):
    assert enumerate_target_sets(theta_r1, 2) == []


def test_theta_min_and_m(theta, theta_r1):
    assert min_target_set_size(theta) == 3
    assert min_target_set_size(theta_r1) == 3
    assert THETA_M in enumerate_target_sets(theta, 3)
    assert THETA_M in enumerate_target_sets(theta_r1, 3)


def test_enumeration_lexicographic(fig2):
    sets = enumerate_target_sets(fig2, 3)
    listed = [tuple(sorted(s)) for s in sets]
    assert listed == sorted(listed)


def test_even_cycle_two_minima():
    # threshold-2 cycle with one spacer after each w: exactly two minima
    g = cycle_with_spacing(4, [1, 1, 1, 1])
    w = [v for v in g.vertices if g.tau[v] == 2]
    mins = enumerate_target_sets(g, 2)
    assert sorted(tuple(sorted(s)) for s in mins) == [
        (w[0], w[2]),
        (w[1], w[3]),
    ]


def test_min_sizes_path_cycle():
    from tsr.generators import path_with_spacing

    p = path_with_spacing(3, [1, 0, 1, 1])
    assert min_target_set_size(p) == 2
    c = cycle_with_spacing(5, [1, 0, 1, 0, 1])
    assert min_target_set_size(c) == 3


def test_fig1_pair_decisions(fig1):
    x1, y1 = frozenset({1, 6, 9}), frozenset({3, 7, 9})
    rep = tj_decide(fig1, x1, y1)
    assert rep.reconfigurable is False
    x2, y2 = frozenset({1, 6, 9, 10}), frozenset({3, 7, 9, 10})
    rep2 = tj_decide(fig1, x2, y2)
    assert rep2.reconfigurable and len(rep2.shortest) == 3
    assert validate_sequence(fig1, rep2.shortest).ok
    assert rep2.shortest.end == y2


def test_identity_pair(fig1):
    x = frozenset({1, 6, 9})
    rep = tj_decide(fig1, x, x)
    assert rep.reconfigurable and len(rep.shortest) == 0


def test_cycle_m4_tar_but_not_tj():
    g = cycle_with_spacing(4, [0, 0, 0, 0])
    s1, s2 = frozenset({1, 3}), frozenset({2, 4})
    assert not tj_decide(g, s1, s2).reconfigurable
    rep = ktar_decide(g, s1, s2, 3)
    assert rep.reconfigurable
    assert validate_sequence(g, rep.shortest).ok
    assert max(len(s) for s in rep.shortest.sets()) <= 4


def test_cycle_m2_single_jump():
    g = cycle_with_spacing(2, [1, 1])
    w = [v for v in g.vertices if g.tau[v] == 2]
    rep = tj_decide(g, {w[0]}, {w[1]})
    assert rep.reconfigurable and len(rep.shortest) == 1


def test_threshold1_always_yes():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected(rng, rng.randint(2, 7))
        g = ThresholdGraph.build(g.n, g.edges, [1] * g.n)
        by = target_sets_by_size(g)
        k = min(by)
        masks = by[k] + by.get(k + 1, [])
        for a in masks[:6]:
            for b in masks[:6]:
                if a.bit_count() != b.bit_count():
                    continue
                x = frozenset(v for v in g.vertices if a >> v & 1)
                y = frozenset(v for v in g.vertices if b >> v & 1)
                assert tj_decide(g, x, y).reconfigurable


def test_tj_matches_ktar_at_k():
    rng = random.Random(17)
    for _ in range(12):
        g = random_connected(rng, rng.randint(3, 7))
        sets = enumerate_target_sets(g, min_target_set_size(g))
        for x in sets[:4]:
            for y in sets[:4]:
                tj = tj_decide(g, x, y).reconfigurable
                tar = ktar_decide(g, x, y, len(x)).reconfigurable
                assert tj == tar


def test_oracle_sequences_validate():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected(rng, rng.randint(3, 7))
        k = min_target_set_size(g)
        sets = enumerate_target_sets(g, k + 1) or enumerate_target_sets(g, k)
        for x in sets[:3]:
            for y in sets[:3]:
                rep = tj_decide(g, x, y)
                if rep.reconfigurable:
                    assert validate_sequence(g, rep.shortest).ok


def test_components_partition(fig1):
    rep = tj_components(fig1, 3)
    assert rep.num_target_sets == sum(len(c) for c in rep.components)
    as_sets = [frozenset(c) for c in rep.components]
    x1, y1 = frozenset({1, 6, 9}), frozenset({3, 7, 9})
    cx = next(c for c in as_sets if x1 in c)
    assert y1 not in cx


def test_guards():
    g = cycle_with_spacing(0, [25])
    with pytest.raises(errors.InstanceTooLarge):
        enumerate_target_sets(g, 12, cap=20)
    with pytest.raises(errors.InstanceTooLarge):
        all_target_set_masks(g, guard=1000)
    with pytest.raises(errors.InstanceTooLarge):
        tj_decide(g, {1, 2, 3}, {4, 5, 6}, guard=3)
    with pytest.raises(errors.InstanceTooLarge):
        ktar_decide(g, {1, 2, 3}, {4, 5, 6}, 3, guard=3)
    with pytest.raises(errors.InstanceTooLarge):
        hs_tj_decide(HittingSystem.build(6, [range(1, 7)], 2), {1, 2}, {5, 6}, guard=1)


def test_ktar_guard_charges_stored_starts(monkeypatch):
    """A k-TAR search whose padded starts outnumber the guard trips after
    storing guard + 1 of them: on a threshold-1 path of 24 vertices, x = {1}
    has C(23, 8) = 490,314 supersets of size 9."""
    drawn = []
    real = oracle.bfs
    monkeypatch.setattr(oracle, "bfs", lambda starts, *a: real((drawn.append(s) or s for s in starts), *a))
    with pytest.raises(errors.InstanceTooLarge, match="guard of 1000 states"):
        ktar_decide(path_with_spacing(0, [24]), {1}, set(range(16, 25)), 9, guard=1000)
    assert len(drawn) == 1001


def test_fig1_outputs_pinned(fig1):
    """Reproducible tie-break: exact shortest sequences, stored states and
    component order.  The lengths (3 jumps, 4 TAR steps) are the
    breadth-first reference's."""
    tj = tj_decide(fig1, {1, 6, 9, 10}, {3, 7, 9, 10})
    assert tj.shortest.format() == "q tj 4\ns 1 6 9 10\nj 10 7\nj 6 3\nj 1 10\n"
    assert tj.explored == 23
    tar = ktar_decide(fig1, {1, 6, 9}, {3, 7, 9}, 4)
    assert tar.shortest.format() == "q tar 4\ns 1 6 9\na 7\na 3\nr 1\nr 6\n"
    assert tar.explored == 11
    assert tj_components(fig1, 3).components == (
        (frozenset({1, 6, 9}), frozenset({1, 6, 10})),
        (frozenset({3, 7, 9}), frozenset({3, 7, 10})),
    )


def test_pair_preconditions(fig1):
    with pytest.raises(errors.NotATargetSet):
        tj_decide(fig1, {1}, {2})
    with pytest.raises(errors.SizeMismatch):
        tj_decide(fig1, {1, 6, 9}, {1, 6, 9, 10})


def test_batch_matches_single(fig2):
    from tsr.activation import is_target_set

    masks = set(all_target_set_masks(fig2))
    for m in range(1 << fig2.n):
        s = frozenset(v for v in fig2.vertices if m >> (v - 1) & 1)
        assert ((m << 1) in masks) == is_target_set(fig2, s)


def _traced_peak(fn):
    """``fn()``'s result (or the TsrError it raised) and its tracemalloc peak in
    bytes; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        try:
            out = fn()
        except errors.TsrError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_memory_is_bounded():
    """All 2^20 seeds of a seeded n = 20 graph close in blocks: under 64 MB of
    tracemalloc peak (the int16 table peaked at 164 MB), and the masks are the
    int16 table's, pinned by count and digest."""
    g = random_connected(random.Random(20), 20, 0.25)
    masks, peak = _traced_peak(lambda: all_target_set_masks(g))
    assert peak < 64 << 20, peak
    assert len(masks) == 622_464
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == TABLE_20_DIGEST


def test_enumeration_memory_is_bounded():
    """The C(60, 4) combinations of a threshold-1 C60 close one block at a
    time: under 110 MB of tracemalloc peak, of which the 487,635 result sets
    are 104 MB (the whole seed matrix at once peaked at 148 MB)."""
    g = cycle_with_spacing(0, [60])
    sets, peak = _traced_peak(lambda: enumerate_target_sets(g, 4, cap=60))
    assert peak < 110 << 20, peak
    assert len(sets) == 487_635
    assert sets[0] == {1, 2, 3, 4} and sets[-1] == {57, 58, 59, 60}


def test_guards_precede_allocation():
    """Each enumeration guard raises its message before any seed matrix exists."""
    g = cycle_with_spacing(0, [21])
    cases = [
        (lambda: enumerate_target_sets(g, 10), "n=21 exceeds the enumeration cap of 20"),
        (lambda: tj_components(g, 10, cap=21, guard=10**5), "C(21,10) exceeds the enumeration guard"),
        (lambda: min_target_set_size(g, cap=21, guard=20), "C(21,1) exceeds the enumeration guard"),
        (lambda: all_target_set_masks(g, guard=1 << 20), "2^21 exceeds the enumeration guard"),
        (lambda: target_sets_by_size(g, guard=1 << 20), "2^21 exceeds the enumeration guard"),
    ]
    for fn, message in cases:
        exc, peak = _traced_peak(fn)
        assert isinstance(exc, errors.InstanceTooLarge) and str(exc) == message, exc
        assert peak < 1 << 20, (message, peak)


def test_table_is_built_once_per_graph(monkeypatch):
    """Pair queries and the size table on one graph object share one exact
    table; a ``dataclasses.replace`` copy starts without it."""
    from tsr import oracle

    builds = []
    real = oracle._full_rows
    monkeypatch.setattr(oracle, "_full_rows", lambda g, blocks: builds.append(g.n) or real(g, blocks))
    g = cycle_with_spacing(0, [13])
    x, y = set(range(1, 5)), set(range(7, 11))
    assert tj_decide(g, x, y).reconfigurable
    assert ktar_decide(g, x, y, 4).reconfigurable
    assert target_sets_by_size(g)[4]
    assert builds == [13]
    copy = dataclasses.replace(g)
    assert "_table" not in copy.__dict__
    assert target_sets_by_size(copy) == target_sets_by_size(g)
    assert builds == [13, 13]


def test_hub_state_belongs_to_one_search():
    """Each search keeps its own hubs: the hubs one search expanded are not
    skipped by the next, so two identical calls give identical results."""
    from tsr.oracle import _check_pair, bfs

    g = cycle_with_spacing(0, [9])
    x, y = {1, 2, 3}, {5, 6, 7}
    _, _, start, goal, repairs = _check_pair(g, x, y)
    first = bfs((start,), goal, g.n, repairs, DEFAULT_GUARD)
    again = bfs((start,), goal, g.n, repairs, DEFAULT_GUARD)
    assert first[1] and list(again[0].items()) == list(first[0].items()) and again[1:] == first[1:]


def _c40_trip(guard):
    """The threshold-1 C40 query at k = 10 from {1..10} to {21..30}, which
    stores 2,401 states, at ``guard``."""
    g = cycle_with_spacing(0, [40])
    return tj_decide(g, set(range(1, 11)), set(range(21, 31)), guard=guard)


def test_hub_test_bounds_removal_tests(monkeypatch):
    """On a threshold-1 C40 at k = 10 every hub is a target set, so a search
    makes one ``still_target`` call per hub it expands, on the hub, and none
    per state: at a guard of 2,000 the query trips after 69 calls
    (measured), at most ten a stored state."""
    calls, expanded = [], []
    real_test, real_bfs = oracle.still_target, oracle.bfs
    monkeypatch.setattr(oracle, "still_target", lambda g, s, v: calls.append(frozenset(s)) or real_test(g, s, v))

    def counted(starts, goal, n, repairs, *rest):
        def tracked(hub, *a):
            expanded.append(frozenset(v for v in range(1, n + 1) if hub >> v & 1))
            return repairs(hub, *a)

        return real_bfs(starts, goal, n, tracked, *rest)

    monkeypatch.setattr(oracle, "bfs", counted)
    assert _c40_trip(DEFAULT_GUARD).explored == 2_401
    calls.clear()
    expanded.clear()
    with pytest.raises(errors.InstanceTooLarge, match="guard of 2000 states"):
        _c40_trip(2_000)
    assert calls == expanded and {len(s) for s in calls} == {9}
    assert len(set(calls)) == len(calls) <= 2_001 * 10


def test_guard_bounds_memory():
    """The guard counts stored states, so it bounds what a search holds: the
    C40 query tripping at a guard of 2,000 peaks at about 0.2 MB of
    tracemalloc (measured), under 1 MB.  A guard on pops did not bound it:
    this pair at a guard of 20,000 pops held 99 MB."""
    exc, peak = _traced_peak(lambda: _c40_trip(2_000))
    assert isinstance(exc, errors.InstanceTooLarge) and peak < 1 << 20, (exc, peak)
