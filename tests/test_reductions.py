import hashlib
import itertools
import random

import pytest

from tsr import errors
from tsr.activation import is_target_set
from tsr.generators import random_hitting_system
from tsr.gadgets import _SUBDIVISION, _Build, attach
from tsr.graph import PlainGraph, ThresholdGraph, classify, serialize_graph, vc_to_tss
from tsr.oracle import enumerate_target_sets, tj_decide
from tsr.reductions import (
    HittingSystem,
    hs_tj_decide,
    parse_hitting_system,
    reduce_33_to_b312,
    reduce_33_to_pb342,
    reduce_hitting_to_split,
    reduce_vc23_to_cubic,
    serialize_hitting_system,
    verify_reduction,
)

C4 = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C6 = PlainGraph.build(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])


def test_vc23_structure():
    out = reduce_vc23_to_cubic(C4)
    g = out.graph
    assert g.n == 24
    assert all(len(g.adj[v]) == 3 for v in g.vertices)
    assert all(g.tau[v] == 3 for v in g.vertices)
    assert len(out.gadgets) == 4


def _independence_number(g) -> int:
    """Exact maximum independent set by branch and bound on bitmasks."""
    masks = [sum(1 << u for u in g.adj[v]) for v in range(g.n + 1)]

    def grow(avail: int) -> int:
        if not avail:
            return 0
        v = avail.bit_length() - 1
        best = grow(avail & ~(1 << v))  # skip v
        return max(best, 1 + grow(avail & ~(1 << v) & ~masks[v]))

    return grow(sum(1 << v for v in g.vertices))


def test_vc23_minimum_correspondence():
    # target sets of a tau=degree instance are exactly its vertex covers
    # (established by enumeration on small instances in test_graph), so the
    # minimum equals n minus the independence number
    out = reduce_vc23_to_cubic(C4)
    assert out.graph.n - _independence_number(out.graph) == 2 + 4 * 3
    x = out.forward(frozenset({1, 3}))
    assert len(x) == 14
    assert is_target_set(out.graph, x)
    assert not any(is_target_set(out.graph, x - {v}) for v in x)
    assert out.backward(x) == {1, 3}


def test_vc23_rejects_degree1():
    with pytest.raises(errors.BadDegree):
        reduce_vc23_to_cubic(PlainGraph.build(2, [(1, 2)]))


def test_vc23_provenance():
    out = reduce_vc23_to_cubic(C4)
    assert out.provenance[1] == "orig:1"
    tags = set(out.provenance.values())
    assert "sigma:1:r" in tags and "sigma:4:t4" in tags
    assert "origin 1 orig:1" in out.format_provenance()


@pytest.mark.parametrize("src_plain,pairs", [
    (C4, [({1, 3}, {2, 4}), ({1, 3}, {1, 3})]),
    (C6, [({1, 3, 5}, {2, 4, 6}), ({2, 4, 6}, {2, 4, 6})]),
])
def test_sigma_reduction_equivalence(src_plain, pairs):
    src = vc_to_tss(src_plain)
    out = reduce_vc23_to_cubic(src_plain)
    for x, y in pairs:
        source = tj_decide(src, x, y).reconfigurable
        verdict = verify_reduction(source, out, x, y)
        assert verdict.equivalent, (sorted(x), sorted(y), verdict)


def test_pb342_audit(k4):
    out = reduce_33_to_pb342(k4)
    rep = classify(out.graph)
    assert rep.degree_set <= {3, 4}
    assert set(out.graph.tau[1:]) == {2}
    assert rep.is_bipartite
    # forward map keeps the original seed and adds one theta block per gadget
    x = out.forward(frozenset({1, 2}))
    thetas = [gm for gm in out.gadgets if gm.kind == "theta"]
    assert len(x) == 2 + 3 * len(thetas)
    assert out.backward(x) == {1, 2}


def test_b312_audit(k4):
    out = reduce_33_to_b312(k4)
    rep = classify(out.graph)
    assert rep.degree_set == {3}
    assert set(out.graph.tau[1:]) <= {1, 2}
    assert rep.is_bipartite
    x = out.forward(frozenset({1, 2}))
    assert out.backward(x) == {1, 2}


def _component_count(vertices, edges) -> int:
    """Connected components of the graph on ``vertices`` with the ``edges`` inside it."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    return len({find(v) for v in vertices})


def test_b312_duplication_doubles_components(k4):
    """On K4, ``shift`` maps the first copy 1..150 onto 151..300; each copy
    keeps its vertex's threshold and mirrors its edges, so before the xi
    wiring the two copies have twice the first copy's components; ``forward``
    puts each seed id beside its copy."""
    out = reduce_33_to_b312(k4)
    g, shift = out.graph, out.shift
    first, second = range(1, 151), range(151, 301)
    assert out.keep == frozenset(first)
    assert sorted(shift) == list(first) and sorted(shift.values()) == list(second)
    assert all(g.tau[shift[v]] == g.tau[v] for v in first)
    inside = lambda block: {e for e in g.edges if e[0] in block and e[1] in block}
    assert {tuple(sorted((shift[u], shift[v]))) for u, v in inside(first)} == inside(second)
    assert not {(u, v) for u, v in g.edges if u in first and v in second}
    doubled = _component_count([*first, *second], g.edges)
    assert doubled == 2 * _component_count(first, g.edges)
    assert {1, shift[1]} <= out.forward({1})


def test_33_rejected_on_other_graphs(fig1):
    with pytest.raises(errors.NotA33Graph):
        reduce_33_to_pb342(fig1)
    with pytest.raises(errors.NotA33Graph):
        reduce_33_to_b312(fig1)


def test_split_structure():
    hs = HittingSystem.build(3, [{1, 2}, {2, 3}], 1)
    out = reduce_hitting_to_split(hs)
    g = out.graph
    # v_u = 1..3, w_F = 4..5, x = 6
    assert g.tau[2] == 2 + 1 + 1
    assert g.tau[6] == 2 + 1
    assert g.tau[4] == g.tau[5] == 1
    clique = [1, 2, 3, 6]
    for a, b in itertools.combinations(clique, 2):
        assert g.has_edge(a, b)
    for a, b in itertools.combinations([4, 5], 2):
        assert not g.has_edge(a, b)


def test_split_hitting_vs_target():
    hs = HittingSystem.build(3, [{1, 2}, {2, 3}], 1)
    out = reduce_hitting_to_split(hs)
    assert is_target_set(out.graph, {2})
    assert not is_target_set(out.graph, {1})
    sets = enumerate_target_sets(out.graph, 1)
    assert all(s <= frozenset({1, 2, 3}) for s in sets)
    assert {frozenset(h) for h in hs.hitting_sets()} == set(sets)


def test_split_all_sizek_inside_universe():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(3, 5)
        hs = random_hitting_system(rng, n, rng.randint(1, 4), rng.randint(1, min(2, n - 1)))
        out = reduce_hitting_to_split(hs)
        universe = frozenset(range(1, hs.n + 1))
        for s in enumerate_target_sets(out.graph, hs.k):
            assert s <= universe


def test_split_k_equals_n_rejected():
    hs = HittingSystem.build(2, [{1}, {2}], 2)
    with pytest.raises(errors.PreconditionViolated):
        reduce_hitting_to_split(hs)


def test_split_equivalence_random():
    rng = random.Random(41)
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
        verdict = verify_reduction(hs_tj_decide(hs, x, y), out, x, y)
        assert verdict.equivalent, (serialize_hitting_system(hs), sorted(x), sorted(y))
        done += 1


def test_identity_reduction_trivially_equivalent(fig2):
    from tsr.reductions import ReductionOutput

    out = ReductionOutput(
        graph=fig2,
        source_n=fig2.n,
        extra=frozenset(),
        keep=frozenset(fig2.vertices),
        provenance={},
        gadgets=(),
    )
    x, y = frozenset({1, 3, 5}), frozenset({2, 4, 5})
    src = tj_decide(fig2, x, y).reconfigurable
    assert verify_reduction(src, out, x, y).equivalent


def test_hitting_system_validation():
    with pytest.raises(errors.EmptyFamilySet):
        HittingSystem.build(3, [], 1)
    with pytest.raises(errors.EmptyFamilySet):
        HittingSystem.build(3, [{1}, set()], 1)
    with pytest.raises(errors.MalformedLine):
        HittingSystem.build(3, [{1, 9}], 1)
    with pytest.raises(errors.MalformedLine):
        HittingSystem.build(3, [{1}], 0)


def test_hitting_format_roundtrip():
    hs = HittingSystem.build(4, [{1, 2}, {3}, {2, 4}], 2)
    text = serialize_hitting_system(hs)
    back = parse_hitting_system(text)
    assert back == hs
    with pytest.raises(errors.MalformedLine):
        parse_hitting_system("f 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p hs 2 1 1\n", "expected 1 family lines, got 0"),
        ("f 1 2\np hs 2 1 1\n", "line 1: 'f' before header"),
        ("p hs 3 1 1\nf 1 1 2\n", "line 2: repeated id 1"),
        ("p hs 3 1 1\nf 1 x\n", "line 2: invalid literal"),
        ("p hs 3 1 1\np hs 3 1 1\nf 1\n", "line 2: expected 'p hs <n> <m> <k>'"),
    ],
)
def test_parse_hitting_system_faults_name_their_line(text, message):
    """An ``f`` line is read like an ``s`` line, after the header and with
    each element at most once."""
    with pytest.raises(errors.MalformedLine, match=message):
        parse_hitting_system(text)


def test_hs_tj_decide_small():
    hs = HittingSystem.build(4, [{1, 2}, {3, 4}], 2)
    assert hs_tj_decide(hs, {1, 3}, {2, 4})
    with pytest.raises(errors.NotATargetSet):
        hs_tj_decide(hs, {1, 2}, {3, 4})
    with pytest.raises(errors.SizeMismatch) as info:
        hs_tj_decide(hs, {1, 3}, {1, 2, 3})
    assert str(info.value) == "|x|=2 != |y|=3"


def test_hitting_sets_lie_in_the_universe():
    hs = HittingSystem.build(4, [{1, 2}, {3, 4}], 2)
    assert not hs.is_hitting_set({1, 3, 9})
    with pytest.raises(errors.NotATargetSet):
        hs_tj_decide(hs, {1, 3, 9}, {1, 3, 4})


def test_verify_reduction_rejects_empty_seed():
    out = reduce_vc23_to_cubic(C4)
    with pytest.raises(errors.NotATargetSet):
        verify_reduction(False, out, frozenset(), frozenset())


def test_each_reduction_builds_one_graph(monkeypatch, k4):
    """Every gadget of a reduction is grafted onto one builder, so the output
    is validated by exactly one ``ThresholdGraph.build`` or ``PlainGraph.build``."""
    builds = []
    for cls in (ThresholdGraph, PlainGraph):
        real = cls.build
        monkeypatch.setattr(cls, "build", staticmethod(lambda *a, real=real: builds.append(a[0]) or real(*a)))
    for reduce, source in ((reduce_33_to_pb342, k4), (reduce_33_to_b312, k4), (reduce_vc23_to_cubic, C4)):
        builds.clear()
        out = reduce(source)
        assert builds == [out.graph.n], reduce.__name__


def _prism(p):
    """The (3,3) prism over a p-cycle: rings 1..p and p+1..2p, rungs i, i+p."""
    ring = [(i, i % p + 1) for i in range(1, p + 1)]
    edges = ring + [(u + p, v + p) for u, v in ring] + [(i, i + p) for i in range(1, p + 1)]
    return ThresholdGraph.build(2 * p, edges, [3] * (2 * p))


def _cycle(n):
    return PlainGraph.build(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _gmap_text(gm):
    m_set = None if gm.m_set is None else sorted(gm.m_set)
    return f"{gm.kind} {list(gm.anchors.items())} {list(gm.named_internals.items())} {m_set}\n"


# sha256 over the outputs below, as computed before gadgets were grafted onto
# one builder (each graft then rebuilt the whole graph)
GOLDEN_DIGEST = "83454a2274e0dddf967b6d93378feb9be2955de16ce9cf01f8deca429599af32"


def test_reductions_and_gadgets_match_golden(k4):
    """Graphs, provenance, gadget maps (in order, with their dict orders) and
    the seed maps on seeded sets of every gadget reduction and constructor."""
    h = hashlib.sha256()
    rng = random.Random(7)
    cases = [(f, g) for f in (reduce_33_to_pb342, reduce_33_to_b312) for g in (k4, _prism(3), _prism(4))]
    cases += [(reduce_vc23_to_cubic, _cycle(n)) for n in (4, 6, 9)]
    for reduce, g in cases:
        out = reduce(g)
        h.update(serialize_graph(out.graph).encode())
        h.update(out.format_provenance().encode())
        for gm in out.gadgets:
            h.update(_gmap_text(gm).encode())
        for _ in range(5):
            s = frozenset(v for v in range(1, g.n + 1) if rng.random() < 0.5)
            fs = out.forward(s)
            t = frozenset(v for v in out.graph.vertices if rng.random() < 0.3)
            h.update(f"{sorted(fs)} {sorted(out.backward(fs))} {sorted(out.backward(t))}\n".encode())
    host = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])
    built = [
        attach(host, "oneway", 1, 3), attach(None, "oneway"), attach(k4, "upsilon", 2),
        attach(host, "theta", 2), attach(None, "theta"), attach(None, "theta1"),
        attach(host, "xi", 1, 3), attach(None, "xi"), attach(_cycle(4), "sigma", 3), attach(None, "sigma"),
    ]
    for g, gm in built:
        text = serialize_graph(g) if isinstance(g, ThresholdGraph) else f"plain {g.n} {list(g.edges)}\n"
        h.update(text.encode())
        h.update(_gmap_text(gm).encode())
    c8 = _Build(_cycle(8))
    c8.link(2, 5)  # the subdivision cuts the edge it replaces
    h.update(_gmap_text(c8.graft(_SUBDIVISION, (2, 5))).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def test_forward_maps_reject_unknown_ids(k4):
    """Every reduction's forward map takes source ids only and its backward
    map output ids only: 0, n + 1 and 999 (999 past the output's ids) raise
    UnknownVertex, while the ids 1..n map."""
    hs = HittingSystem.build(4, [{1, 2}, {3, 4}], 2)
    cases = [
        (reduce_33_to_pb342(k4), 4),
        (reduce_33_to_b312(k4), 4),
        (reduce_vc23_to_cubic(_cycle(5)), 5),
        (reduce_hitting_to_split(hs), 4),
    ]
    for out, n in cases:
        assert out.forward(frozenset(range(1, n + 1))) >= set(range(1, n + 1))
        for bad in (0, n + 1, 999):
            with pytest.raises(errors.UnknownVertex, match=f"seed vertex {bad} not in 1..{n}"):
                out.forward(frozenset({1, bad}))
        big = out.graph.n  # 1,840 and 1,020 for the k4 reductions, so 999 is an output id
        assert out.backward(frozenset(range(1, big + 1))) == set(range(1, n + 1))
        for bad in (0, big + 1, big + 999):
            with pytest.raises(errors.UnknownVertex, match=f"seed vertex {bad} not in 1..{big}"):
                out.backward(frozenset({1, bad}))
