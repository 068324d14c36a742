import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr import errors
from tsr.activation import is_target_set
from tsr.gadgets import attach
from tsr.generators import random_cycle, random_hitting_system, random_maxdeg2, random_path, random_tree
from tsr.graph import (
    _bulk,
    PlainGraph,
    ThresholdGraph,
    classify,
    disjoint_union,
    fvs_to_tss,
    parse_graph,
    parse_seed_set,
    serialize_graph,
    serialize_seed_set,
    vc_to_tss,
)
from tsr.reductions import reduce_33_to_b312, reduce_33_to_pb342, reduce_hitting_to_split, reduce_vc23_to_cubic
from tsr.solvers import solve

P2 = "p tsr 2 1\nv 1 1\nv 2 1\ne 1 2\n"


def test_parse_smallest_instance():
    g = parse_graph(P2)
    assert g.n == 2 and g.m == 1
    assert g.adj[1] == (2,) and g.adj[2] == (1,)


def test_parse_fig2(fig2):
    assert fig2.n == 6 and fig2.m == 5
    assert fig2.tau[1:] == (2, 2, 2, 2, 1, 1)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# hello\n\np tsr 2 1\nv 1 1\n# mid\nv 2 1\ne 1 2\n")
    assert g.n == 2


@pytest.mark.parametrize(
    "text,exc",
    [
        ("p tsr 2 1\nv 1 1\nv 2 3\ne 1 2\n", errors.ThresholdOutOfRange),
        ("p tsr 2 1\nv 1 0\nv 2 1\ne 1 2\n", errors.ThresholdOutOfRange),
        ("p tsr 2 2\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n", errors.DuplicateEdge),
        ("p tsr 2 1\nv 1 1\nv 2 1\ne 1 1\n", errors.SelfLoop),
        ("p tsr 2 1\nv 1 1\nv 3 1\ne 1 2\n", errors.IdGap),
        ("p tsr 2 1\nv 1 1\nv 2 1\ne 1 5\n", errors.IdGap),
        ("p tsr 2 1\nv 1 1\ne 1 2\n", errors.MalformedLine),
        ("v 1 1\n", errors.MalformedLine),
        ("p tsr 2 1\nv 1 one\nv 2 1\ne 1 2\n", errors.MalformedLine),
        ("p tsr 3 1\nv 1 1\nv 2 1\nv 3 1\ne 1 2\n", errors.ThresholdOutOfRange),
    ],
)
def test_parse_rejects(text, exc):
    with pytest.raises(exc):
        parse_graph(text)


HEAD2 = "p tsr 2 1\nv 1 1\nv 2 1\n"
BAD_INT = "invalid literal for int() with base 10: "


@pytest.mark.parametrize(
    "text,exc,message",
    [
        ("p tsr 2\nv 1 1\n", errors.MalformedLine, "line 1: expected 'p tsr <n> <m>'"),
        ("p tsr 2 1\np tsr 2 1\n", errors.MalformedLine, "line 2: duplicate header"),
        ("v 1 1\n", errors.MalformedLine, "line 1: 'v' before header"),
        ("e 1 2\n", errors.MalformedLine, "line 1: 'e' before header"),
        ("p tsr 2 1\nv 1 1\nv 2 1 7\ne 1 2\n", errors.MalformedLine, "line 3: expected 'v <id> <tau>'"),
        (HEAD2 + "e 1\n", errors.MalformedLine, "line 4: expected 'e <u> <v>'"),
        (HEAD2 + "e 1 2\nx 1\n", errors.MalformedLine, "line 5: unknown line kind 'x'"),
        ("p tsr 2 1\nv 1 1\nv 1 1\ne 1 2\n", errors.MalformedLine, "line 3: duplicate vertex 1"),
        ("p tsr two 1\n", errors.MalformedLine, f"line 1: {BAD_INT}'two'"),
        ("p tsr 2 1\nv 1 one\nv 2 1\ne 1 2\n", errors.MalformedLine, f"line 2: {BAD_INT}'one'"),
        (HEAD2 + "e 1 x\n", errors.MalformedLine, f"line 4: {BAD_INT}'x'"),
        ("p tsr 0 0\n", errors.MalformedLine, "vertex count must be positive, got 0"),
        ("p tsr 2 -1\n", errors.MalformedLine, "edge count must not be negative, got -1"),
        ("p tsr 2 1\nv 1 1\n", errors.MalformedLine, "expected 2 vertex lines, got 1"),
        # 4 + 3(n + m) fields and ids 1..3 where vertex ids would be, but two vertex lines
        ("p tsr 3 1\nv 1 1\nv 2 1\ne 3 1\ne 1 2\n", errors.MalformedLine, "expected 3 vertex lines, got 2"),
        ("p tsr 2 1\nv 1 1\nv 3 1\ne 1 2\n", errors.IdGap, "vertex ids are not dense 1..2: [1, 3]"),
        (HEAD2, errors.MalformedLine, "expected 1 edge lines, got 0"),
        (HEAD2 + "e 1 1\n", errors.SelfLoop, "self-loop at vertex 1"),
        (HEAD2 + "e 1 5\n", errors.IdGap, "edge (1,5) out of range 1..2"),
        ("p tsr 2 2\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n", errors.DuplicateEdge, "duplicate edge (1, 2)"),
        ("p tsr 2 1\nv 1 1\nv 2 3\ne 1 2\n", errors.ThresholdOutOfRange, "vertex 2: tau=3 not in [1, d=1]"),
        ("p tsr 2 1\nv 1 0\nv 2 1\ne 1 2\n", errors.ThresholdOutOfRange, "vertex 1: tau=0 not in [1, d=1]"),
        # two faults each: the first in input order is the one reported
        ("p tsr 3 3\nv 1 1\nv 2 1\nv 3 1\ne 2 1\ne 1 2\ne 3 3\n", errors.DuplicateEdge, "duplicate edge (1, 2)"),
        ("p tsr 2 1\nv 1 1\nv 1 x\ne 1 2\n", errors.MalformedLine, f"line 3: {BAD_INT}'x'"),
    ],
)
def test_parse_error_messages(text, exc, message):
    """The exact message of every parse and build fault, on both reads: a
    trailing blank line sends a text in serialized form to the line loop
    without moving its line numbers."""
    for t in (text, text + "\n"):
        with pytest.raises(exc) as info:
            parse_graph(t)
        assert str(info.value) == message


def _read(text):
    """The graph parse_graph reads from text, or its error's type and message."""
    try:
        return parse_graph(text)
    except errors.TsrError as exc:
        return type(exc), str(exc)


def _mutants(text, rng):
    """Texts one edit away from text: two lines swapped, a line dropped or
    repeated, or one number changed."""
    lines = text.splitlines(keepends=True)
    for _ in range(6):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        swapped = lines[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "".join(swapped)
        yield "".join(lines[:i] + lines[i + 1 :])
        yield "".join(lines[: i + 1] + lines[i:])
        fields = lines[i].split()
        k = rng.randrange(2 if fields[0] == "p" else 1, len(fields))
        x = int(fields[k])
        # "9" * 5000 is past int()'s default digit limit
        fields[k] = rng.choice(["0", "1", str(x + 1), str(x - 1), str(len(lines)), "9" * 5000])
        yield "".join(lines[:i] + [" ".join(fields) + "\n"] + lines[i + 1 :])


def _graphs():
    rng = random.Random(34)
    k4 = ThresholdGraph.build(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], [3, 3, 3, 3])
    c4 = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for _ in range(3):
        yield random_tree(rng, rng.randint(2, 20))
        yield random_maxdeg2(rng, rng.randint(2, 20))
        yield random_cycle(rng, rng.randint(3, 8))
        yield random_path(rng, rng.randint(1, 8))
    yield attach(parse_graph(P2), "subdivision", 1, 2)[0]
    yield attach(k4, "theta", 1)[0]
    yield attach(k4, "upsilon", 1)[0]
    yield reduce_vc23_to_cubic(c4).graph
    yield reduce_33_to_pb342(k4).graph
    yield reduce_33_to_b312(k4).graph
    yield reduce_hitting_to_split(random_hitting_system(rng, 5, 3, 2)).graph


@pytest.mark.parametrize("g", list(_graphs()))
def test_both_reads_agree(g):
    """A serialized graph takes the bulk read and parses back equal; it and
    every one-edit mutant of it read the same with a trailing blank line,
    which sends the text through the line loop."""
    text = serialize_graph(g)
    assert _bulk(text) is not None
    assert parse_graph(text) == g == parse_graph(text + "\n")
    rng = random.Random(text)
    for t in _mutants(text, rng):
        assert _read(t) == _read(t + "\n"), t


def test_huge_vertex_count_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(errors.MalformedLine, match="^expected 1000000000000 vertex lines, got 0$"):
            parse_graph("p tsr 1000000000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n,edges,tau,exc,message",
    [
        (-1, [], [], errors.MalformedLine, "negative vertex count -1"),
        (2, [(1, 2)], [1], errors.MalformedLine, "expected 2 thresholds, got 1"),
        (3, [(1, 2), (3, 3)], [1, 1, 1], errors.SelfLoop, "self-loop at vertex 3"),
        (3, [(2, 4), (1, 1)], [1, 1, 1], errors.IdGap, "edge (2,4) out of range 1..3"),
        (3, [(2, 1), (1, 2), (1, 1)], [1, 1, 1], errors.DuplicateEdge, "duplicate edge (1, 2)"),
        (3, [(3, 2), (2, 3)], [1, 1, 1], errors.DuplicateEdge, "duplicate edge (2, 3)"),
        (3, [(1, 2)], [1, 1, 1], errors.ThresholdOutOfRange, "vertex 3: tau=1 not in [1, d=0]"),
    ],
)
def test_build_error_messages(n, edges, tau, exc, message):
    with pytest.raises(exc) as info:
        ThresholdGraph.build(n, edges, tau)
    assert str(info.value) == message


def test_isolated_vertex_rejected():
    # tau <= d forces every vertex to have a neighbor
    with pytest.raises(errors.ThresholdOutOfRange):
        ThresholdGraph.build(3, [(1, 2)], [1, 1, 1])


def test_degree2_threshold3_rejected():
    with pytest.raises(errors.ThresholdOutOfRange):
        ThresholdGraph.build(3, [(1, 2), (2, 3), (1, 3)], [2, 2, 3])


def test_serialize_parse_roundtrip(fig1):
    assert parse_graph(serialize_graph(fig1)) == fig1


def test_serialize_canonicalizes():
    a = parse_graph("p tsr 3 2\nv 3 1\nv 1 1\nv 2 2\ne 2 3\ne 1 2\n")
    b = parse_graph(serialize_graph(a))
    assert a == b
    assert serialize_graph(a) == serialize_graph(b)


def test_classify_star():
    g = ThresholdGraph.build(4, [(1, 2), (1, 3), (1, 4)], [1, 1, 1, 1])
    rep = classify(g)
    assert rep.is_tree and rep.is_bipartite
    assert rep.max_degree == 3
    assert rep.is_dt_graph({1, 3}, {1})


def test_classify_theta_bipartite(theta):
    rep = classify(theta)
    assert rep.is_bipartite
    assert not rep.is_tree
    assert rep.degree_set == frozenset({2, 3, 4})


def test_classify_odd_cycle_not_bipartite():
    g = ThresholdGraph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], [2] * 5)
    assert not classify(g).is_bipartite


def test_disjoint_union_two_edges():
    g1 = parse_graph(P2)
    g, shift = disjoint_union(g1, g1)
    assert g.n == 4 and g.m == 2
    assert shift == {1: 3, 2: 4}
    assert g.has_edge(3, 4)


def test_disjoint_union_fig2(fig2):
    c4 = ThresholdGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [2, 2, 2, 2])
    p2 = parse_graph(P2)
    g, _ = disjoint_union(c4, p2)
    assert g == fig2


def test_disjoint_union_bipartite_property(fig2, theta):
    g, _ = disjoint_union(fig2, theta)
    assert classify(g).is_bipartite == (
        classify(fig2).is_bipartite and classify(theta).is_bipartite
    )


def test_no_empty_operand():
    # empty graphs cannot be parsed, so disjoint_union never sees one
    with pytest.raises(errors.MalformedLine):
        parse_graph("p tsr 0 0\n")


def test_subdivide_p2():
    g, gm = attach(parse_graph(P2), "subdivision", 1, 2)
    w = gm.named_internals["w"]
    assert g.n == 3 and g.m == 2 and w == 3
    assert g.tau[3] == 1
    assert g.adj[3] == (1, 2)


def test_subdivide_missing_edge():
    g = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])
    with pytest.raises(errors.EdgeNotFound):
        attach(g, "subdivision", 1, 3)


def test_subdividing_every_edge_gives_bipartite(k4):
    g = k4
    for e in k4.edges:
        g, _ = attach(g, "subdivision", *e)
    assert classify(g).is_bipartite


def test_vc_to_tss_triangle():
    from tsr.activation import is_target_set

    tri = PlainGraph.build(3, [(1, 2), (2, 3), (1, 3)])
    g = vc_to_tss(tri)
    assert g.tau[1:] == (2, 2, 2)
    assert is_target_set(g, {1, 2})
    assert not is_target_set(g, {1})


def test_vc_target_sets_are_exactly_covers():
    from itertools import combinations

    from tsr.activation import is_target_set

    gp = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    g = vc_to_tss(gp)
    for k in range(5):
        for combo in combinations(range(1, 5), k):
            s = set(combo)
            is_cover = all(u in s or v in s for u, v in gp.edges)
            assert is_target_set(g, s) == is_cover


def test_fvs_to_tss_cubic(k4):
    gp = PlainGraph.build(4, k4.edges)
    g = fvs_to_tss(gp)
    assert set(g.tau[1:]) == {2}


def test_fvs_degree_too_small():
    with pytest.raises(errors.DegreeTooSmall):
        fvs_to_tss(PlainGraph.build(2, [(1, 2)]))


def test_seed_set_roundtrip(fig1):
    s = parse_seed_set("s 3 1 6\n", fig1)
    assert s == {1, 3, 6}
    assert serialize_seed_set(s) == "s 1 3 6\n"
    with pytest.raises(errors.UnknownVertex):
        parse_seed_set("s 99\n", fig1)


@pytest.mark.parametrize("bad", [0, "n+1", -3])
def test_seed_check_names_the_unknown_id(fig5_tree, bad):
    """A seed mixing valid ids with one outside 1..n raises ``UnknownVertex``
    naming that id, through ``solve``, ``is_target_set`` and
    ``parse_seed_set``; a valid seed comes back as the same frozenset."""
    g = fig5_tree
    bad = g.n + 1 if bad == "n+1" else bad
    good = [1, 3, 6, 8, 9]
    assert is_target_set(g, good)
    message = f"vertex {bad} not in 1..{g.n}"
    seeds = [[bad, *good], [*good, bad], [good[0], bad, *good[1:]]]
    for seed in seeds:
        for check in (
            lambda: solve(g, seed, good),
            lambda: solve(g, good, seed),
            lambda: is_target_set(g, seed),
            lambda: parse_seed_set("s " + " ".join(map(str, seed)) + "\n", g),
        ):
            with pytest.raises(errors.UnknownVertex) as info:
                check()
            assert str(info.value) == message
    for seed in (good, tuple(good), frozenset(good), iter(good)):
        got = g.check_seed(seed)
        assert type(got) is frozenset and got == frozenset(good)
    assert g.check_seed([]) == frozenset()
    assert g.check_seed(range(g.n, 0, -1)) == frozenset(g.vertices)
    assert parse_seed_set("s 9 1 8 3 6\n", g) == frozenset(good)


@pytest.mark.parametrize(
    "text,message",
    [
        ("s 1 1\n", "line 1: repeated id 1"),
        ("# seed\ns 3 1 6 1\n", "line 2: repeated id 1"),
        ("s 2 x 2\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ],
)
def test_seed_set_rejects_repeated_ids(fig1, text, message):
    with pytest.raises(errors.MalformedLine) as info:
        parse_seed_set(text, fig1)
    assert str(info.value) == message


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    tau = [draw(st.integers(1, deg[v])) for v in range(1, n + 1)]
    return ThresholdGraph.build(n, sorted(edges), tau)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_roundtrip_property(g):
    assert parse_graph(serialize_graph(g)) == g
