import itertools
import random
import re

import pytest

from tsr import errors
from tsr.activation import activate, is_target_set, residual
from tsr.gadgets import _SPECS, attach, project
from tsr.generators import random_with_33_vertex
from tsr.graph import PlainGraph, ThresholdGraph, classify, vc_to_tss
from tsr.oracle import enumerate_target_sets, min_target_set_size, tj_decide

# host where the two anchors cannot activate each other: P3 with tau(mid)=2
HOST = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])


def original_labeled(g):
    return (
        frozenset(g.vertices),
        frozenset(g.edges),
        {v: g.tau[v] for v in g.vertices},
    )


def test_oneway_directionality():
    g, gm = attach(HOST, "oneway", 1, 3)
    internals = gm.internal_vertices
    assert internals <= activate(g, {1}).final
    assert not (internals & activate(g, {3}).final)


def test_oneway_degrees():
    g, gm = attach(HOST, "oneway", 1, 3)
    assert len(g.adj[gm.named_internals["t"]]) == 3
    assert len(g.adj[gm.named_internals["h"]]) == 3
    assert g.tau[gm.named_internals["h"]] == 2


def test_oneway_same_vertex_rejected():
    with pytest.raises(errors.SameVertex):
        attach(HOST, "oneway", 2, 2)


def test_oneway_standalone():
    g, gm = attach(None, "oneway")
    assert g.n == 4 and g.m == 4


def test_upsilon_requires_33_vertex(fig1, k4):
    """A vertex that is not (3,3), also one an upsilon was already grafted at."""
    for host, w, message in ((fig1, 1, "vertex 1 is a (2,2)-vertex, needs (3,3)"),
                             (attach(k4, "upsilon", 1)[0], 1, "vertex 1 is a (3,2)-vertex, needs (3,3)")):
        with pytest.raises(errors.NotA33Vertex, match=f"^{re.escape(message)}$"):
            attach(host, "upsilon", w)


def test_upsilon_residual_identity(k4):
    for w in k4.vertices:
        g, gm = attach(k4, "upsilon", w)
        assert residual(g, {w}).as_original() == residual(k4, {w}).as_original()


def test_upsilon_vertex_profile(k4):
    g = k4
    for w in k4.vertices:
        g, _ = attach(g, "upsilon", w)
    profile = {(len(g.adj[v]), g.tau[v]) for v in g.vertices}
    assert profile <= {(2, 1), (3, 1), (3, 2), (4, 2)}


def test_upsilon_min_preservation_random():
    rng = random.Random(61)
    done = 0
    while done < 8:
        host, w = random_with_33_vertex(rng, rng.randint(4, 7))
        g, gm = attach(host, "upsilon", w)
        if g.n > 22:
            continue
        k = min_target_set_size(host)
        k2 = min_target_set_size(g, cap=22)
        assert k == k2
        minima = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2, cap=22):
            proj = project(s, gm)
            assert len(proj) == len(s)
            assert proj in minima
        done += 1


def test_phi_upsilon_cases(k4):
    g, gm = attach(k4, "upsilon", 1)
    assert project(frozenset({2, 3}), gm) == {2, 3}
    internal = gm.named_internals["v_xy"]
    assert project(frozenset({internal, 2}), gm) == {1, 2}
    assert project(frozenset({1, 2}), gm) == {1, 2}


def test_upsilon_reconfigurability_preserved(k4):
    g, gm = attach(k4, "upsilon", 1)
    k = min_target_set_size(k4)
    minima = enumerate_target_sets(k4, k)
    for x, y in itertools.combinations(minima, 2):
        src = tj_decide(k4, x, y).reconfigurable
        dst = tj_decide(g, x, y).reconfigurable
        assert src == dst


def test_theta_attach_bumps_threshold():
    g, gm = attach(HOST, "theta", 1)
    assert g.tau[1] == HOST.tau[1] + 1
    assert g.n == HOST.n + 13
    assert gm.m_set == {
        gm.named_internals["r"],
        gm.named_internals["t_1_2"],
        gm.named_internals["t_2_3"],
    }


def test_theta_standalone_minimum(theta, theta_r1):
    g, gm = attach(None, "theta")
    assert g == theta
    assert is_target_set(g, gm.m_set)
    assert min_target_set_size(g) == 3
    assert enumerate_target_sets(theta_r1, 2) == []


def test_theta_correspondence_small_host():
    host = ThresholdGraph.build(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1])
    g, gm = attach(host, "theta", 2)
    k = min_target_set_size(host)
    k2 = min_target_set_size(g, cap=22)
    assert k2 == k + 3
    minima_host = set(enumerate_target_sets(host, k))
    for s in enumerate_target_sets(g, k2):
        assert len(s & gm.internal_vertices) == 3
        assert (s - gm.internal_vertices) in minima_host
    # forward direction: S u M is minimum for any minimum S
    for s in minima_host:
        assert is_target_set(g, s | gm.m_set)


def test_theta_reconfigurability_preserved():
    host = ThresholdGraph.build(
        4, [(1, 2), (2, 3), (3, 4), (1, 4)], [2, 2, 2, 2]
    )
    g, gm = attach(host, "theta", 1)
    k = min_target_set_size(host)
    minima = enumerate_target_sets(host, k)
    for x, y in itertools.combinations(minima, 2):
        src = tj_decide(host, x, y).reconfigurable
        dst = tj_decide(g, x | gm.m_set, y | gm.m_set).reconfigurable
        assert src == dst


def test_xi_residual_identity_every_internal():
    g, gm = attach(HOST, "xi", 1, 3)
    want = original_labeled(HOST)
    for name, u in gm.named_internals.items():
        assert residual(g, {u}).as_original() == want, name


def test_xi_standalone_bipartite():
    g, _ = attach(None, "xi")
    assert classify(g).is_bipartite


def test_xi_minimum_has_one_internal():
    g, gm = attach(HOST, "xi", 1, 3)
    mins = enumerate_target_sets(g, min_target_set_size(g))
    assert mins
    for s in mins:
        assert len(s & gm.internal_vertices) == 1


def test_xi_same_vertex_rejected():
    with pytest.raises(errors.SameVertex):
        attach(HOST, "xi", 1, 1)


def test_sigma_three_minimum_covers():
    gp, gm = attach(None, "sigma")
    tss = vc_to_tss(gp)
    covers = enumerate_target_sets(tss, 3)
    assert len(covers) == 3
    assert enumerate_target_sets(tss, 2) == []
    assert gm.m_set in covers


def test_sigma_m_frozen_under_jumps():
    gp, gm = attach(None, "sigma")
    tss = vc_to_tss(gp)
    covers = enumerate_target_sets(tss, 3)
    others = [c for c in covers if c != gm.m_set]
    for c in others:
        assert not tj_decide(tss, gm.m_set, c).reconfigurable
    assert tj_decide(tss, others[0], others[1]).reconfigurable


def test_sigma_attach_raises_degree():
    c4 = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out, gm = attach(c4, "sigma", 1)
    assert out.degrees[1] == 3
    assert all(out.degrees[v] == 3 for v in gm.internal_vertices)


def test_phi_sd():
    g, gm = attach(HOST, "subdivision", 1, 2)
    w = gm.named_internals["w"]
    assert project(frozenset({3}), gm) == {3}
    assert project(frozenset({w, 3}), gm) == {1, 3}


def test_projections_reject_the_wrong_kind_of_map():
    """Only kinds with a collapse anchor project; a bare gadget has no anchor."""
    for build in (
        lambda: attach(HOST, "oneway", 1, 3), lambda: attach(HOST, "theta", 1), lambda: attach(HOST, "xi", 1, 3),
        lambda: attach(PlainGraph.build(2, [(1, 2)]), "sigma", 1), lambda: attach(None, "upsilon"),
    ):
        _, gm = build()
        with pytest.raises(errors.InvalidInput, match=f"a {gm.kind} map has no anchor to project onto"):
            project(frozenset({1}), gm)


# a (3,3) prism with non-edges, and a plain host for sigma
PRISM = ThresholdGraph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)], [3] * 6)
C4 = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
# the rejections of one kind only: (host, anchors, error, message)
ONLY = {
    "upsilon": [
        (HOST, (2,), errors.NotA33Vertex, "vertex 2 is a (2,2)-vertex, needs (3,3)"),
        (C4, (1,), errors.NotA33Vertex, "vertex 1 is a (2,0)-vertex, needs (3,3)"),
    ],
    "subdivision": [
        (PRISM, (1, 5), errors.EdgeNotFound, "edge (1,5) not present"),
        (PRISM, (3, 4), errors.EdgeNotFound, "edge (3,4) not present"),
        (PRISM, (4, 3), errors.EdgeNotFound, "edge (3,4) not present"),
    ],
}


@pytest.mark.parametrize("kind", list(_SPECS))
def test_attach_rejects_bad_anchors(kind):
    """Every kind rejects ids 0 and n + 1, a repeated anchor, one anchor too
    many or too few, an anchor on no host and an unknown kind name, with the
    typed error its old constructor raised and its exact message; upsilon
    rejects a vertex that is not (3,3), and a subdivision any pair that is
    not a host edge."""
    host = C4 if kind == "sigma" else PRISM
    count = 1 if kind == "upsilon" else len(_SPECS[kind].roles)  # upsilon takes w alone
    good = (1, 2)[:count]
    attach(host, kind, *good)
    takes = f"{kind} gadget takes anchors ({' '.join(_SPECS[kind].roles[:count])}), got"
    rows = [
        (host, (0, *good[1:]), errors.UnknownVertex, f"vertex 0 not in 1..{host.n}"),
        (host, (*good[:-1], host.n + 1), errors.UnknownVertex, f"vertex {host.n + 1} not in 1..{host.n}"),
        (host, (*good, 3), errors.InvalidInput, f"{takes} {count + 1}"),
        (host, good[:-1], errors.InvalidInput, f"{takes} {count - 1}"),
        (None, (1,), errors.InvalidInput, f"{kind} gadget takes anchors (none on no host), got 1"),
    ]
    if count > 1:
        same = (good[0],) * count
        rows.append((host, same, errors.SameVertex, f"{kind} gadget needs distinct anchors, got {list(same)}"))
    if kind == "subdivision":  # a pair of ids that is not an edge is EdgeNotFound, whatever the ids
        rows = [
            row if row[2] is errors.InvalidInput
            else (*row[:2], errors.EdgeNotFound, f"edge ({min(row[1])},{max(row[1])}) not present")
            for row in rows
        ]
    for h, anchors, error, message in rows + ONLY.get(kind, []):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            attach(h, kind, *anchors)
    unknown = f"unknown gadget {kind.upper()!r}, expected one of {', '.join(_SPECS)}"
    with pytest.raises(errors.InvalidInput, match=f"^{re.escape(unknown)}$"):
        attach(host, kind.upper(), *good)


def test_subdivision_minimum_correspondence():
    rng = random.Random(77)
    from tsr.generators import random_connected

    for _ in range(8):
        host = random_connected(rng, rng.randint(3, 7))
        edge = host.edges[rng.randrange(host.m)]
        g, gm = attach(host, "subdivision", *edge)
        k = min_target_set_size(host)
        k2 = min_target_set_size(g)
        assert k == k2
        minima = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2):
            proj = project(s, gm)
            assert len(proj) == len(s)
            assert proj in minima


def test_subdivision_reconfigurability_preserved():
    rng = random.Random(78)
    from tsr.generators import random_connected

    for _ in range(6):
        host = random_connected(rng, rng.randint(3, 6))
        edge = host.edges[rng.randrange(host.m)]
        g, _ = attach(host, "subdivision", *edge)
        k = min_target_set_size(host)
        minima = enumerate_target_sets(host, k)
        for x, y in itertools.combinations(minima, 2):
            assert (
                tj_decide(host, x, y).reconfigurable
                == tj_decide(g, x, y).reconfigurable
            )


def test_xi_reconfigurability_preserved():
    host = ThresholdGraph.build(
        4, [(1, 2), (2, 3), (3, 4), (1, 4)], [2, 2, 2, 2]
    )
    g, gm = attach(host, "xi", 1, 3)
    a1 = frozenset({gm.named_internals["a1"]})
    k = min_target_set_size(host)
    minima = enumerate_target_sets(host, k)
    for x, y in itertools.combinations(minima, 2):
        src = tj_decide(host, x, y).reconfigurable
        dst = tj_decide(g, x | a1, y | a1).reconfigurable
        assert src == dst


def test_constructors_touch_only_declared_thresholds(k4):
    base = {v: HOST.tau[v] for v in HOST.vertices}
    for build, bumped in [
        (lambda: attach(HOST, "oneway", 1, 3), set()),
        (lambda: attach(HOST, "theta", 1), {1}),
        (lambda: attach(HOST, "xi", 1, 3), {1, 3}),
    ]:
        g, _ = build()
        for v, t in base.items():
            want = t + 1 if v in bumped else t
            assert g.tau[v] == want, (v, g.tau[v], want)
    g, _ = attach(k4, "upsilon", 2)
    assert g.tau[2] == 2  # replaced vertex drops to threshold 2
    for v in (1, 3, 4):
        assert g.tau[v] == 3


def test_theta_correspondence_random_hosts():
    rng = random.Random(404)
    from tsr.generators import random_connected

    for _ in range(3):
        host = random_connected(rng, rng.randint(3, 5))
        v = rng.randint(1, host.n)
        g, gm = attach(host, "theta", v)
        k = min_target_set_size(host)
        k2 = min_target_set_size(g, cap=22)
        assert k2 == k + 3
        minima_host = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2, cap=22):
            assert (s - gm.internal_vertices) in minima_host
        for s in minima_host:
            assert is_target_set(g, s | gm.m_set)
