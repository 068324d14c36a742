import itertools
import random

import pytest

from tsr import errors
from tsr.activation import activate, is_target_set, residual
from tsr.gadgets import (
    _SUBDIVISION,
    _Build,
    attach_oneway,
    attach_sigma,
    attach_theta,
    connect_xi,
    oneway_gadget,
    phi_sd,
    phi_upsilon,
    replace_upsilon,
    sigma_gadget,
    theta_gadget,
    xi_gadget,
)
from tsr.generators import random_with_33_vertex
from tsr.graph import PlainGraph, ThresholdGraph, classify, subdivide_edge, vc_to_tss
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
    g, gm = attach_oneway(HOST, 1, 3)
    internals = gm.internal_vertices
    assert internals <= activate(g, {1}).final
    assert not (internals & activate(g, {3}).final)


def test_oneway_degrees():
    g, gm = attach_oneway(HOST, 1, 3)
    assert len(g.adj[gm.named_internals["t"]]) == 3
    assert len(g.adj[gm.named_internals["h"]]) == 3
    assert g.tau[gm.named_internals["h"]] == 2


def test_oneway_same_vertex_rejected():
    with pytest.raises(errors.SameVertex):
        attach_oneway(HOST, 2, 2)


def test_oneway_standalone():
    g, gm = oneway_gadget()
    assert g.n == 4 and g.m == 4


def test_upsilon_requires_33_vertex(fig1):
    with pytest.raises(errors.NotA33Vertex):
        replace_upsilon(fig1, 1)


def test_upsilon_residual_identity(k4):
    for w in k4.vertices:
        g, gm = replace_upsilon(k4, w)
        assert residual(g, {w}).as_original() == residual(k4, {w}).as_original()


def test_upsilon_vertex_profile(k4):
    g = k4
    for w in k4.vertices:
        g, _ = replace_upsilon(g, w)
    profile = {(len(g.adj[v]), g.tau[v]) for v in g.vertices}
    assert profile <= {(2, 1), (3, 1), (3, 2), (4, 2)}


def test_upsilon_min_preservation_random():
    rng = random.Random(61)
    done = 0
    while done < 8:
        host, w = random_with_33_vertex(rng, rng.randint(4, 7))
        g, gm = replace_upsilon(host, w)
        if g.n > 22:
            continue
        k = min_target_set_size(host)
        k2 = min_target_set_size(g, cap=22)
        assert k == k2
        minima = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2, cap=22):
            proj = phi_upsilon(s, gm)
            assert len(proj) == len(s)
            assert proj in minima
        done += 1


def test_phi_upsilon_cases(k4):
    g, gm = replace_upsilon(k4, 1)
    assert phi_upsilon(frozenset({2, 3}), gm) == {2, 3}
    internal = gm.named_internals["v_xy"]
    assert phi_upsilon(frozenset({internal, 2}), gm) == {1, 2}
    assert phi_upsilon(frozenset({1, 2}), gm) == {1, 2}


def test_upsilon_reconfigurability_preserved(k4):
    g, gm = replace_upsilon(k4, 1)
    k = min_target_set_size(k4)
    minima = enumerate_target_sets(k4, k)
    for x, y in itertools.combinations(minima, 2):
        src = tj_decide(k4, x, y).reconfigurable
        dst = tj_decide(g, x, y).reconfigurable
        assert src == dst


def test_theta_attach_bumps_threshold():
    g, gm = attach_theta(HOST, 1)
    assert g.tau[1] == HOST.tau[1] + 1
    assert g.n == HOST.n + 13
    assert gm.m_set == {
        gm.named_internals["r"],
        gm.named_internals["t_1_2"],
        gm.named_internals["t_2_3"],
    }


def test_theta_standalone_minimum(theta, theta_r1):
    g, gm = theta_gadget()
    assert g == theta
    assert is_target_set(g, gm.m_set)
    assert min_target_set_size(g) == 3
    assert enumerate_target_sets(theta_r1, 2) == []


def test_theta_correspondence_small_host():
    host = ThresholdGraph.build(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1])
    g, gm = attach_theta(host, 2)
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
    g, gm = attach_theta(host, 1)
    k = min_target_set_size(host)
    minima = enumerate_target_sets(host, k)
    for x, y in itertools.combinations(minima, 2):
        src = tj_decide(host, x, y).reconfigurable
        dst = tj_decide(g, x | gm.m_set, y | gm.m_set).reconfigurable
        assert src == dst


def test_xi_residual_identity_every_internal():
    g, gm = connect_xi(HOST, 1, 3)
    want = original_labeled(HOST)
    for name, u in gm.named_internals.items():
        assert residual(g, {u}).as_original() == want, name


def test_xi_standalone_bipartite():
    g, _ = xi_gadget()
    assert classify(g).is_bipartite


def test_xi_minimum_has_one_internal():
    g, gm = connect_xi(HOST, 1, 3)
    mins = enumerate_target_sets(g, min_target_set_size(g))
    assert mins
    for s in mins:
        assert len(s & gm.internal_vertices) == 1


def test_xi_same_vertex_rejected():
    with pytest.raises(errors.SameVertex):
        connect_xi(HOST, 1, 1)


def test_sigma_three_minimum_covers():
    gp, gm = sigma_gadget()
    tss = vc_to_tss(gp)
    covers = enumerate_target_sets(tss, 3)
    assert len(covers) == 3
    assert enumerate_target_sets(tss, 2) == []
    assert gm.m_set in covers


def test_sigma_m_frozen_under_jumps():
    gp, gm = sigma_gadget()
    tss = vc_to_tss(gp)
    covers = enumerate_target_sets(tss, 3)
    others = [c for c in covers if c != gm.m_set]
    for c in others:
        assert not tj_decide(tss, gm.m_set, c).reconfigurable
    assert tj_decide(tss, others[0], others[1]).reconfigurable


def test_sigma_attach_raises_degree():
    c4 = PlainGraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out, gm = attach_sigma(c4, 1)
    assert out.degrees[1] == 3
    assert all(out.degrees[v] == 3 for v in gm.internal_vertices)


def _subdivided(host, edge):
    """``subdivide_edge(host, edge)`` and its map, grafted as the (3,3) reductions graft it."""
    g, w = subdivide_edge(host, edge)
    b = _Build(host)
    b.unlink(*edge)
    gm = b.graft(_SUBDIVISION, dict(zip("uv", edge)), [(u, "w") for u in edge])
    assert b.graph() == g and gm.named_internals == {"w": w}
    return g, gm


def test_phi_sd():
    g, gm = _subdivided(HOST, (1, 2))
    w = gm.named_internals["w"]
    assert phi_sd(frozenset({3}), gm) == {3}
    assert phi_sd(frozenset({w, 3}), gm) == {1, 3}


def test_projections_reject_the_wrong_kind_of_map(k4):
    _, upsilon = replace_upsilon(k4, 1)
    _, sub = _subdivided(HOST, (1, 2))
    with pytest.raises(errors.InvalidInput, match="phi_sd needs a subdivision map, got upsilon"):
        phi_sd(frozenset({1}), upsilon)
    with pytest.raises(errors.InvalidInput, match="phi_upsilon needs an upsilon map, got subdivision"):
        phi_upsilon(frozenset({1}), sub)


def test_subdivision_minimum_correspondence():
    rng = random.Random(77)
    from tsr.generators import random_connected

    for _ in range(8):
        host = random_connected(rng, rng.randint(3, 7))
        edge = host.edges[rng.randrange(host.m)]
        g, gm = _subdivided(host, edge)
        k = min_target_set_size(host)
        k2 = min_target_set_size(g)
        assert k == k2
        minima = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2):
            proj = phi_sd(s, gm)
            assert len(proj) == len(s)
            assert proj in minima


def test_subdivision_reconfigurability_preserved():
    rng = random.Random(78)
    from tsr.generators import random_connected

    for _ in range(6):
        host = random_connected(rng, rng.randint(3, 6))
        edge = host.edges[rng.randrange(host.m)]
        g, w = subdivide_edge(host, edge)
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
    g, gm = connect_xi(host, 1, 3)
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
        (lambda: attach_oneway(HOST, 1, 3), set()),
        (lambda: attach_theta(HOST, 1), {1}),
        (lambda: connect_xi(HOST, 1, 3), {1, 3}),
    ]:
        g, _ = build()
        for v, t in base.items():
            want = t + 1 if v in bumped else t
            assert g.tau[v] == want, (v, g.tau[v], want)
    g, _ = replace_upsilon(k4, 2)
    assert g.tau[2] == 2  # replaced vertex drops to threshold 2
    for v in (1, 3, 4):
        assert g.tau[v] == 3


def test_theta_correspondence_random_hosts():
    rng = random.Random(404)
    from tsr.generators import random_connected

    for _ in range(3):
        host = random_connected(rng, rng.randint(3, 5))
        v = rng.randint(1, host.n)
        g, gm = attach_theta(host, v)
        k = min_target_set_size(host)
        k2 = min_target_set_size(g, cap=22)
        assert k2 == k + 3
        minima_host = set(enumerate_target_sets(host, k))
        for s in enumerate_target_sets(g, k2, cap=22):
            assert (s - gm.internal_vertices) in minima_host
        for s in minima_host:
            assert is_target_set(g, s | gm.m_set)
