import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr import errors
from tsr.activation import (
    Orientation,
    activate,
    certify_orientation,
    is_target_set,
    orientation_from_trace,
    residual,
    shrink_threshold1_seed,
)
from tsr.generators import random_connected
from tsr.graph import ThresholdGraph

THETA_M = frozenset({13, 2, 9})  # r, t_{1,2}, t_{2,3}


def test_theta_activation_schedule(theta):
    """The canonical seed sweeps the gadget in a pinned 8-round order."""
    trace = activate(theta, THETA_M)
    by_round = [sorted(trace.newly_active(t)) for t in range(len(trace.rounds))]
    # t_{1,j} = j, t_{2,j} = 6 + j, r = 13
    assert by_round == [
        [2, 9, 13],       # seed
        [1, 3, 8],        # t11 t13 t22
        [7],              # t21
        [12],             # t26
        [6],              # t16
        [5],              # t15
        [4, 11],          # t14 t25
        [10],             # t24
    ]
    assert trace.final == frozenset(range(1, 14))


def test_full_seed_fixpoint_round_zero(fig1):
    trace = activate(fig1, fig1.vertices)
    assert len(trace.rounds) == 1


def test_fig1_x1_activates_all(fig1):
    assert is_target_set(fig1, {1, 6, 9})


def test_theta_no_size2_target_sets(theta_r1):
    pairs = list(itertools.combinations(range(1, 14), 2))
    assert len(pairs) == 78
    assert all(not is_target_set(theta_r1, p) for p in pairs)


def test_empty_seed_never_target_set(fig1):
    assert not is_target_set(fig1, frozenset())


def test_unknown_vertex(fig1):
    with pytest.raises(errors.UnknownVertex):
        activate(fig1, {42})


def test_trace_format(fig2):
    text = activate(fig2, {1, 3, 5}).format()
    assert text.splitlines()[0] == "round 0: 1 3 5"


@st.composite
def graph_and_seeds(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    g = random_connected(random.Random(draw(st.integers(0, 10**6))), n)
    small = draw(st.sets(st.integers(1, n), max_size=n))
    extra = draw(st.sets(st.integers(1, n), max_size=n))
    return g, frozenset(small), frozenset(small) | frozenset(extra)


@settings(max_examples=80, deadline=None)
@given(graph_and_seeds())
def test_activation_monotone_in_seed(data):
    g, s, s_bigger = data
    assert activate(g, s).final <= activate(g, s_bigger).final


@settings(max_examples=50, deadline=None)
@given(graph_and_seeds())
def test_fixpoint_within_n_rounds(data):
    g, s, _ = data
    assert len(activate(g, s).rounds) <= g.n + 1


def test_residual_empty_for_target_set(fig1):
    r = residual(fig1, {1, 6, 9})
    assert r.graph.n == 0


def test_residual_of_empty_seed_is_graph(fig1):
    r = residual(fig1, frozenset())
    assert r.as_original() == (
        frozenset(fig1.vertices),
        frozenset(fig1.edges),
        {v: fig1.tau[v] for v in fig1.vertices},
    )


def test_residual_thresholds_reduced():
    # P3 with tau(middle)=2: seeding one end leaves a P2 with the middle at 1
    g = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])
    r = residual(g, {1})
    verts, edges, tau = r.as_original()
    assert verts == {2, 3} and edges == {(2, 3)}
    assert tau == {2: 1, 3: 1}


def test_residual_split_lemma_random():
    """S+T is a target set of G iff T restricted to the residual is one of G_S."""
    rng = random.Random(20240)
    for _ in range(50):
        g = random_connected(rng, rng.randint(3, 10))
        pool = list(g.vertices)
        rng.shuffle(pool)
        cut = rng.randint(0, len(pool))
        s = frozenset(pool[: cut // 2])
        t = frozenset(pool[cut // 2 : cut])
        r = residual(g, s)
        lhs = is_target_set(g, s | t)
        survivors = r.as_original()[0]
        t_local = frozenset(
            i for i in r.graph.vertices if r.vertex_map[i] in (t & survivors)
        )
        rhs = r.graph.n == 0 or is_target_set(r.graph, t_local)
        assert lhs == rhs, (g, sorted(s), sorted(t))


def test_orientation_from_trace_certifies(fig1, theta):
    for g, s in [(fig1, {1, 6, 9}), (theta, THETA_M), (fig1, set(fig1.vertices))]:
        d = orientation_from_trace(g, s)
        assert certify_orientation(g, s, d)


def test_orientation_full_seed_vacuous(fig2):
    d = orientation_from_trace(fig2, fig2.vertices)
    assert certify_orientation(fig2, fig2.vertices, d)


def test_cyclic_orientation_rejected():
    g = ThresholdGraph.build(3, [(1, 2), (2, 3), (1, 3)], [1, 1, 1])
    cyc = Orientation(arcs=((1, 2), (2, 3), (3, 1)))
    assert not certify_orientation(g, {1, 2, 3}, cyc)


def test_not_an_orientation():
    g = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])
    with pytest.raises(errors.NotAnOrientation):
        certify_orientation(g, {2}, Orientation(arcs=((1, 2),)))
    with pytest.raises(errors.NotAnOrientation):
        certify_orientation(g, {2}, Orientation(arcs=((1, 2), (2, 1), (2, 3))))


def test_orientation_from_trace_needs_target_set(fig1):
    with pytest.raises(errors.NotATargetSet):
        orientation_from_trace(fig1, {1})


def test_ackerman_equivalence_exhaustive():
    """Target-set-ness coincides with the existence of a passing acyclic
    orientation; the negative side searches all orientations."""
    rng = random.Random(7)
    for _ in range(6):
        g = random_connected(rng, rng.randint(3, 5), extra_edge_prob=0.4)
        if g.m > 8:
            continue
        for r in range(g.n + 1):
            for combo in itertools.combinations(g.vertices, r):
                s = frozenset(combo)
                if is_target_set(g, s):
                    assert certify_orientation(g, s, orientation_from_trace(g, s))
                else:
                    found = False
                    for bits in range(1 << g.m):
                        arcs = tuple(
                            (u, v) if bits >> i & 1 else (v, u)
                            for i, (u, v) in enumerate(g.edges)
                        )
                        if certify_orientation(g, s, Orientation(arcs)):
                            found = True
                            break
                    assert not found, (g, sorted(s))


def test_shrink_threshold1_p3():
    g = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 1, 1])
    out = shrink_threshold1_seed(g, {2}, 2, 1)
    assert out == {1}
    assert is_target_set(g, out)


def test_shrink_threshold1_fig2(fig2):
    # replace p1 by p2 inside {c1, c3, p1, p2}: the set only shrinks
    out = shrink_threshold1_seed(fig2, {1, 3, 5, 6}, 5, 6)
    assert out == {1, 3, 6}
    assert is_target_set(fig2, out)


def test_shrink_threshold2_rejected(fig2):
    with pytest.raises(errors.PreconditionViolated):
        shrink_threshold1_seed(fig2, {1, 3, 5, 6}, 1, 2)


def test_orientation_file_roundtrip(fig2):
    from tsr.activation import parse_orientation

    d = orientation_from_trace(fig2, {1, 3, 5})
    back = parse_orientation(d.format())
    assert back == d
    assert certify_orientation(fig2, {1, 3, 5}, back)
