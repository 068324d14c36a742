"""
The gadget zoo
==============

Each gadget reshapes degrees and thresholds while preserving exactly the
properties the reductions need: minimum sizes, seed correspondences, and
reconfigurability.  Every gadget is grafted by one call,
``attach(host, kind, *anchors)`` (``host=None`` gives the bare gadget), and
``project`` maps a seed back through an upsilon or subdivision.
"""

from tsr import ThresholdGraph, activate, residual, vc_to_tss
from tsr.gadgets import attach, project
from tsr.oracle import enumerate_target_sets, min_target_set_size, tj_decide

host = ThresholdGraph.build(3, [(1, 2), (2, 3)], [1, 2, 1])

# --- one-way gadget: information flows v -> w only ------------------------
g, ow = attach(host, "oneway", 1, 3)
print("seeding v reaches the gadget:", ow.internal_vertices <= activate(g, {1}).final)
print("seeding w does not:", not (ow.internal_vertices & activate(g, {3}).final))

# --- theta gadget: a rigid block of three tokens ---------------------------
theta, tm = attach(None, "theta")
print("\ntheta minimum size:", min_target_set_size(theta))
print("its canonical minimum:", sorted(tm.m_set))
print("size-2 seeds of the relaxed variant all fail:",
      enumerate_target_sets(attach(None, "theta1")[0], 2) == [])

# --- upsilon gadget: dissolving a (3,3)-vertex -----------------------------
k4 = ThresholdGraph.build(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], [3, 3, 3, 3])
g2, um = attach(k4, "upsilon", 1)
print("\nupsilon keeps the residual at w identical:",
      residual(g2, {1}).as_original() == residual(k4, {1}).as_original())
print("minimum size preserved:", min_target_set_size(k4) == min_target_set_size(g2, cap=22))
some_min = enumerate_target_sets(g2, 3, cap=22)[0]
print("a minimum of the new graph projects to", sorted(project(some_min, um)))

# --- xi gadget: a portable single token ------------------------------------
g3, xm = attach(host, "xi", 1, 3)
want = (frozenset(host.vertices), frozenset(host.edges),
        {v: host.tau[v] for v in host.vertices})
print("\nxi: any internal token dissolves the gadget:",
      all(residual(g3, {u}).as_original() == want for u in xm.internal_vertices))

# --- sigma gadget: three covers, one of them frozen -------------------------
sg, sm = attach(None, "sigma")
tss = vc_to_tss(sg)
covers = enumerate_target_sets(tss, 3)
print("\nsigma minimum vertex covers:", [sorted(c) for c in covers])
others = [c for c in covers if c != sm.m_set]
print("M cannot jump to either of the others:",
      all(not tj_decide(tss, sm.m_set, c).reconfigurable for c in others))
