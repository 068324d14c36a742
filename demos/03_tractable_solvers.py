"""
Polynomial-time solvers: degree two, trees, and both at once
============================================================

On paths, cycles, and trees the reconfiguration question has a complete
answer.  The only obstruction lives on "terrible" cycles: an even count of
four or more threshold-2 vertices pins minimum target sets in place.
Activation never crosses a component, so one solver handles any graph whose
components are each threshold-1, a tree, a path or a cycle.
"""

from tsr import ReconfigSequence, ThresholdGraph, validate_sequence
from tsr.generators import cycle_with_spacing, path_with_spacing
from tsr.graph import disjoint_union
from tsr.oracle import tj_decide
from tsr.reconfig import TAR
from tsr.solvers import (
    chen_tree,
    component_plan,
    cycle_moves,
    decompose_deg2,
    solve,
    solve_maxdeg2,
    solve_tree,
)

# --- paths --------------------------------------------------------------
p = path_with_spacing(4, [1, 1, 1, 1, 1])
# Every component is routed to a canonical minimum; from the whole vertex
# set, the route of the path's one component ends there.
path_plan = component_plan(p)
canon = path_plan.route(0, frozenset(p.vertices))[1]
print("path with m=4: minimum size", path_plan.min_size, "canonical set", sorted(canon))

# --- cycles and the terrible obstruction ---------------------------------
c = cycle_with_spacing(4, [1, 1, 1, 1])
cycle_plan = component_plan(c)
cycle = cycle_plan.components[0]
# An even cycle has two minima, which split w: the canonical one and the rest.
low = cycle_plan.route(0, frozenset(cycle.w))[1]
minima = (low, frozenset(cycle.w) - low)
print("\neven cycle m=4 minima:", [sorted(s) for s in minima])
# One move between them adds w_p+1 and removes w_p; the flip makes all m/2
# moves and peaks two tokens above a minimum.
print("flip:", *(st.format() for st in cycle_moves(cycle, *minima)))
print("terrible:", cycle.terrible)

# --- a full maximum-degree-2 instance ------------------------------------
g = ThresholdGraph.build(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 8), (9, 10)],
    [2, 1, 2, 1, 1, 2, 2, 1, 1, 1],
)
print("\ncomponents:", [(comp.kind, comp.m, comp.terrible) for comp in decompose_deg2(g).components])

# Minimum endpoints disagreeing on the terrible cycle: stuck.
print("minimum pair:", solve_maxdeg2(g, {1, 6, 9}, {3, 7, 9})[0])
# One spare token anywhere unlocks the flip.
yes, seq = solve_maxdeg2(g, {1, 6, 9, 10}, {3, 7, 9, 10})
print("with a spare token:", yes, "- sequence of", len(seq), "jumps, valid:",
      validate_sequence(g, seq).ok)
print("oracle agrees:", tj_decide(g, {1, 6, 9, 10}, {3, 7, 9, 10}).reconfigurable)

# --- trees ----------------------------------------------------------------
t = ThresholdGraph.build(
    14,
    [(1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 8), (5, 9),
     (6, 10), (6, 11), (8, 12), (8, 13), (9, 14)],
    [1, 2, 2, 1, 3, 3, 1, 2, 2, 1, 1, 1, 1, 1],
)
# The tree is the one component of its plan; Chen's regions route it.
plan = chen_tree(t)
print("\ntree canonical minimum:", sorted(plan.s_star))
for i, (_, region) in enumerate(plan.regions, start=1):
    print(f"packing {i}:", *sorted(region))
print()

# Any target set drains into the canonical one within an |S|-TAR budget;
# chaining two drains answers every same-size pair with YES.
big = frozenset(t.vertices)
drain = ReconfigSequence(big, component_plan(t).route(0, big)[0], TAR, k=len(big))
print("drain from V: ", len(drain), "steps, valid:", validate_sequence(t, drain).ok)
yes, route = solve_tree(t, frozenset({1, 2, 6, 8, 9}), frozenset({2, 6, 9, 12, 13}))
print("tree pair:", yes, "valid:", validate_sequence(t, route).ok)

# --- one solver, component by component -------------------------------------
# A tree with a degree-3 vertex beside the terrible cycle above is neither a
# tree nor of maximum degree 2.  Each component is routed on its own.
star = ThresholdGraph.build(5, [(1, 2), (1, 3), (1, 4), (4, 5)], [2, 1, 1, 2, 1])
mixed, shift = disjoint_union(star, c)
plan = component_plan(mixed)
print("\nmixed components:", [(comp.kind, comp.min_size) for comp in plan.components],
      "minimum:", plan.min_size)
a, b = ({shift[v] for v in m} for m in minima)
x, y = frozenset({1, 4} | a), frozenset({1, 4} | b)
print(f"minimum pair, cycle restrictions {sorted(a)} and {sorted(b)}:", solve(mixed, x, y)[0],
      f"(oracle: {tj_decide(mixed, x, y).reconfigurable})")
yes, seq = solve(mixed, x | {2}, y | {2})
print("one size up:", yes, "- sequence of", len(seq), "jumps, valid:", validate_sequence(mixed, seq).ok,
      f"(oracle: {tj_decide(mixed, x | {2}, y | {2}).reconfigurable})")
