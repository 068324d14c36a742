"""
Reductions, checked end to end by the oracle
============================================

Each hardness reduction ships with forward and backward seed maps, so on
small instances we can simply ask the exhaustive oracle the same question on
both sides and compare.
"""

from tsr import ThresholdGraph, classify, vc_to_tss
from tsr.graph import PlainGraph
from tsr.oracle import tj_decide
from tsr.reductions import (
    HittingSystem,
    hs_tj_decide,
    reduce_33_to_b312,
    reduce_33_to_pb342,
    reduce_hitting_to_split,
    reduce_vc23_to_cubic,
)

# --- hitting sets to split graphs ------------------------------------------
hs = HittingSystem.build(4, [{1, 2}, {2, 3}, {3, 4}], 2)
out = reduce_hitting_to_split(hs)
print("split graph:", out.graph.n, "vertices; apex threshold", out.graph.tau[out.graph.n])
x, y = frozenset({1, 3}), frozenset({2, 4})
source = hs_tj_decide(hs, x, y)
target = tj_decide(out.graph, out.forward(x), out.forward(y)).reconfigurable
print(f"hitting-set verdict {source} == split-graph verdict {target}")

# --- vertex cover on a ring to a cubic instance -----------------------------
c6 = PlainGraph.build(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
outc = reduce_vc23_to_cubic(c6)
print("\ncubic instance:", outc.graph.n, "vertices, 3-regular:",
      all(len(outc.graph.adj[v]) == 3 for v in outc.graph.vertices))
x6, y6 = frozenset({1, 3, 5}), frozenset({2, 4, 6})
source = tj_decide(vc_to_tss(c6), x6, y6).reconfigurable
target = tj_decide(outc.graph, outc.forward(x6), outc.forward(y6)).reconfigurable
assert source == target
print("both sides say", source, "- the two alternating covers are pinned")

# --- the two (3,3)-graph reductions, audited structurally -------------------
k4 = ThresholdGraph.build(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], [3, 3, 3, 3])
outp = reduce_33_to_pb342(k4)
rep = classify(outp.graph)
print("\npb342 on K4:", outp.graph.n, "vertices, degrees", sorted(rep.degree_set),
      "thresholds", sorted(set(outp.graph.tau[1:])), "bipartite:", rep.is_bipartite)

outb = reduce_33_to_b312(k4)
repb = classify(outb.graph)
print("b312 on K4:", outb.graph.n, "vertices, degrees", sorted(repb.degree_set),
      "thresholds", sorted(set(outb.graph.tau[1:])), "bipartite:", repb.is_bipartite)

# provenance lets you trace any vertex back to its origin
sample = sorted(outb.provenance.items())[-3:]
print("provenance samples:", sample)
