"""From flagged links to network structure: components, communities, degree.

A synthetic tensor plants two separate groups of discontinuous links inside
random background traffic. After flagging, the hot links' id arrays are
symmetrized into an undirected graph; connected components separate the
two stories and modularity optimization recovers the planted grouping
inside the larger one.

Run: python demos/03_hot_link_network.py
"""

import numpy as np

from citeheat import (
    HotLinkGraph,
    build_flag_report,
    connected_components,
    degree_centrality,
    louvain,
    modularity,
)
from citeheat.corpus import AlignedTensor, JournalRegistry

rng = np.random.default_rng(42)
n = 16
names = [f"J{i:02d}" for i in range(n)]

# Static random background plus guaranteed citing activity for everyone.
grids = []
base = rng.integers(40, 80, size=(n, n))
base[rng.random((n, n)) > 0.35] = 0
for c in range(n):
    base[c, (c + 1) % n] = 60
for _ in range(3):
    grids.append(base.copy())

# Two planted stories: a clique of accelerating links among J00..J03 and an
# isolated accelerating dyad J10 -> J11.
story = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
for y, factor in enumerate((1, 3, 9)):
    for c, d in story:
        grids[y][c, d] = 10 * factor
    grids[y][10, 11] = 8 * factor

# Cells are the (citing, cited) pairs positive in some year, in row-major
# order, which is the tensor's (citing, cited) sort order.
stacked = np.stack(grids)
citing, cited = np.nonzero((stacked > 0).any(axis=0))
tensor = AlignedTensor(
    registry=JournalRegistry.from_names(names),
    year_labels=("2011", "2012", "2013"),
    citing=citing,
    cited=cited,
    counts=stacked[:, citing, cited],
)

report = build_flag_report(tensor, k=1.0)
labeled = [(names[c], names[d], s) for c, d, s in report.hot_links]
print(f"{len(labeled)} hot links after loop removal:")
for citing, cited, score in labeled:
    print(f"  {citing} -> {cited}  ({score * 1000:.3f} mbits)")

# The graph is built from the report's id arrays, as the network stage
# builds it: no ids turn into labels and back.
graph = HotLinkGraph.from_ids(*report.links, names)
parts = connected_components(graph)
print(f"\ncomponents (size order): {[len(c) for c in parts.components]}")
for i, comp in enumerate(parts.components):
    print(f"  component {i}: {', '.join(comp)}")

communities = louvain(graph, seed=7)
print(f"\nmodularity Q = {communities.q:.4f} "
      f"(recomputed: {modularity(graph, communities.assignment):.4f})")
groups: dict[int, list[str]] = {}
for node, community in sorted(communities.assignment.items()):
    groups.setdefault(community, []).append(node)
for community, members in sorted(groups.items()):
    print(f"  community {community}: {', '.join(members)}")

# Degrees are an array over node positions, which are in label order, so a
# stable sort on the degrees ranks equal degrees by label.
degrees = degree_centrality(graph)
ranked = np.argsort(-degrees, kind="stable")
print("\ndegree ranking (hot-link ties per journal):")
for i in ranked.tolist():
    print(f"  {graph.nodes[i]}: {degrees[i]}")

assert {"J10", "J11"} in [set(c) for c in parts.components]
print("\nThe dyad J10-J11 stays a separate component: a candidate hot spot "
      "outside the main component.")
