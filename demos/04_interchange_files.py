"""Every interchange format, written and printed.

Pajek .net/.clu for the network tools, the VOSviewer map/network pair for
the web viewer, and a flag overlay onto a fixed base map. All writers are
deterministic (LF, fixed orderings, fixed float formats). citeheat hands
these files to Pajek and VOSviewer and never reads them back.

Run: python demos/04_interchange_files.py
(writes into demo_output/ under the working directory)
"""

from pathlib import Path

from citeheat import build_graph, connected_components, louvain
from citeheat.io_export import (
    read_basemap,
    write_overlay,
    write_pajek_clu,
    write_pajek_net,
    write_vosviewer_files,
)

links = [
    ("Avian Dis", "Avian Pathol", -1.4e-3),
    ("Avian Pathol", "Dev Comp Immunol", -0.9e-3),
    ("Avian Dis", "Dev Comp Immunol", -0.3e-3),
    ("Hernia", "Surg Innov", -2.1e-3),
]
graph = build_graph(links)
communities = louvain(graph, seed=0)
workdir = Path("demo_output")
workdir.mkdir(exist_ok=True)
print(f"writing into {workdir}\n")

# --- Pajek -----------------------------------------------------------------
net_path = workdir / "hot.net"
clu_path = workdir / "hot.clu"
write_pajek_net(graph, net_path)
write_pajek_clu(communities.assignment, clu_path, nodes=graph.nodes)
print("hot.net:")
print(net_path.read_text(encoding="utf-8"))
print("hot.clu (one 1-based community per vertex, in vertex order):")
print(clu_path.read_text(encoding="utf-8"))

# --- VOSviewer --------------------------------------------------------------
map_path = workdir / "vos_map.txt"
network_path = workdir / "vos_net.txt"
write_vosviewer_files(graph, communities.assignment, map_path, network_path)
print("\nvos_map.txt (no base map, so no x,y columns):")
print(map_path.read_text(encoding="utf-8"))
print("vos_net.txt (map ids and the 6-digit weight):")
print(network_path.read_text(encoding="utf-8"))

# --- Overlay onto a base map -------------------------------------------------
base_path = workdir / "base_map.txt"
rows = ["label\tx\ty\tcluster"]
for i, label in enumerate(sorted({n for link in links for n in link[:2]} | {"Stable J"})):
    rows.append(f"{label}\t{i * 0.25:.2f}\t{-i * 0.1:.2f}\t1")
base_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

overlay_path = workdir / "overlay.txt"
flag_sets = {
    "cited": {"Avian Dis", "Hernia"},
    "citing": {"Surg Innov", "Avian Dis"},  # doubly flagged -> first category
}
write_overlay(flag_sets, read_basemap(base_path), {"cited": "red", "citing": "blue"},
              overlay_path)
print("overlay.txt (unflagged rows keep neutral styling):")
print(overlay_path.read_text(encoding="utf-8"))

parts = connected_components(graph)
print(f"the graph splits into {len(parts.components)} components; the files above "
      "carry exactly that structure into Pajek and VOSviewer.")
