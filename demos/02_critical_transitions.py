"""Detect a discontinuity in the middle year of a three-year window.

Two instruments are compared on the same data:

* revision of the prediction, per journal: sum of q*log2(p'/p); negative
  means the in-between year makes the final year HARDER to predict;
* the per-cell triangle score KL(p'|p) + KL(q|p') - KL(q|p), computed in
  its closed form (p' - q) * log2(p'/p); it is negative exactly when the
  link's share moves strictly monotonically (p < p' < q or p > p' > q), and
  0 when p' equals p or q.

The fixture plants one link that accelerates (29 -> 54 -> 106 citations)
inside an otherwise static background, the same arithmetic as the worked
dyad it mimics.

Run: python demos/02_critical_transitions.py
"""

import numpy as np

from citeheat import (
    YearMatrix,
    apply_name_changes,
    build_common_set,
    build_flag_report,
    to_unit,
)

background = [f"Journal {c}" for c in "ABCDEFGHIJ"]
rising = {"2011": 29, "2012": 54, "2013": 106}
reverse = {"2011": 5, "2012": 5, "2013": 7}

matrices = []
for label in ("2011", "2012", "2013"):
    cells = {}
    for i, node in enumerate(background):
        cells[(node, background[(i + 1) % len(background)])] = 200
    cells[("Pers Med", "Genet Med")] = rising[label]
    cells[("Genet Med", "Pers Med")] = reverse[label]
    matrices.append(YearMatrix.from_cells(label, cells))

registry, renamed = apply_name_changes(matrices, renames=[])
tensor = build_common_set(registry, renamed)
report = build_flag_report(tensor, k=1.0, unit="mbits")
names = tensor.registry.names

# --- Journal-level view ----------------------------------------------------
print("revision of the prediction (citing direction, mbits):")
revision = report.value_sets["revision_citing"]
# A journal family is an ascending array of registry ids; one fancy
# assignment turns it into a mask over every journal.
flagged = np.zeros(len(names), dtype=bool)
flagged[report.revision_flagged["citing"]] = True
for i in np.argsort(revision):
    marker = "  <- flagged" if flagged[i] else ""
    print(f"  {names[i]:12s} {to_unit(revision[i], 'mbits'):9.4f}{marker}")
threshold = report.thresholds["revision_citing"]
print(f"  threshold: mean - sd = {to_unit(threshold.lower, 'mbits'):.4f} mbits")

# --- Link-level view --------------------------------------------------------
# The triangle score exists per cell, where the revision identity is vacuous.
print("\nhot links (triangle score below mean - sd, loops dropped):")
for citing, cited, score in report.hot_links:
    print(f"  {names[citing]} -> {names[cited]}: {to_unit(score, 'mbits'):.3f} mbits")
link_threshold = report.thresholds["links"]
print(f"  threshold was {to_unit(link_threshold.lower, 'mbits'):.3f} mbits "
      f"(mean {to_unit(link_threshold.mean, 'mbits'):.3f}, "
      f"sd {to_unit(link_threshold.sd, 'mbits'):.3f})")

assert [(names[c], names[d]) for c, d, _ in report.hot_links] == [
    ("Pers Med", "Genet Med")
]
print("\nOnly the accelerating direction of the dyad is flagged; the stable "
      "reverse link and the static background survive the threshold.")
