"""Walk through the core measure: cell-level KL divergence between years.

Three toy years of journal-journal citation counts are aligned over the
journals that actively cite in every year, each cell is normalized by its
year's grand total, and the divergence of each later year from each earlier
one is decomposed into per-cell and per-journal contributions.

Run: python demos/01_divergence_basics.py
"""

import numpy as np

from citeheat import (
    PAIRS,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    cell_divergence,
    compute_threshold,
    margin_totals,
    to_unit,
)

# --- Three years of a five-journal system --------------------------------
# "Neuro B" doubles its citations to "Gene A" year over year; everything
# else is static. Counts are (citing, cited) -> count edge lists.

base = {
    ("Gene A", "Neuro B"): 30,
    ("Neuro B", "Gene A"): 20,
    ("Chem C", "Gene A"): 25,
    ("Gene A", "Chem C"): 15,
    ("Stats D", "Chem C"): 10,
    ("Chem C", "Stats D"): 10,
    ("Ecol E", "Stats D"): 12,
    ("Stats D", "Ecol E"): 8,
}

years = []
for label, boost in (("2011", 20), ("2012", 40), ("2013", 80)):
    cells = dict(base)
    cells[("Neuro B", "Gene A")] = boost
    years.append(YearMatrix.from_cells(label, cells))

registry, renamed = apply_name_changes(years, renames=[])
tensor = build_common_set(registry, renamed)
print(f"common set: {tensor.n_nodes} journals, {tensor.n_cells} distinct cells")
print(f"grand totals: {tensor.grand_totals.tolist()}")

# Relative frequencies always sum to one per year.
freqs = tensor.frequencies(0)
print(f"2011 frequency mass: {freqs.sum():.12f}")

# --- Divergence of each transition ---------------------------------------
# A cell enters a transition when its earlier-year count is positive; a
# vanished cell contributes exactly zero bits.

for pair in PAIRS:
    cells = cell_divergence(tensor, pair)
    print(f"\n{cells.pair_label}: total information generation "
          f"{to_unit(cells.grand_sum, 'mbits'):.3f} mbits over {len(cells.values)} cells")
    cited = margin_totals(cells, "cited")
    citing = margin_totals(cells, "citing")

    # Full decomposability: the margins in either direction resum to the total.
    assert np.isclose(cited.sum(), cells.grand_sum, rtol=1e-9)
    assert np.isclose(citing.sum(), cells.grand_sum, rtol=1e-9)

    names = tensor.registry.names
    top_cited = int(np.argmax(cited))
    top_citing = int(np.argmax(citing))
    print(f"  biggest cited-side mover:  {names[top_cited]:8s} "
          f"{to_unit(cited[top_cited], 'mbits'):8.3f} mbits")
    print(f"  biggest citing-side mover: {names[top_citing]:8s} "
          f"{to_unit(citing[top_citing], 'mbits'):8.3f} mbits")

    # compute_threshold takes the mean and population SD behind every flag
    # threshold; k only sets the bounds, not these two.
    cited_stats = compute_threshold(cited, k=1.0)
    citing_stats = compute_threshold(citing, k=1.0)
    print(f"  per-journal mean {to_unit(cited_stats.mean, 'mbits'):.3f} mbits, "
          f"sd(cited) {to_unit(cited_stats.sd, 'mbits'):.3f}, "
          f"sd(citing) {to_unit(citing_stats.sd, 'mbits'):.3f}")

print("\nThe climbing link (Neuro B -> Gene A) dominates every transition, "
      "and the citing-side spread exceeds the cited-side spread, as expected "
      "when referencing behavior changes faster than the archive.")
