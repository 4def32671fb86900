"""Detect hot spots in three-year citation matrices via entropy statistics.

Pipeline: parse per-year edge lists, align them over the common
actively-citing journal set, compute KL divergences / revision of the
prediction / per-cell triangle scores, flag journals and links beyond
mean +/- k*SD, decompose the hot-link network into components and
communities, and export Pajek/VOSviewer files and CSV/JSON reports.

Names load on first use: ``import citeheat`` imports only ``errors``, and
the first read of another public name (or of the submodules ``corpus``,
``entropy``, ``flags`` and ``netgraph``) imports the module that defines
it, and with it numpy. So ``python -m citeheat.cli`` runs ``cli`` before
numpy loads, and ``cli`` can choose numpy's BLAS threads (see ``cli``).
"""

import importlib

from .errors import CiteHeatError, ConfigError, DataError

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    "corpus": ("PAIRS", "AlignedTensor", "JournalRegistry", "YearMatrix", "normalize_name",
               "parse_edge_list", "parse_rename_file", "apply_name_changes",
               "build_common_set", "remove_outliers"),
    "entropy": ("DIRECTIONS", "UNIT_SCALE", "Cells", "RevisionCells", "kl_term", "to_unit",
                "cell_divergence", "margin_totals", "revision_of_prediction",
                "triangle_evaluation"),
    "flags": ("ThresholdSpec", "FlagReport", "compute_threshold", "flag_links",
              "build_flag_report"),
    "netgraph": ("HotLinkGraph", "ComponentPartition", "CommunityPartition", "build_graph",
                 "connected_components", "louvain", "modularity", "degree_centrality"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = ["CiteHeatError", "ConfigError", "DataError", *_HOME_OF]


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None and name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home or name}")
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
