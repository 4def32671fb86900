"""Detect hot spots in three-year citation matrices via entropy statistics.

Pipeline: parse per-year edge lists, align them over the common
actively-citing journal set, compute KL divergences / revision of the
prediction / per-cell triangle scores, flag journals and links beyond
mean +/- k*SD, decompose the hot-link network into components and
communities, and export Pajek/VOSviewer files and CSV/JSON reports.
"""

from .corpus import (
    PAIRS,
    AlignedTensor,
    JournalRegistry,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    normalize_name,
    parse_edge_list,
    parse_rename_file,
)
from .entropy import (
    DIRECTIONS,
    UNIT_SCALE,
    Cells,
    RevisionCells,
    cell_divergence,
    kl_term,
    margin_totals,
    revision_of_prediction,
    to_unit,
    triangle_evaluation,
)
from .errors import CiteHeatError, ConfigError, DataError
from .flags import (
    FlagReport,
    ThresholdSpec,
    build_flag_report,
    compute_threshold,
    flag_links,
    remove_outliers,
)
from .netgraph import (
    CommunityPartition,
    ComponentPartition,
    HotLinkGraph,
    build_graph,
    connected_components,
    degree_centrality,
    louvain,
    modularity,
)

__version__ = "0.1.0"

__all__ = [
    "PAIRS",
    "DIRECTIONS",
    "UNIT_SCALE",
    "AlignedTensor",
    "JournalRegistry",
    "YearMatrix",
    "Cells",
    "RevisionCells",
    "ThresholdSpec",
    "FlagReport",
    "HotLinkGraph",
    "ComponentPartition",
    "CommunityPartition",
    "CiteHeatError",
    "ConfigError",
    "DataError",
    "normalize_name",
    "parse_edge_list",
    "parse_rename_file",
    "apply_name_changes",
    "build_common_set",
    "kl_term",
    "to_unit",
    "cell_divergence",
    "margin_totals",
    "revision_of_prediction",
    "triangle_evaluation",
    "compute_threshold",
    "flag_links",
    "remove_outliers",
    "build_flag_report",
    "build_graph",
    "connected_components",
    "louvain",
    "modularity",
    "degree_centrality",
]
