"""Bottleneck partial-matching diagrams of planar point sets under translation.

Given point sets A and B (|B| <= |A|), the library subdivides translation
space into cells on which one injective matching of B into A stays optimal
for the bottleneck (and lexicographic bottleneck) cost, and answers three
queries on top of that structure: the optimal aligning translation, minimax
bottleneck paths between placements, and the cover radius of a convex region.
All values are exact rationals; lengths are squared Euclidean.
"""

from .applications import (
    CoverResult,
    Empty,
    PathResult,
    bottleneck_path,
    cover_radius,
    optimal_translation,
)
from .arrangement import (
    Arrangement,
    Bisector,
    FaceRef,
    OutsideBox,
    all_bisectors,
    build_arrangement,
    used_bisectors,
)
from .diagram import (
    CellLabel,
    LabeledDiagram,
    LexLabel,
    build_diagram,
    eval_E,
    label_cells_incremental,
    label_cells_recompute,
    label_faces_lex,
    reduced_arrangement,
)
from .geom import (
    ConvexPolygon,
    EdgeRef,
    Instance,
    Line,
    Point,
    Scalar,
    bisector_line,
    convex_polygon,
    equivalence_classes,
    erode_polygon,
    instance,
    point,
    squared_edge_length,
)
from .matching import (
    CandidateGraph,
    Matching,
    NoCompleteMatching,
    bottleneck_matching,
    lex_bottleneck_matching,
    max_matching,
    prune_candidates,
)
from .oracle import (
    TooLarge,
    brute_force_E,
    brute_force_lex,
    grid_cover_radius,
    oracle_optimal_translation,
)

__all__ = [
    "Arrangement",
    "Bisector",
    "CandidateGraph",
    "CellLabel",
    "ConvexPolygon",
    "CoverResult",
    "EdgeRef",
    "Empty",
    "FaceRef",
    "Instance",
    "LabeledDiagram",
    "LexLabel",
    "Line",
    "Matching",
    "NoCompleteMatching",
    "OutsideBox",
    "PathResult",
    "Point",
    "Scalar",
    "TooLarge",
    "all_bisectors",
    "bisector_line",
    "bottleneck_matching",
    "bottleneck_path",
    "brute_force_E",
    "brute_force_lex",
    "build_arrangement",
    "build_diagram",
    "convex_polygon",
    "cover_radius",
    "equivalence_classes",
    "erode_polygon",
    "eval_E",
    "grid_cover_radius",
    "instance",
    "label_cells_incremental",
    "label_cells_recompute",
    "label_faces_lex",
    "lex_bottleneck_matching",
    "max_matching",
    "optimal_translation",
    "oracle_optimal_translation",
    "point",
    "prune_candidates",
    "reduced_arrangement",
    "squared_edge_length",
    "used_bisectors",
]

__version__ = "0.1.0"
