"""Z2 simplicial complexes, stellar moves, and structure-based classification."""

from .complexes import (
    Complex,
    LabelAllocator,
    cone,
    simplex,
    standard_simplex,
    standard_sphere,
)
from .errors import (
    BudgetExceeded,
    ComplexError,
    EquivalenceError,
    MoveError,
    ParseError,
    StellarError,
    StructureError,
    WeldError,
)
from .homology import AbelianGroup
from .moves import (
    Recognition,
    collapse_greedy,
    prism,
    recognize,
    relabel,
    subdivide,
    weld,
)
from .manifold import ManifoldReport, check_manifold
from .quotient import (
    QuotientComplex,
    RegularEquivalence,
    StellarStructure,
    euler_identity_check,
)
from .structure import BuildResult, build_structure, verify_structure
from .group import (
    GammaGraph,
    collapsible_edges,
    degree,
    degree_entry,
    face_classes,
    flatness_equivalence_check,
    gamma_graph,
    has_circuit,
    internally_flat_complexes,
    is_flat,
    order_of,
)
from .lens import fold_structure, lens_structure
from .invariants import (
    SurfaceClass,
    WorkflowReport,
    classify_flat_quotient,
    h1,
    h1_mod2_concordant,
    prism_cell_counts,
    quotient_collapses_to_point,
    sphere_workflow,
    structure_report,
)

__version__ = "0.1.0"
