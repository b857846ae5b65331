"""Exact computation with cellular sheaves of vector spaces on finite posets.

The package builds the Alexandrov topology of a finite poset, solves for
sections of a cellular sheaf over arbitrary open sets by exact linear
algebra, computes stalks both canonically and as literal direct-limit
quotients, and verifies the gluing laws by finite enumeration.
"""

from .errors import (
    CellSheafError,
    DocumentError,
    EnumerationLimitError,
    FunctorialityError,
    GlueConflictError,
    NaturalityError,
    NotAntisymmetricError,
    NotOpenError,
    ShapeError,
    UnknownElementError,
    ValidationError,
)
from .linalg import (
    FpElement,
    Matrix,
    PrimeField,
    QQ,
    SubspaceBasis,
    field_from_name,
    is_exact_at,
    kernel_basis,
    subspace_from_rows,
)
from .order import (
    MonotoneMap,
    Poset,
    PreOrder,
    QuotientResult,
    as_poset,
    build_poset,
    build_preorder,
    factor_through_quotient,
    hasse_edges,
    identity_map,
    quotient_to_poset,
)
from .topology import (
    OpenSet,
    empty_open,
    enumerate_opens,
    is_open,
    open_star,
    open_violation,
    union_of_stars,
    whole_space,
)
from .sheaf import (
    AxiomReport,
    CellularSheaf,
    CoverCheck,
    DirectLimitStalk,
    Section,
    SectionSpace,
    StalkReport,
    build_sheaf,
    constant_sheaf,
    glue,
    restrict_section,
    restriction_matrix,
    section_from_value,
    sections_over,
    stalk_at,
    stalk_direct_limit,
    verify_base_sheaf_axioms,
    verify_sheaf_axioms_extended,
)
from .morphism import (
    MorphismFlags,
    SheafMorphism,
    build_morphism,
    classify,
    identity_morphism,
    section_map,
    stalk_map_direct_limit,
    zero_morphism,
)
from .document import (
    RealizedDocument,
    SheafDocument,
    parse_document,
    parse_text,
    realize,
    render_document,
)

__version__ = "0.1.0"
