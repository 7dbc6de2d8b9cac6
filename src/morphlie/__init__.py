"""Exact-arithmetic cohomology of morphism Lie algebras.

A morphism Lie algebra is a pair of Lie algebras joined by a homomorphism;
its representations, cochain complex, cohomology, abelian extensions,
skeletal homotopy counterparts, and the finite-group analogue all live
here, computed over the rationals with no floating point anywhere.
"""

from .algebras import (
    CheckResult,
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    RotaBaxterDatum,
    adjoint_morphism_rep,
    check_jacobi,
    check_morphism_homomorphism,
    check_morphism_rep,
    is_lie_homomorphism,
    rota_baxter_morphism,
)
from .cecomplex import (
    ExteriorBasis,
    ce_cohomology_dim,
    ce_differential,
    pullback_rep,
)
from .cohomology import (
    MCochain,
    check_derivation,
    check_infinitesimal_deformation,
    derivation_space_dim,
    inner_derivation_dim,
    invariant_vectors_dim,
    mla_block_dims,
    mla_cohomology_dim,
    mla_differential,
    outer_derivation_dim,
    simple_cohomology_dim,
    simple_differential,
)
from .documents import ProblemDocument, check_document
from .errors import (
    MorphismAlgebraError,
    NotACocycle,
    NotAHomomorphism,
    NotASection,
    NotSimplyCohomologous,
    ParseError,
    ShapeError,
    SizeCeilingExceeded,
    UnknownObject,
    ValidationError,
)
from .extensions import (
    AbelianExtension,
    build_extension,
    coboundary_isomorphism,
    extract_cocycle,
)
from .groups import (
    FiniteGroup,
    GroupModule,
    GroupModuleTriple,
    group_cohomology_dim,
    group_differential,
    mlg_cohomology_dim,
    mlg_differential,
    pullback_module,
)
from .linalg import Matrix, rat_str
from .sampling import Sampler
from .shlie import (
    ShMorphism,
    SkeletalMorphismSh,
    TwoTermSh,
    check_sh_morphism,
    check_two_term_sh,
    skeletal_to_triple,
    triple_to_skeletal,
    twist_equivalence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
