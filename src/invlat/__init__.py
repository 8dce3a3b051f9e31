"""Exact subspace-lattice computations for operators over Q and GF(p^k).

The pipeline: factor the minimal polynomial, split the space into primary
components, split each component operator into commuting semisimple and
nilpotent parts, view the component over the field generated by the
semisimple part, and read the invariant / hyperinvariant / characteristic
subspace lattices off the nilpotent part.  A brute-force enumeration
oracle certifies every structural claim on small finite-field instances.
"""

from .centralizer import (
    DEFAULT_UNIT_CAP,
    CentralizerBasis,
    centralizer_basis,
    unit_elements,
)
from .decomposition import (
    ComponentAnalysis,
    JCDecomposition,
    KStructure,
    OperatorAnalysis,
    PrimaryComponent,
    analyze_operator,
    build_k_structure,
    jordan_chevalley,
    primary_decomposition,
    segre_characteristic,
)
from .errors import (
    CapExceededError,
    ClosureError,
    FactorHintError,
    FieldMismatchError,
    InconsistentSystemError,
    InfiniteFieldError,
    InseparableFactorError,
    InvariantError,
    InvlatError,
    SingularMatrixError,
    UndecidedError,
)
from .fields import QQ, ExtensionField, FiniteField, GFElem, RationalField, gf_build
from .lattices import (
    LatticeReport,
    ShodaWitness,
    characteristic_dispatch,
    chinv_lattice,
    direct_sum_lattices,
    hinv_lattice,
    inv_lattice,
    shoda_witness,
)
from .matrix import (
    Matrix,
    block_diag,
    companion,
    inverse,
    mat_vec,
    minimal_polynomial,
    poly_at_matrix,
    rank,
    rref,
    solve,
)
from .oracle import OracleReport, RandomInstance, classify_all, random_instance
from .poly import (
    Factorization,
    Poly,
    factor,
    format_poly,
    is_irreducible,
    is_separable,
    parse_poly,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
)
from .subspace import (
    DEFAULT_SUBSPACE_CAP,
    Lattice,
    Subspace,
    build_lattice,
    enumerate_all_subspaces,
    full_space,
    gaussian_binomial,
    image_basis,
    kernel_basis,
    span,
    subspace_count,
    subspace_label,
    to_dot,
    zero_subspace,
)

__version__ = "0.1.0"
