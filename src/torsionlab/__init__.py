"""Exact-arithmetic workbench for hereditary torsion filters on finite rings.

Layers:

* :mod:`torsionlab.rings`    -- finite commutative rings from a constructor
  grammar, ideal arithmetic, prime spectra, local decomposition, and the
  lattice engine shared by ideals and submodules: indexed sub-objects with
  memoized sums, meets, products, colons and order, and closures, all read
  from addition and orbit rows.
* :mod:`torsionlab.modules`  -- subquotient modules of A^k; their submodule
  lattices run the rings lattice engine on addition and orbit rows that
  each module builds from its coset arithmetic on first read.
* :mod:`torsionlab.filters`  -- Gabriel filters, torsion radicals, closures,
  spectrum partitions, jansian structure, induced filters.
* :mod:`torsionlab.noether`  -- finiteness certificates, maximality
  machinery, quotient transfer, and the exhaustive theorem suites.
* :mod:`torsionlab.monomial` -- monomial ideals over countably many
  variables: exact membership, saturation and finiteness decisions for
  principal multiplicative sets.
* :mod:`torsionlab.cli`      -- the `torsionlab` command.
"""

from .errors import (
    InvalidArgument,
    InvalidModulus,
    NonMonicPolynomial,
    NotASubmodule,
    NotMultiplicativelyClosed,
    NotPrime,
    PreconditionFailed,
    RingMismatch,
    SizeCapExceeded,
    SpecPredicateError,
    SpecValidationError,
    TailDisciplineViolation,
    TheoremViolation,
    UnsupportedMap,
    WorkbenchError,
)
from .filters import (
    GabrielFilter,
    JansianStatus,
    SpecPartition,
    Violation,
    closure,
    enumerate_gabriel_filters,
    filter_from_mult_set,
    filter_from_prime,
    gabriel_check,
    gabriel_closure,
    ideal_closure,
    improper_filter,
    induced_filter,
    is_closed,
    is_dense,
    jansian_status,
    lambda_filter,
    meet_decomposition_check,
    spec_partition,
    torsion_class_report,
    torsion_submodule,
    trivial_filter,
)
from .modules import (
    FiniteModule,
    SubmoduleLattice,
    free_module,
    is_submodule,
    span,
    submodule_lattice,
)
from .monomial import (
    AntiArchimedeanResult,
    CohenScanReport,
    Decision,
    DecisionBudget,
    Monomial,
    MonomialIdeal,
    PrincipalMultSet,
    TailFamily,
    VariablePattern,
    almost_jansian_principal,
    classify_prime,
    cohen_scan,
    in_filter,
    member,
    monomial_ideal,
    s_finite_decide,
    saturation,
    scale,
)
from .noether import (
    Certificate,
    SigmaPrincipalStatus,
    SuiteReport,
    TheoremResult,
    closure_colon_witness,
    quotient_transfer_check,
    sigma_principal_status,
    tfg_certificate,
    theorem_suite,
    upper_closure,
    verify_certificate,
)
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    Ideal,
    IdealLattice,
    RingMap,
    annihilator,
    build_ring,
    colon,
    colon_element,
    enumerate_ideals,
    ideal_from_generators,
    ideal_intersect,
    ideal_lattice,
    ideal_product,
    ideal_sum,
    identity_map,
    local_decomposition,
    localize_at_prime,
    minimal_generators,
    poly_quotient,
    prime_spectrum,
    principal_ideal,
    product_ring,
    quotient_ring,
    ring_axiom_report,
    ring_catalog,
    square_zero,
    unit_ideal,
    zero_ideal,
    zmod,
)

__version__ = "0.1.0"
