"""The cylindrical bicomplex of a Hopf crossed product.

`core` carries the bigraded chain spaces with their two commuting
(para)cyclic operator families, the cylindricity checks, the diagonal,
the binormalized total mixed complex and the chain-level isomorphism
with the crossed product's own cyclic module, plus the shuffle map.
`coefficients` identifies rows with Hochschild complexes of the twisted
scalar algebra, builds the conjugation-twisted left modules and the
Mac Lane isomorphism, and computes Hopf-algebra homology.
"""

from .core import (
    HopfCrossedCylinder,
    DiagonalModule,
    BinormalizedCylinder,
    build_cylinder,
    check_cylindrical,
    crossed_to_diagonal,
    diagonal_to_crossed,
    check_diagonal_isomorphism,
    tot_mixed_complex,
    shuffle_map,
    check_shuffle_chain_map,
)
from .coefficients import (
    BimoduleMq,
    HopfComplex,
    HopfComplexError,
    HochschildComplex,
    ModuleLawError,
    TwistedLeftModule,
    twisted_left_module,
    check_row_identification,
    coefficient_action_matrix,
    check_coefficient_action,
    hopf_homology,
    hochschild_to_hopf,
    hopf_to_hochschild,
    check_maclane,
)

__all__ = [name for name in dir() if not name.startswith("_")]
