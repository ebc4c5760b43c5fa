"""Dichotomic probability representation of N-level density matrices."""

from .codec import (
    DichotomicTable,
    decode,
    encode,
    qubit_ball_check,
    rotate_table,
    table_from_json_dict,
)
from .entropy import (
    EntropyParams,
    dichotomic_entropy,
    reduced_state_inequalities,
    tsallis_inequality,
    tsallis_relative,
    vn_inequality_suite,
)
from .errors import (
    BadFactorization,
    ConvergenceFailure,
    DichoqError,
    DimensionMismatch,
    InternalInvariantViolation,
    NotHermitian,
    NotOrthogonal,
    NotPositive,
    NotSpecial,
    NotTraceOne,
    OutOfRange,
    TableInvariantError,
)
from .frames import ProjectorFrame, build_frame
from .genstates import PortableRng, random_mixed, random_product, random_pure
from .matcore import (
    DensityMatrix,
    EigenProbability,
    HermitianMatrix,
    determinant,
    eig_hermitian,
    eigvals_hermitian,
    make_hermitian,
    matrix_from_json_dict,
    matrix_to_json_dict,
    purity,
    validate_density,
)
from .reduction import (
    BlockView,
    Factorization,
    block_decompose,
    factorizations,
    reduce_rho1,
    reduce_rho2,
    reduce_swapped,
)
from .report import InequalityCheck, InequalityReport
from .spectra import (
    CharPoly,
    char_poly,
    det_bounds_check,
    eigen_probability,
    reduction_spectra,
)

__version__ = "0.1.0"
