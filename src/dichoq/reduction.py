"""Block decomposition and partial-trace reductions of composite states.

A state of dimension N = n*m is an n x n grid of m x m blocks R_jk.
Tracing each block gives the n-dimensional reduction; summing the
diagonal blocks gives the m-dimensional one. Re-partitioning the same
array into an m x m grid of n x n blocks (the swapped tensor reading of
the index) and repeating both contractions yields the tilde pair. All
four are again states; a failed validation here means a bug, not bad
input, and is raised as InternalInvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFactorization, DichoqError, InternalInvariantViolation
from .matcore import DensityMatrix, HermitianMatrix, validate_density


@dataclass(frozen=True)
class Factorization:
    """Composite dimension N split as n*m with the n-dim factor outermost."""

    N: int
    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < 2 or self.n * self.m != self.N:
            raise BadFactorization(
                f"{self.N} != {self.n} * {self.m} with both factors >= 2"
            )

    def swapped(self) -> "Factorization":
        return Factorization(self.N, self.m, self.n)


def factorizations(dim: int) -> list[Factorization]:
    """All ordered factorizations n*m = dim with n, m >= 2."""
    return [
        Factorization(dim, n, dim // n)
        for n in range(2, dim // 2 + 1)
        if dim % n == 0
    ]


@dataclass(frozen=True, eq=False)
class BlockView:
    """The n x n grid of m x m blocks of a matrix; blocks[j - 1, k - 1] is R_jk."""

    factorization: Factorization
    blocks: np.ndarray  # shape (n, n, m, m)

    def block_traces(self) -> np.ndarray:
        """n x n matrix of block traces."""
        return np.einsum("jkpp->jk", self.blocks)

    def diagonal_block_sum(self) -> np.ndarray:
        """Sum of the n diagonal blocks, an m x m matrix."""
        return np.einsum("jjpq->pq", self.blocks)


def block_decompose(
    rho: DensityMatrix | HermitianMatrix | np.ndarray, f: Factorization
) -> BlockView:
    """Partition the matrix into f.n^2 blocks of size f.m x f.m."""
    mat = np.asarray(rho)
    if mat.shape[0] != f.N:
        raise BadFactorization(f"matrix dim {mat.shape[0]} != factorization N {f.N}")
    blocks = mat.reshape(f.n, f.m, f.n, f.m).transpose(0, 2, 1, 3).copy()
    blocks.setflags(write=False)
    return BlockView(f, blocks)


def _validated(mat: np.ndarray, what: str) -> DensityMatrix:
    sym = (mat + mat.conj().T) / 2.0
    if np.abs(mat - sym).max() > 1e-12:
        raise InternalInvariantViolation(f"{what} lost Hermiticity")
    sym.setflags(write=False)
    try:
        return validate_density(HermitianMatrix(sym))
    except DichoqError as exc:
        raise InternalInvariantViolation(f"{what} failed validation: {exc}") from exc


def reduce_rho1(rho: DensityMatrix, f: Factorization) -> DensityMatrix:
    """Trace out the inner m-dimensional factor: (rho1)_jk = Tr R_jk."""
    return _validated(block_decompose(rho, f).block_traces(), "rho1")


def reduce_rho2(rho: DensityMatrix, f: Factorization) -> DensityMatrix:
    """Trace out the outer n-dimensional factor: rho2 = sum_j R_jj."""
    return _validated(block_decompose(rho, f).diagonal_block_sum(), "rho2")


def reduce_swapped(rho: DensityMatrix, f: Factorization) -> tuple[DensityMatrix, DensityMatrix]:
    """The tilde pair from the swapped block reading of the same array.

    Re-partitions the matrix into m x m blocks of size n and returns
    (rho1_tilde, rho2_tilde) = (sum of diagonal n x n blocks, matrix of
    block traces). For n = m = 2 this collapses to (rho2, rho1).
    """
    view = block_decompose(rho, f.swapped())
    rho1_tilde = _validated(view.diagonal_block_sum(), "rho1_tilde")
    rho2_tilde = _validated(view.block_traces(), "rho2_tilde")
    return rho1_tilde, rho2_tilde
