"""Deterministic random-state generation for tests and fixtures.

The generator is fully specified so fixtures are reproducible across
platforms and can be re-derived in other languages:

  * seeding: splitmix64 over the 64-bit seed produces the four stream
    words (constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
    0x94D049BB133111EB);
  * stream: xoshiro256** (rotl(s1 * 5, 7) * 9 output scrambler);
  * uniforms: top 53 bits mapped to [0, 1), shifted into (0, 1] where a
    logarithm is taken;
  * normals: Box-Muller pairs; a complex normal is one pair.

States are drawn from the Ginibre recipe G G^dag / Tr(G G^dag) (mixed),
normalized Gaussian vectors (pure), or Kronecker products of two mixed
draws (product).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRange
from .matcore import DensityMatrix, HermitianMatrix, validate_density

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB
_TWO53_INV = 2.0**-53


class PortableRng:
    """xoshiro256** stream with splitmix64 seeding."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0 or seed > _MASK64:
            raise OutOfRange(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        state = []
        z = seed
        for _ in range(4):
            z = (z + _SPLITMIX_GAMMA) & _MASK64
            word = z
            word = ((word ^ (word >> 30)) * _SPLITMIX_MIX1) & _MASK64
            word = ((word ^ (word >> 27)) * _SPLITMIX_MIX2) & _MASK64
            word ^= word >> 31
            state.append(word)
        if not any(state):
            state[0] = _SPLITMIX_GAMMA  # xoshiro forbids the all-zero state
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _TWO53_INV

    def normal_pair(self) -> tuple[float, float]:
        u1 = ((self.next_u64() >> 11) + 1) * _TWO53_INV  # in (0, 1], log-safe
        u2 = (self.next_u64() >> 11) * _TWO53_INV
        r = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return r * math.cos(angle), r * math.sin(angle)

    def complex_normals(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.complex128)
        for i in range(count):
            re, im = self.normal_pair()
            out[i] = complex(re, im)
        return out


def random_pure(dim: int, seed: int) -> DensityMatrix:
    """Rank-one state from a normalized complex Gaussian vector."""
    if dim < 2:
        raise OutOfRange(f"dim must be >= 2, got {dim}")
    rng = PortableRng(seed)
    psi = rng.complex_normals(dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    rho.setflags(write=False)
    return validate_density(HermitianMatrix(rho))


def random_mixed(dim: int, seed: int) -> DensityMatrix:
    """Full-rank state G G^dag / Tr(G G^dag), G complex Gaussian."""
    if dim < 2:
        raise OutOfRange(f"dim must be >= 2, got {dim}")
    rng = PortableRng(seed)
    g = rng.complex_normals(dim * dim).reshape(dim, dim)
    rho = g @ g.conj().T
    rho /= rho.trace().real
    rho.setflags(write=False)
    return validate_density(HermitianMatrix(rho))


def random_product(n: int, m: int, seed: int) -> DensityMatrix:
    """Kronecker product of two independent mixed states, dim n*m.

    Both factors come from one stream (outer factor first), so a single
    seed pins the whole product.
    """
    if n < 2 or m < 2:
        raise OutOfRange(f"factors must be >= 2, got ({n}, {m})")
    rho = np.kron(*product_factors(n, m, seed))
    rho = (rho + rho.conj().T) / 2.0
    rho.setflags(write=False)
    return validate_density(HermitianMatrix(rho))


def product_factors(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The two factor matrices behind random_product(n, m, seed)."""
    rng = PortableRng(seed)
    ga = rng.complex_normals(n * n).reshape(n, n)
    gb = rng.complex_normals(m * m).reshape(m, m)
    a = ga @ ga.conj().T
    a /= a.trace().real
    b = gb @ gb.conj().T
    b /= b.trace().real
    return a, b
