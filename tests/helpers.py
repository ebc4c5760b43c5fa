"""Independent oracles and samplers for the test suite.

Everything here deliberately avoids the library's own code paths, which
take spectra from LAPACK and characteristic polynomials from those
spectra. The oracles are:

  * partial traces: raw index loops (oracle_rho1 ... oracle_rho2_tilde);
  * spectra: cyclic complex Jacobi rotations (jacobi_eigvals);
  * characteristic polynomials: the Leverrier / Newton-identity recursion
    on trace powers (leverrier_charpoly), accurate for small N only;
  * divergences: scipy (kl_oracle) and a direct power mean
    (tsallis_oracle);
  * audit rows: the scalar entropy functions one probability at a time
    (audit_rows_oracle);
  * frame probabilities: literal traces against every projector
    (encode_by_trace);
  * SU(2) lifts of rotations: scipy's quaternions (su2_lift, embed_plane);
  * two-level spectra: the determinant closed form
    (two_level_spectrum_from_det).

That keeps every dual-route check honest.
"""

import math

import numpy as np
from scipy.spatial.transform import Rotation
from scipy.special import rel_entr

import dichoq
from dichoq.codec import raw_probabilities


def random_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_state_array(n, rng):
    """Ginibre-style mixed state as a bare array (bypasses genstates)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_state(n, rng):
    return dichoq.validate_density(dichoq.make_hermitian(n, random_state_array(n, rng)))


def random_rotation(rng):
    """Haar-random SO(3) matrix from scipy (independent of frames code)."""
    return Rotation.random(rng=rng).as_matrix()


def su2_lift(rotation):
    """The 2x2 unitary U with U sigma_a U^dag = sum_b R[b, a] sigma_b.

    scipy's unit quaternion (x, y, z, w) of R lifts to
    U = w I - i (x sigma_x + y sigma_y + z sigma_z).
    """
    x, y, z, w = Rotation.from_matrix(rotation).as_quat()
    return np.array([[w - 1j * z, -1j * x - y], [-1j * x + y, w + 1j * z]])


def embed_plane(dim, plane, u2):
    """The N x N identity with a 2x2 unitary written into plane (j, k)."""
    u = np.eye(dim, dtype=complex)
    idx = [plane.j - 1, plane.k - 1]
    u[np.ix_(idx, idx)] = u2
    return u


# ---------------------------------------------------------------------------
# brute-force partial-trace contractions (raw quadruple loops, 1-based math)


def oracle_rho1(mat, n, m):
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            for p in range(m):
                out[j, k] += mat[j * m + p, k * m + p]
    return out


def oracle_rho2(mat, n, m):
    out = np.zeros((m, m), dtype=complex)
    for p in range(m):
        for q in range(m):
            for j in range(n):
                out[p, q] += mat[j * m + p, j * m + q]
    return out


def oracle_rho1_tilde(mat, n, m):
    """Sum of diagonal n x n blocks of the swapped (stride-n) partition."""
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            for p in range(m):
                out[j, k] += mat[p * n + j, p * n + k]
    return out


def oracle_rho2_tilde(mat, n, m):
    """Traces of the n x n blocks of the swapped partition."""
    out = np.zeros((m, m), dtype=complex)
    for p in range(m):
        for q in range(m):
            for j in range(n):
                out[p, q] += mat[p * n + j, q * n + j]
    return out


# ---------------------------------------------------------------------------
# spectral and entropic oracles


def jacobi_eigvals(mat):
    """Descending eigenvalues of a Hermitian array by cyclic Jacobi sweeps.

    Each complex plane rotation zeroes one off-diagonal pair; sweeps stop
    when the off-diagonal Frobenius norm falls below 1e-14 N max(1, ||A||).
    Jacobi is the classic high-accuracy reference for symmetric spectra
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and shares
    no code with LAPACK's tridiagonal reduction.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    threshold = 1e-14 * n * max(1.0, np.linalg.norm(a))
    for _ in range(100):
        off = np.abs(a) ** 2
        np.fill_diagonal(off, 0.0)
        if np.sqrt(off.sum()) <= threshold:
            return np.sort(a.diagonal().real)[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = abs(a[p, q])
                if beta == 0.0:
                    continue
                phase = a[p, q] / beta
                tau = (a[p, p].real - a[q, q].real) / (2.0 * beta)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                u = np.array([[c, -s * phase], [s * np.conj(phase), c]])
                a[:, [p, q]] = a[:, [p, q]] @ u
                a[[p, q], :] = u.conj().T @ a[[p, q], :]
                a[p, q] = a[q, p] = 0.0
    raise AssertionError("Jacobi oracle did not converge in 100 sweeps")


def leverrier_charpoly(mat):
    """det(A - x I) coefficients, index = power of x, from trace powers.

    Power sums p_k = Tr(A^k) feed the Newton identities for the elementary
    symmetric polynomials e_k; the coefficient of x^j is (-1)^j e_{N-j}.
    No eigensolver is involved, but the alternating sums cancel
    catastrophically beyond N of about 10.
    """
    n = mat.shape[0]
    power_sums = np.empty(n + 1)
    acc = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        acc = acc @ mat
        power_sums[k] = acc.trace().real
    elementary = np.empty(n + 1)
    elementary[0] = 1.0
    for k in range(1, n + 1):
        total = 0.0
        for i in range(1, k + 1):
            sign = 1.0 if (i - 1) % 2 == 0 else -1.0
            total += sign * elementary[k - i] * power_sums[i]
        elementary[k] = total / k
    return np.array([(-1.0) ** j * elementary[n - j] for j in range(n + 1)])


def two_level_spectrum_from_det(det):
    """Eigenvalues (1 +- sqrt(1 - 4 det)) / 2 of a trace-one 2x2 state."""
    root = math.sqrt(max(0.0, 1.0 - 4.0 * det))
    return (0.5 * (1.0 + root), 0.5 * (1.0 - root))


def kl_oracle(p, r):
    return float(rel_entr(np.array([p, 1 - p]), np.array([r, 1 - r])).sum())


def tsallis_oracle(p, r, q):
    """Direct power-mean evaluation, written without shared code."""
    pv = np.array([p, 1 - p])
    rv = np.array([r, 1 - r])
    mask = pv > 0
    if np.any((rv == 0) & mask):
        return np.inf if q > 1 else (np.sum(pv[mask & (rv > 0)] ** q * rv[mask & (rv > 0)] ** (1 - q)) - 1) / (q - 1)
    total = np.sum(pv[mask] ** q * rv[mask] ** (1 - q))
    return float((total - 1) / (q - 1))


def audit_rows_oracle(mat, q_values):
    """(name, lhs, bound, slack) of an audit's vn and Tsallis rows, one at a time.

    The per-probability loop the columnar suites replaced: every raw
    probability beyond 1e-10 outside [0, 1] is reported as itself with
    minus that distance as slack (a Tsallis reference as "[ref]"); every
    other row is the scalar dichotomic_entropy / tsallis_relative of the
    clamped values.
    """
    p1, p2, p3 = (values.tolist() for values in raw_probabilities(mat))
    n = mat.shape[0]
    pairs = [(j, k) for j in range(1, n) for k in range(j + 1, n + 1)]
    axes = [(p1[i], p2[i], p3[j - 1]) for i, (j, k) in enumerate(pairs)]

    def miss(value):
        dist = max(-value, value - 1.0)
        return -dist if dist > 1e-10 else None

    def clamp(value):
        return min(1.0, max(0.0, value))

    rows = []
    for (j, k), values in zip(pairs, axes):
        for axis, x in zip((1, 2, 3), values):
            name = f"vn(j={j},k={k},a={axis})"
            if miss(x) is not None:
                rows.append((name, x, 0.0, miss(x)))
            else:
                h = dichoq.dichotomic_entropy(clamp(x))
                rows.append((name, h, 0.0, h))
    for a, b in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
        for q in q_values:
            for (j, k), values in zip(pairs, axes):
                name = f"tsallis(j={j},k={k},a={a},b={b},q={q:g})"
                x, y = values[a - 1], values[b - 1]
                if miss(x) is not None:
                    rows.append((name, x, 0.0, miss(x)))
                elif miss(y) is not None:
                    rows.append((name + "[ref]", y, 0.0, miss(y)))
                else:
                    t = dichoq.tsallis_relative(clamp(x), clamp(y), q)
                    rows.append((name, t, 0.0, t))
    return rows


def encode_by_trace(state, frame):
    """p = Tr(rho P) evaluated literally against every frame projector."""
    mat = np.asarray(state)
    values = {}
    for plane, axis, proj in frame.items():
        values[(plane.j, plane.k, axis)] = float(np.trace(mat @ proj).real)
    return values


# ---------------------------------------------------------------------------
# special states


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def near_state_negative_eig(dim=4, epsilon=1e-3):
    """Hermitian, trace-one, with an eigenvalue exactly -epsilon.

    Built in the (1, 2) plane so the defect shows up in an audited
    probability: rho_12 = -(rho_11 + rho_22)/2 - epsilon makes the plane's
    first dichotomic probability equal to -epsilon.
    """
    diag = np.array([0.3, 0.3, 0.2, 0.2])[:dim]
    diag = diag / diag.sum()
    mat = np.diag(diag).astype(complex)
    off = -(diag[0] + diag[1]) / 2.0 - epsilon
    mat[0, 1] = off
    mat[1, 0] = off
    return mat
