"""Entropic inequality suites over dichotomic probabilities.

Every probability extracted from a state carries a nonnegative binary
(von Neumann) entropy, and any ordered pair of them a nonnegative Tsallis
relative entropy. Both suites run on a raw Hermitian array's
MatrixProbabilities, derived once per array, so an audit can hand the same
columns to every suite and flag out-of-range probabilities of near-states
instead of silently clamping them; the wrappers taking a DensityMatrix keep
the last state's MatrixProbabilities in a one-entry memo (states are
immutable and hash by identity). Each suite builds its rows as whole
columns: pow and log, which numpy may round apart from libm, run on Python
floats once per distinct probability and exponent, and the correctly rounded
+ - * / in numpy, so every row is dichotomic_entropy / tsallis_relative of
the clamped value bit for bit. A q's Tsallis rows are one grid of products
of p^q, p^(1-q), (1-p)^q, (1-p)^(1-q), or tsallis_relative's where those
leave float range.

Conventions: natural logarithms, 0 ln 0 = 0, and 0^q x^(1-q) = 0 for
q > 0. A zero in the reference distribution with q > 1 drives the Tsallis
value to +infinity; such entries are reported as satisfied-at-infinity.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .codec import PROB_TOL, raw_probabilities
from .errors import BadFactorization, OutOfRange
from .frames import plane_indices
from .matcore import DensityMatrix
from .reduction import Factorization, block_decompose
from .report import InequalityReport

Q_MAX = 10.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EntropyParams:
    """Tsallis deformation parameter, q in (0, 1) or (1, Q_MAX]."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= Q_MAX) or self.q == 1.0:
            raise OutOfRange(f"q must be in (0, 1) or (1, {Q_MAX}], got {self.q}")


def dichotomic_entropy(p: float) -> float:
    """Binary entropy -[p ln p + (1-p) ln(1-p)], zero at the endpoints."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def tsallis_relative(p: float, r: float, q: float) -> float:
    """Tsallis relative entropy between (p, 1-p) and (r, 1-r).

    (q - 1)^-1 [p^q r^(1-q) + (1-p)^q (1-r)^(1-q) - 1], nonnegative for
    q > 0, q != 1, and +inf when r has a zero where p does not and q > 1.
    """
    moment = 0.0
    for a, b in ((p, r), (1.0 - p, 1.0 - r)):
        if a == 0.0:
            continue
        if b == 0.0:
            if q > 1.0:
                return math.inf
            continue  # a^q * b^(1-q) -> a^q * 0^(positive) = 0
        try:
            moment += a**q * b ** (1.0 - q)
        except OverflowError:  # b ** (1 - q) beyond float range, q > 1
            log_term = q * math.log(a) + (1.0 - q) * math.log(b)
            moment += math.exp(log_term) if log_term < _LOG_FLOAT_MAX else math.inf
    return (moment - 1.0) / (q - 1.0)


def _libm(fn, xs: np.ndarray, *args: float) -> np.ndarray:
    """fn(x, *args) per entry of xs on Python floats, so libm rounds it."""
    return np.fromiter(map(fn, xs.tolist(), *map(repeat, args)), float, len(xs))


@dataclass(frozen=True, eq=False)
class MatrixProbabilities:
    """A Hermitian array and its dichotomic probabilities, derived once.

    values is concatenate((p1, p2, p3)) clipped into [0, 1]; values[index]
    is the (planes, 3) grid of axes 1, 2, 3 (axis 3 of plane (j, k) is row
    j's p3), and raw that grid unclamped and flat, so raw[a - 1::3] is axis
    a's column. in_range says no value lies beyond PROB_TOL outside [0, 1]
    and none is NaN, which clipping and the scalar clamp treat apart.
    """

    matrix: np.ndarray
    raw: list[float]
    values: np.ndarray
    index: np.ndarray
    in_range: bool
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _power(self, base: int, e: float) -> np.ndarray:
        """(3, planes) p^e (base 0) or (1-p)^e (base 1) per axis, once per (base, e)."""
        if (base, e) not in self._memo:
            xs = 1.0 - self.values if base else self.values
            self._memo[base, e] = _libm(math.pow, xs, e)[self.index.T]
        return self._memo[base, e]

    def tsallis_grid(self, q: float) -> np.ndarray | None:
        """Tsallis rows of axes a, b at [a - 1, b - 1], once per q; None off float range."""
        if q not in self._memo:
            try:
                p_q, p_c, u_q, u_c = [self._power(b, e) for b in (0, 1) for e in (q, 1.0 - q)]
                with np.errstate(over="ignore"):  # overflow gives inf, as on Python floats
                    self._memo[q] = (p_q[:, None] * p_c + u_q[:, None] * u_c - 1.0) / (q - 1.0)
            except (ValueError, OverflowError):  # math.pow left float range
                self._memo[q] = None
        return self._memo[q]

    def entropies(self) -> list[float]:
        """dichotomic_entropy over the grid, one log of p and of 1 - p per interior value."""
        inner = (self.values > 0.0) & (self.values < 1.0)
        p, h = self.values[inner], np.zeros(len(self.values))  # h is +0.0 at the endpoints
        h[inner] = -(p * _libm(math.log, p) + (1.0 - p) * _libm(math.log, 1.0 - p))
        return h[self.index].ravel().tolist()


@functools.lru_cache(maxsize=256)
def _grid_index(dim: int) -> np.ndarray:
    j = plane_indices(dim)[0]
    index = np.stack((np.arange(len(j)), np.arange(len(j), 2 * len(j)), j + 2 * len(j)), axis=1)
    index.setflags(write=False)
    return index


def matrix_probabilities(mat: np.ndarray) -> MatrixProbabilities:
    """Derive every probability of a Hermitian array once, for all the suites."""
    p = np.concatenate(raw_probabilities(mat))
    in_range = bool((np.maximum(-p, p - 1.0) <= PROB_TOL).all())
    index = _grid_index(mat.shape[0])
    return MatrixProbabilities(mat, p[index].ravel().tolist(), p.clip(0.0, 1.0), index, in_range)


@functools.lru_cache(maxsize=1)
def _state_probabilities(rho: DensityMatrix) -> MatrixProbabilities:
    """The probabilities of the state audited last, derived once for its suites."""
    return matrix_probabilities(rho.entries)


@functools.lru_cache(maxsize=256)
def _row_names(dim: int, head: str, tails: tuple[str, ...]) -> tuple[str, ...]:
    """Names "head(j=J,k=K" + tail, plane by plane, every tail within a plane."""
    j, k = (idx.tolist() for idx in plane_indices(dim))
    return tuple(f"{head}(j={a + 1},k={b + 1}{tail}" for a, b in zip(j, k) for tail in tails)


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _positivity(names: tuple[str, ...], values: list[float]) -> InequalityReport:
    """Rows value >= 0, one per name."""
    return InequalityReport(list(names), values, [0.0] * len(values), values[:])


def _checked_positivity(names: tuple[str, ...], fn, *columns: list[float]) -> InequalityReport:
    """Rows fn(clamped values) >= 0 per name, one fn call per row.

    A row whose raw value lies beyond PROB_TOL outside [0, 1] reports the
    first such value as its lhs, minus that distance as slack, and is named
    "[ref]" when the value is a reference (not the first) argument of fn.
    """
    report = InequalityReport()
    for name, values in zip(names, zip(*columns)):
        for i, value in enumerate(values):
            dist = max(-value, value - 1.0)
            if dist > PROB_TOL:
                report.add(name if i == 0 else f"{name}[ref]", value, 0.0, -dist)
                break
        else:
            value = fn(*map(_clamp, values))
            report.add(name, value, 0.0, value)
    return report


def qubit_matrix_forms(off_diagonal: complex) -> tuple[float, float]:
    """Matrix-element forms of the two-level entropy bounds (both <= 0).

    Each form is ln sqrt((1/2 - u)(1/2 + u)) + u ln((1/2 + u)/(1/2 - u))
    with u the real part for the first and the imaginary part for the
    second, i.e. exactly the negated binary entropy of that axis'
    dichotomic distribution.
    """

    def form(u: float) -> float:
        lo, hi = 0.5 - u, 0.5 + u
        if lo <= 0.0 or hi <= 0.0:
            return 0.0  # endpoint limit
        return math.log(math.sqrt(lo * hi)) + u * math.log(hi / lo)

    return form(float(off_diagonal.real)), form(float(off_diagonal.imag))


def vn_suite_from_matrix(probs: MatrixProbabilities) -> InequalityReport:
    """Binary-entropy positivity for every (plane, axis) probability."""
    mat = probs.matrix
    names = _row_names(mat.shape[0], "vn", (",a=1)", ",a=2)", ",a=3)"))
    if probs.in_range:
        report = _positivity(names, probs.entropies())
    else:
        report = _checked_positivity(names, dichotomic_entropy, probs.raw)
    if mat.shape[0] == 2:
        re_form, im_form = qubit_matrix_forms(complex(mat[0, 1]))
        report.add("qubit_matrix_re", re_form, 0.0, -re_form)
        report.add("qubit_matrix_im", im_form, 0.0, -im_form)
    return report


def vn_inequality_suite(rho: DensityMatrix) -> InequalityReport:
    """Entropy-positivity suite of a validated state."""
    return vn_suite_from_matrix(_state_probabilities(rho))


def tsallis_suite_from_matrix(
    probs: MatrixProbabilities, a: int, b: int, params: EntropyParams
) -> InequalityReport:
    """Per-plane Tsallis relative entropy between two axis distributions."""
    if a == b or a not in (1, 2, 3) or b not in (1, 2, 3):
        raise OutOfRange(f"axes must be distinct members of (1, 2, 3), got ({a}, {b})")
    q = params.q
    names = _row_names(probs.matrix.shape[0], "tsallis", (f",a={a},b={b},q={q:g})",))
    grid = probs.tsallis_grid(q) if probs.in_range else None
    if grid is None:  # in range, every row is tsallis_relative of clamped values
        xs, ys = probs.raw[a - 1 :: 3], probs.raw[b - 1 :: 3]
        return _checked_positivity(names, functools.partial(tsallis_relative, q=q), xs, ys)
    return _positivity(names, grid[a - 1, b - 1].tolist())


def tsallis_inequality(
    rho: DensityMatrix, a: int, b: int, params: EntropyParams
) -> InequalityReport:
    """Tsallis relative-entropy suite of a validated state."""
    return tsallis_suite_from_matrix(_state_probabilities(rho), a, b, params)


def reduced_suite_from_matrix(
    mat: np.ndarray, f: Factorization, q_values=(0.5, 2.0, 5.0)
) -> InequalityReport:
    """Two-level inequality set on the block-trace reduction.

    Evaluates the matrix-element entropy forms and the Tsallis pair
    directly from the block traces of the n = 2 partition, without going
    through the reduction module.
    """
    if f.n != 2:
        raise BadFactorization(f"reduced suite needs n = 2, got n = {f.n}")
    traces = block_decompose(mat, f).block_traces()
    off = complex(traces[0, 1])
    re_form, im_form = qubit_matrix_forms(off)
    report = InequalityReport()
    report.add("reduced_matrix_re", re_form, 0.0, -re_form)
    report.add("reduced_matrix_im", im_form, 0.0, -im_form)
    pa = _clamp(0.5 + off.real)
    pb = _clamp(0.5 - off.imag)
    for q in q_values:
        value = tsallis_relative(pa, pb, EntropyParams(q).q)
        report.add(f"reduced_tsallis(q={q:g})", value, 0.0, value)
    return report


def reduced_state_inequalities(
    rho: DensityMatrix, f: Factorization, q_values=(0.5, 2.0, 5.0)
) -> InequalityReport:
    """Entropy bounds of the two-level reduction of a validated state."""
    return reduced_suite_from_matrix(rho.entries, f, q_values)
