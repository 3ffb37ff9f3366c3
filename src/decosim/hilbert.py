"""Dense complex linear algebra and quantum state containers.

Matrices are plain numpy ``complex128`` arrays throughout; the functions here
add the shape/domain validation and the structured operations (tensor
products, partial traces, hermitian eigenproblems, unitary propagators) the
rest of the toolkit builds on.  Storage is dense; the toolkit targets
Hilbert-space dimensions up to a few thousand.

States are validated on construction and rejected if invalid; nothing is
clamped or renormalized silently.  Scalars follow the same rule through
``as_integer``, ``as_decimal`` (from text) and ``as_key`` (a count, seed
or index: a bool, a float or a string is refused, not truncated; a count
below its bound is refused as "<name> must be >= k"), ``as_real`` (a
parameter: it must be a finite number) and ``as_complex`` (a number, not
a bool or a string).  Every "sums to one" test is ``is_normalized``: a
squared norm, a weight sum or a trace must lie within 1e-10 of 1, the
trace bound of a density matrix, so the projector of an accepted vector
has a trace that ``QuantumState.mixed`` accepts.  Two operands of unequal
dimension are refused by ``check_dims``, whose message names both
dimensions.  Arrays of numbers
pass ``as_number_array``, which refuses bools and strings rather than
casting them to numbers, and complex entries where the numbers must be
real rather than dropping their imaginary parts; arrays of parameters
(times, grids, densities, counts, matrices) pass ``as_finite_array``,
which adds the finite test and an optional rank and square check.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError, StateError

__all__ = ["QuantumState", "StateSeries", "TensorFactorization", "dagger",
           "eig_hermitian", "expm_hermitian_prop", "is_hermitian",
           "is_unitary", "kron", "partial_trace"]

# Construction-time tolerances for state and operator validation.
ATOL_HERMITIAN = 1e-10
ATOL_UNITARY = 1e-10
ATOL_TRACE = 1e-10
# Eigenvalues of a density matrix may dip this far below zero before the
# state is rejected; small negatives are tolerated, never clipped.
EIG_FLOOR = -1e-8
# QuantumState._mixed_stack checks a stack in slabs of about this many
# bytes of matrices, which bounds the size of its temporaries.
STACK_SLAB_BYTES = 1 << 20


def as_integer(value, name: str, error=DimensionError, least=None) -> int:
    """*value* as an int; a bool, a float or a string raises *error*, and
    so does an int below *least*."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise error(f"{name} must be >= {least}, got {n}")
    return n


def as_number_array(values, name: str, dtype) -> np.ndarray:
    """*values* as an array of *dtype*; a bool, string or bytes entry
    raises DomainError, and so does a complex entry when *dtype* is real,
    rather than losing its imaginary part.  An ndarray is judged by its
    dtype; other input is read as objects first, so a list that mixes
    numbers and bools is refused rather than cast."""
    arr = (values if isinstance(values, np.ndarray)
           else np.asarray(values, dtype=object))
    objects = arr.dtype.kind == "O"
    if arr.dtype.kind in "bSU" or (objects and any(
            isinstance(v, (bool, np.bool_, str, bytes)) for v in arr.flat)):
        raise DomainError(f"{name} must be numbers, not bools or strings")
    if np.dtype(dtype).kind != "c" and (arr.dtype.kind == "c" or (
            objects and any(isinstance(v, numbers.Complex)
                            and not isinstance(v, numbers.Real)
                            for v in arr.flat))):
        raise DomainError(f"{name} must be real numbers")
    return np.asarray(arr, dtype=dtype)


def as_decimal(text: str, name: str, error=ConfigurationError,
               least=None) -> int:
    """*text* as an int: ASCII digits after an optional "-", nothing else."""
    digits = text.removeprefix("-")
    try:
        value = int(text) if digits.isascii() and digits.isdigit() else text
    except ValueError:      # past int's digit limit
        value = text
    return as_integer(value, name, error, least)


def as_key(value, name: str) -> int:
    """*value* as a Philox key word: an int in [0, 2**64)."""
    key = as_integer(value, name, ConfigurationError)
    if not 0 <= key < 2**64:
        raise ConfigurationError(f"{name} must be in [0, 2**64), got {value}")
    return key


def as_real(value, name: str, error=DomainError) -> float:
    """*value* as a float; a bool, a string, a complex or a non-finite value
    raises *error*, and an int beyond the float range OverflowError."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise error(f"{name} must be a finite number, got {value!r}")


def as_complex(value, name: str, error=DomainError) -> complex:
    """*value* as a complex; a bool or a string raises *error*.  It may be
    NaN or infinite, which the caller's own checks refuse."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        return complex(value)
    raise error(f"{name} must be a number, got {value!r}")


def is_normalized(total):
    """Whether *total* (a squared norm, a weight sum or a trace, real or
    complex; entry by entry for an array) is 1 within ATOL_TRACE; a NaN is
    not."""
    return abs(total - 1.0) <= ATOL_TRACE


def check_dims(dim: int, other: int, what: str, against: str) -> None:
    """Raise DimensionError unless the *what* dimension equals the
    *against* dimension."""
    if dim != other:
        raise DimensionError(f"{what} dimension {dim} does not match "
                             f"{against} dimension {other}")


def as_finite_array(a, name: str, dtype=np.float64, ndim=None,
                    square: bool = False) -> np.ndarray:
    """*a* by ``as_number_array``, with finite entries and, if given, *ndim*
    axes (the last two square if ``square``): DimensionError for a wrong
    rank or shape, else DomainError."""
    arr = as_number_array(a, name, dtype)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected a {ndim}-D {name}, got ndim={arr.ndim}")
    if square and arr.shape[-2] != arr.shape[-1]:
        raise DimensionError(f"expected a square {name}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} entries must be finite")
    return arr


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    return as_finite_array(a, "matrix", np.complex128, 2, square)


def as_vector(v) -> np.ndarray:
    return as_finite_array(v, "vector", np.complex128, 1)


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit inner-dimension validation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(a) -> bool:
    a = as_matrix(a, square=True)
    return bool(np.max(np.abs(a - a.conj().T)) <= ATOL_HERMITIAN)


def is_unitary(u) -> bool:
    u = as_matrix(u, square=True)
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u.conj().T @ u - eye)) <= ATOL_UNITARY)


@dataclass(frozen=True)
class TensorFactorization:
    """Factorization of a Hilbert space into an ordered tensor product.

    ``factor_dims`` lists the subsystem dimensions in tensor order; their
    product must equal the dimension of any matrix it is applied to (checked
    at the point of use).
    """

    factor_dims: tuple[int, ...]

    def __init__(self, factor_dims: Iterable[int]):
        dims = tuple(as_integer(d, "factor_dims", least=1)
                     for d in factor_dims)
        if len(dims) == 0:
            raise DimensionError("factorization needs at least one factor")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))


def partial_trace(rho, factorization, keep: Sequence[int]) -> np.ndarray:
    """Trace out all factors not listed in *keep*.

    *factorization* is a TensorFactorization (or a sequence of ints); *keep*
    holds factor indices to retain, in their original tensor order.  The
    result is the reduced matrix on the kept factors.
    """
    rho = as_matrix(rho, square=True)
    if not isinstance(factorization, TensorFactorization):
        factorization = TensorFactorization(factorization)
    dims = factorization.factor_dims
    n = len(dims)
    if factorization.total_dim != rho.shape[0]:
        raise DimensionError(
            f"factorization {dims} does not match matrix dimension "
            f"{rho.shape[0]}")
    keep = sorted({as_integer(k, "keep") for k in keep})
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == 0:
        raise DimensionError("must keep at least one factor")

    # A numpy array has at most 64 axes: one row and one column per factor.
    if n > 32:
        raise DimensionError("too many tensor factors")
    # Trace from the last factor down, so lower axis numbers stay valid.
    reduced = rho.reshape(dims + dims)
    for i in reversed(range(n)):
        if i not in keep:
            reduced = np.trace(reduced, axis1=i, axis2=i + reduced.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Rejects input
    whose hermiticity defect exceeds ATOL_HERMITIAN.
    """
    a = as_matrix(a, square=True)
    if not is_hermitian(a):
        raise DomainError("matrix is not hermitian within 1e-10")
    w, v = np.linalg.eigh(a)
    return w, v


def expm_hermitian_prop(h, t: float) -> np.ndarray:
    """Unitary propagator exp(-i h t) for hermitian h, via the spectral
    decomposition.  The result is unitary to machine precision."""
    w, v = eig_hermitian(h)
    phases = np.exp(-1j * w * as_real(t, "t"))
    return (v * phases) @ v.conj().T


class QuantumState:
    """A validated pure or mixed state.

    Construct through :meth:`pure` (state vector, squared norm within 1e-10
    of 1, the trace bound of its projector) or :meth:`mixed` (density
    matrix: hermitian within 1e-10, unit trace within 1e-10, eigenvalues
    >= -1e-8).  Invalid data raises StateError; the input is never
    repaired.

    Attributes
    ----------
    kind : str
        ``"pure"`` or ``"mixed"``.
    data : np.ndarray
        The state vector (pure) or density matrix (mixed).
    dim : int
        Hilbert-space dimension.
    """

    __slots__ = ("kind", "data", "dim")

    _TOKEN = object()

    def __init__(self, token, kind: str, data: np.ndarray):
        if token is not QuantumState._TOKEN:
            raise TypeError("use QuantumState.pure or QuantumState.mixed")
        self.kind = kind
        self.data = data
        self.dim = data.shape[0]

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        v = as_vector(vector)
        if v.shape[0] < 2:
            raise StateError("state dimension must be at least 2")
        norm2 = np.vdot(v, v).real
        if not is_normalized(norm2):
            raise StateError(f"pure state squared norm {norm2:.17g} "
                             "deviates from 1 beyond 1e-10")
        return cls(cls._TOKEN, "pure", v.copy())

    @classmethod
    def mixed(cls, matrix) -> "QuantumState":
        # a stack of one copy, so a numeric array skips the entry scan
        m = as_number_array(matrix, "matrix", np.complex128)
        return cls._mixed_stack(np.array([m]))[0]

    @classmethod
    def _mixed_stack(cls, matrices) -> "StateSeries":
        """The StateSeries of an (n, d, d) stack, validated in one pass.

        Each matrix gets the checks of :meth:`mixed` in their order (finite
        entries, hermiticity, unit trace, eigenvalues), one slab of about
        STACK_SLAB_BYTES at a time.  A failure reports the first bad matrix
        and the first check it fails; in a stack of more than one the
        message starts "matrix i of n: ".  The error's ``index`` is i.
        The series keeps a complex128 array passed in as its ``data``,
        which the caller hands over; other input is copied.
        """
        m = as_number_array(matrices, "matrix", np.complex128)
        if m.ndim != 3:
            raise DimensionError(
                f"expected a 2-D matrix, got ndim={m.ndim - 1}")
        if m.shape[1] != m.shape[2]:
            raise DimensionError(
                f"expected a square matrix, got shape {m.shape[1:]}")
        n, d = m.shape[:2]
        if d < 2:
            raise StateError("state dimension must be at least 2")
        if n == 1:
            # the same checks in the same order on the one matrix, without
            # the masks; a failure goes on to the loop, which words it
            s = m[0]
            if (np.isfinite(s).all()
                    and np.max(np.abs(s - s.conj().T)) <= ATOL_HERMITIAN
                    and is_normalized(np.trace(s))
                    and np.linalg.eigvalsh(s)[0] >= EIG_FLOOR):
                return StateSeries(cls._TOKEN, m)
        rows = max(1, STACK_SLAB_BYTES // (m.itemsize * d * d))
        for lo in range(0, n, rows):
            s = m[lo:lo + rows]
            finite = np.isfinite(s).all(axis=(1, 2))
            if not finite.all():
                # a valid stand-in keeps the later checks from warning
                s = np.where(finite[:, None, None], s, np.eye(d) / d)
            tr = np.trace(s, axis1=1, axis2=2)
            w = np.linalg.eigvalsh(s)[:, 0]
            checks = [
                (~finite, "matrix entries must be finite"),
                (np.max(np.abs(s - s.conj().swapaxes(1, 2)), axis=(1, 2))
                 > ATOL_HERMITIAN, "density matrix not hermitian within "
                 "1e-10"),
                (~is_normalized(tr), "density matrix trace "
                 "{tr:.17g} deviates from 1 beyond 1e-10"),
                (w < EIG_FLOOR, "density matrix has eigenvalue {w:.3e} below "
                 "-1e-8")]
            bad = np.logical_or.reduce([mask for mask, _ in checks])
            if bad.any():
                i = int(np.argmax(bad))
                text = next(t for mask, t in checks if mask[i])
                text = text.format(tr=tr[i].real, w=w[i])
                err = (StateError if finite[i] else DomainError)(
                    f"matrix {lo + i} of {n}: {text}" if n > 1 else text)
                err.index = lo + i
                raise err
        return StateSeries(cls._TOKEN, m)

    def density_matrix(self) -> np.ndarray:
        """Density-matrix form: the outer product for pure states, the
        stored matrix for mixed ones."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data.copy()

    def __repr__(self) -> str:
        return f"QuantumState(kind={self.kind!r}, dim={self.dim})"


class StateSeries(Sequence):
    """Mixed states held as one validated (n, d, d) complex128 array,
    ``data``, as the engines return them.  An item is a
    :class:`QuantumState` view of one row, not checked again; a slice is
    a series."""

    __slots__ = ("data",)

    def __init__(self, token, data: np.ndarray):
        if token is not QuantumState._TOKEN:
            raise TypeError("a StateSeries comes from the engines")
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return StateSeries(QuantumState._TOKEN, self.data[key])
        return QuantumState(QuantumState._TOKEN, "mixed",
                            self.data[operator.index(key)])
