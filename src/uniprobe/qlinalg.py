"""Dense complex linear algebra shared across the package.

Operators are plain ``numpy`` arrays (complex128, row-major). Structural
identities (unitarity, normalization) are held to tighter tolerances than
spectral reconstructions, which accumulate rounding across a factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: max-abs tolerance for structural identities such as U†U = 1.
UNITARY_TOL = 1e-10
#: tolerance on the norm of a pure-state amplitude vector.
STATE_NORM_TOL = 1e-10
#: tolerance for spectral decompositions (normality check, reconstruction).
SPECTRAL_TOL = 1e-8
#: relative eigenvalue cutoff used when restricting to a support subspace.
SUPPORT_CUTOFF = 1e-12


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} times {b.shape}")
    return a @ b


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the probe (A) system."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(d))) <= tol)


def assert_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> None:
    if not is_unitary(u, tol):
        raise ValueError("operator is not unitary within tolerance")


def eig_normal(m: np.ndarray, tol: float = SPECTRAL_TOL):
    """Eigendecomposition of a normal matrix with orthonormal eigenvectors.

    Returns ``(eigenvalues, vectors)`` with ``m = vectors @ diag(eigenvalues)
    @ vectors†``. A complex Schur form is used: for a normal matrix the
    triangular factor is diagonal, so the Schur basis is an orthonormal
    eigenbasis even across degenerate clusters.

    Raises ``ValueError`` if ``m`` is not normal within ``tol`` (max-abs of
    the commutator ``m m† - m† m``) and ``RuntimeError`` if the underlying
    QR iteration fails to converge.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_normal expects a square matrix")
    comm = m @ m.conj().T - m.conj().T @ m
    if np.max(np.abs(comm)) > tol:
        raise ValueError("matrix is not normal within tolerance")
    import scipy.linalg  # imported here: it is most of the package's import time

    try:
        t, q = scipy.linalg.schur(m, output="complex")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError("Schur iteration did not converge") from exc
    return np.diag(t).copy(), q


def trace_norm(m: np.ndarray) -> float:
    """Trace norm (sum of singular values)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    return float(np.linalg.svd(m, compute_uv=False).sum())


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state on A tensor B; ``dim_b = 1`` describes a single system.

    Amplitudes are stored A-major: index ``i * dim_b + j`` holds the
    coefficient of ``|i>_A |j>_B``, matching ``numpy.kron`` ordering.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amp)
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be positive")
        if amp.size != self.dim_a * self.dim_b:
            raise ValueError("amplitude count does not match dim_a * dim_b")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("amplitudes must be finite")
        if abs(np.linalg.norm(amp) - 1.0) > STATE_NORM_TOL:
            raise ValueError("state is not normalized")

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a dim_a x dim_b coefficient matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def reduced_a(self) -> np.ndarray:
        """Reduced density operator on the A system."""
        m = self.as_matrix()
        return m @ m.conj().T


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are nonnegative and descending; the bases hold one
    orthonormal column per coefficient.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def rank(self, cutoff: float = 1e-9) -> int:
        return int(np.sum(self.coefficients > cutoff))

    def reconstruct(self) -> np.ndarray:
        """Amplitude vector rebuilt from the Schmidt data."""
        amp = np.zeros(self.left_basis.shape[0] * self.right_basis.shape[0], dtype=complex)
        for c, l, r in zip(self.coefficients, self.left_basis.T, self.right_basis.T):
            amp += c * np.kron(l, r)
        return amp


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state via SVD."""
    u, s, vh = np.linalg.svd(state.as_matrix(), full_matrices=False)
    # rows of vh carry the B-side components as-is (no extra conjugation),
    # so state = sum_l s_l kron(u[:, l], vh[l, :]).
    return SchmidtDecomposition(coefficients=s, left_basis=u, right_basis=vh.T)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic given the generator.

    QR of a complex Ginibre matrix with the R-diagonal phases divided out;
    the phase fix is what makes the QR map measure preserving.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure-state amplitude vector, uniform on the sphere."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# --- JSON wire format -------------------------------------------------------
#
# Matrices: {"rows": r, "cols": c, "entries": [[re, im], ...]} row-major.
# Vectors:  {"len": n, "entries": [[re, im], ...]}.


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: missing field {exc}") from exc
    if len(entries) != rows * cols:
        raise ValueError(f"matrix entry count {len(entries)} != rows*cols {rows * cols}")
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise ValueError("matrix entries must be [re, im] pairs") from exc
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"len": int(v.size), "entries": [[float(z.real), float(z.imag)] for z in v]}


def vector_from_json(obj: dict) -> np.ndarray:
    try:
        n = int(obj["len"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed vector object: missing field {exc}") from exc
    if len(entries) != n:
        raise ValueError(f"vector entry count {len(entries)} != len {n}")
    try:
        v = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise ValueError("vector entries must be [re, im] pairs") from exc
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v
