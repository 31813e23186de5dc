"""Symmetric sparse matrices in fixed-width rows, a preconditioned CG solver,
the sine basis that preconditions grid operators (and diagonalises the finite
difference ones), and inverse power iteration for the generalized
eigenproblem K v = lambda M v."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

Preconditioner = Callable[[np.ndarray], np.ndarray]  # r -> P^-1 r

CG_ITERATIONS_PER_UNKNOWN = 50  # cg_solve's iteration cap, per unknown
# inverse iteration: relative change of lambda that ends it, and its cap
EIG_TOL, EIG_MAX_ITER = 1e-10, 500


class CgError(RuntimeError):
    """CG hit a non-finite residual or the iteration cap before the tolerance."""

    def __init__(self, iterations: int, residual: float):
        why = "did not converge" if math.isfinite(residual) \
            else "met a non-finite residual"
        super().__init__(
            f"CG {why} in {iterations} iterations "
            f"(last relative residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class EigError(RuntimeError):
    """Inverse power iteration failed to converge."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float  # relative 2-norm


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse matrix in fixed-width rows: row i holds vals[i] in the columns
    cols[i], padded with its own index and the value 0, so a row with no
    entries is an exact zero row. Assembled ones are symmetric."""

    cols: np.ndarray  # (dim, width) column indices
    vals: np.ndarray  # (dim, width) values

    @property
    def dim(self) -> int:
        return self.cols.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Row index of every slot, a broadcast view shaped like cols."""
        return np.broadcast_to(np.arange(self.dim)[:, None], self.cols.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {x.shape[0]} != {self.dim}")
        return np.einsum("nw,nw->n", self.vals, x[self.cols])

    def diagonal(self) -> np.ndarray:
        return np.where(self.cols == self.rows, self.vals, 0.0).sum(axis=1)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        np.add.at(a, (self.rows, self.cols), self.vals)
        return a

    @property
    def nnz(self) -> int:
        """Stored slots, padding included: what matvec multiplies."""
        return self.vals.size


def from_coo(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             dim: int) -> SparseMatrix:
    """Build the matrix from triplets, summing duplicates and keeping the
    nonzero sums; raises ValueError for an index outside it or a non-finite sum."""
    keys = np.ravel_multi_index((np.asarray(rows, dtype=np.int64),
                                 np.asarray(cols, dtype=np.int64)), (dim, dim))
    order = np.argsort(keys, kind="stable")  # duplicates stay in input order
    keys, vals = keys[order], np.asarray(vals, dtype=np.float64)[order]
    first = np.flatnonzero(keys != np.concatenate(([-1], keys[:-1])))  # run starts
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        vals = np.add.reduceat(vals, first)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sparse matrix entries must be finite")
    keep = vals != 0.0
    return _fixed_width(keys[first[keep]], dim, [vals[keep]])[0]


def from_diagonal(d: np.ndarray) -> SparseMatrix:
    d = np.array(d, dtype=np.float64)
    return SparseMatrix(np.arange(d.size)[:, None], d[:, None])


def on_common_pattern(mats: list[SparseMatrix]) -> list[SparseMatrix]:
    """The matrices on the union of their sparsity patterns, sharing one cols
    array, so that a linear combination of them is that of their vals."""
    dim = mats[0].dim
    # each matrix's nonzero slots (padding holds 0) as keys row * dim + col
    keys = [(m.rows * dim + m.cols)[m.vals != 0.0] for m in mats]
    union = np.sort(np.concatenate(keys))
    union = union[union != np.concatenate(([-1], union[:-1]))]
    return _fixed_width(union, dim, [
        np.bincount(np.searchsorted(union, k), m.vals[m.vals != 0.0], union.size)
        for m, k in zip(mats, keys)])


def _fixed_width(keys: np.ndarray, dim: int, values) -> list[SparseMatrix]:
    """Matrices with the entries of each array of ``values`` at the
    increasing keys row * dim + col, all on one cols array."""
    rows = keys // dim
    counts = np.bincount(rows, minlength=dim)
    # the slots that hold an entry; a boolean index fills them row by row
    filled = np.arange(counts.max(initial=0)) < counts[:, None]
    cols = np.repeat(np.arange(dim)[:, None], filled.shape[1], axis=1)
    cols[filled] = keys - rows * dim
    out = []
    for v in values:
        vals = np.zeros(filled.shape)
        vals[filled] = v
        out.append(SparseMatrix(cols, vals))
    return out


def _distinct_pairs(r: np.ndarray, c: np.ndarray, n: int):
    """The distinct keys r * n + c in increasing order, and each entry's
    position among them (np.unique would import numpy.ma on first use)."""
    key = r * n + c
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), np.cumsum(seen)[key] - 1


@dataclass(frozen=True)
class SineBasis:
    """The orthonormal DST-I basis S2 = S (x) S of the unknowns of an n x n
    grid, stored row by row with x fastest.

    S2 diagonalises the 5-point Laplacian (and so the P1 stiffness on these
    meshes), so the diagonal of S2' A S2, the symbol of A, gives a
    preconditioner that is exact for it and spectrally equivalent (kappa
    about 2) for the P1 mass and the weighted operators.
    """

    n: int

    @cached_property
    def matrix(self) -> np.ndarray:
        """S[i, p] = sqrt(2/(n+1)) sin(pi (i+1)(p+1) / (n+1)); S = S' = S^-1."""
        i = np.arange(1, self.n + 1)
        scale = math.sqrt(2.0 / (self.n + 1))
        return scale * np.sin(np.pi * np.outer(i, i) / (self.n + 1))

    def symbol(self, a: SparseMatrix) -> np.ndarray:
        """diag(S2' A S2) as an n x n array indexed (y mode q, x mode p):
        the sum over entries of a_e S[ry,q] S[cy,q] S[rx,p] S[cx,p].

        Entries are first summed per (y pair, x pair) of row and column grid
        indices, so no ndof x ndof array is formed. The contractions use
        einsum rather than a BLAS product, which would start BLAS worker
        threads at moderate sizes.
        """
        n, s = self.n, self.matrix
        if a.dim != n * n:
            raise ValueError(f"operator of dimension {a.dim} is not on a {n}x{n} grid")
        ry, rx = np.divmod(a.rows.ravel(), n)
        cy, cx = np.divmod(a.cols.ravel(), n)
        ys, yi = _distinct_pairs(ry, cy, n)
        xs, xi = _distinct_pairs(rx, cx, n)
        pairs = np.bincount(yi * xs.size + xi, weights=a.vals.ravel(),
                            minlength=ys.size * xs.size).reshape(ys.size, xs.size)
        sy = s[ys // n] * s[ys % n]
        sx = s[xs // n] * s[xs % n]
        return np.einsum("aq,ap->qp", sy, np.einsum("ab,bp->ap", pairs, sx))

    def forward(self, u: np.ndarray) -> np.ndarray:
        """S2' u as an n x n array of mode coefficients indexed like a
        symbol: the product S U S of the grid values U (two n x n products)."""
        s = self.matrix
        return s @ u.reshape(self.n, self.n) @ s

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """S2 coeffs as grid values stored like u; S2 is its own inverse."""
        s = self.matrix
        return (s @ coeffs.reshape(self.n, self.n) @ s).ravel()

    def solver(self, symbol: np.ndarray) -> Preconditioner:
        """r -> S2 (S2' r / symbol): four n x n products per call."""
        inv = 1.0 / symbol

        def apply(r: np.ndarray) -> np.ndarray:
            return self.inverse(self.forward(r) * inv)

        return apply


def cg_solve(a, b: np.ndarray, precond: Preconditioner, rtol: float = 1e-12,
             x0: np.ndarray | None = None,
             r0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for an SPD SparseMatrix ``a``.

    ``precond`` maps a residual r to P^-1 r for an SPD P: the sine-basis
    solver of a grid operator's symbol (SineBasis.solver), or the identity
    for plain CG. A warm start ``x0`` is refined by at least one
    iteration even when it already meets ``rtol`` (an extrapolated guess
    left as it is would carry its error into the next step), unless its
    residual is exactly zero. ``r0`` is the residual b - a x0 of the warm
    start when the caller already has it; CG then starts without a product,
    as it does from a cold start, whose residual is b. Raises CgError on a
    non-finite right-hand side or residual, and when CG_ITERATIONS_PER_UNKNOWN
    iterations per unknown do not reach ``rtol``.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    if r0 is not None and x0 is None:
        raise ValueError("a starting residual needs its starting point x0")
    n = b.shape[0]
    if n != a.dim:
        raise ValueError(f"dimension mismatch: {n} != {a.dim}")
    bnorm = math.sqrt(b @ b)
    if not math.isfinite(bnorm):
        raise CgError(0, bnorm)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0)
    if x0 is None:
        x, r = np.zeros(n), b.astype(np.float64, copy=True)
    else:
        x = x0.astype(np.float64, copy=True)
        r = b - a.matvec(x) if r0 is None else r0.astype(np.float64, copy=True)
    res = math.sqrt(r @ r) / bnorm
    if res == 0.0 or (x0 is None and res <= rtol):
        return x, SolveReport(0, res)
    if not math.isfinite(res):
        raise CgError(0, res)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    max_iter = CG_ITERATIONS_PER_UNKNOWN * n
    for it in range(1, max_iter + 1):
        ap = a.matvec(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(r @ r) / bnorm
        if res <= rtol:
            return x, SolveReport(it, res)
        if not math.isfinite(res):
            raise CgError(it, res)
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise CgError(max_iter, res)


def smallest_generalized_eigenpair(k: SparseMatrix, m, precond: Preconditioner):
    """Inverse power iteration on the pencil (K, M) with M-normalization, to
    EIG_TOL in EIG_MAX_ITER iterations; ``precond`` is passed to the K-solves.

    Returns (lambda1, eigenvector, iterations); the eigenvector satisfies
    v' M v = 1.
    """
    def normalised(w):
        """w and M w scaled to w' M w = 1, and the Rayleigh quotient; the
        one product with M also gives the next right-hand side."""
        mw = m.matvec(w)
        norm = np.sqrt(w @ mw)
        w, mw = w / norm, mw / norm
        return w, mw, (w @ k.matvec(w)) / (w @ mw)

    v, mv, lam = normalised(np.ones(k.dim))
    for it in range(1, EIG_MAX_ITER + 1):
        w, _ = cg_solve(k, mv, x0=v / lam, precond=precond)
        v, mv, lam_new = normalised(w)
        converged = abs(lam_new - lam) <= EIG_TOL * abs(lam_new)
        lam = lam_new
        if converged:
            return lam, v, it
    raise EigError(f"inverse power iteration did not converge in {EIG_MAX_ITER} steps")
