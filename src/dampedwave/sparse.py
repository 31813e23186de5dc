"""Symmetric sparse matrices in fixed-width rows, a preconditioned CG solver,
the sine basis that preconditions grid operators (and diagonalises the finite
difference ones and the P1 stiffness, and the P1 mass up to one Kronecker
term), and inverse power iteration for the generalized eigenproblem
K v = lambda M v."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

Preconditioner = Callable[[np.ndarray], np.ndarray]  # r -> P^-1 r

CG_ITERATIONS_PER_UNKNOWN = 50  # cg_refine's iteration cap, per unknown
CG_RTOL = 1e-12  # the relative residual of a cg_solve
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
    """Sparse matrix in fixed-width rows, stored width-major: slot w of row i
    holds vals[w, i] in the column cols[w, i], padded with the row's own index
    and the value 0, so a row with no entries is an exact zero row. Assembled
    ones are symmetric. Width-major slots make each slot's gather and product
    one contiguous run over the rows."""

    cols: np.ndarray  # (width, dim) column indices
    vals: np.ndarray  # (width, dim) values

    @property
    def dim(self) -> int:
        return self.cols.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """Row index of every slot, a broadcast view shaped like cols."""
        return np.broadcast_to(np.arange(self.dim), self.cols.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {x.shape[0]} != {self.dim}")
        return np.einsum("wn,wn->n", self.vals, x[self.cols])

    def diagonal(self) -> np.ndarray:
        return np.where(self.cols == self.rows, self.vals, 0.0).sum(axis=0)

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
    return _fixed_width(keys[first[keep]], dim, vals[keep])


def from_diagonal(d: np.ndarray) -> SparseMatrix:
    d = np.array(d, dtype=np.float64)
    return SparseMatrix(np.arange(d.size)[None, :], d[None, :])


def _fixed_width(keys: np.ndarray, dim: int, values: np.ndarray) -> SparseMatrix:
    """The matrix with the entries ``values`` at the increasing keys
    row * dim + col."""
    rows = keys // dim
    counts = np.bincount(rows, minlength=dim)
    # the slots that hold an entry, row-major; a boolean index fills them row
    # by row, also through the transposed view of a width-major array
    filled = np.arange(counts.max(initial=0)) < counts[:, None]
    cols = np.repeat(np.arange(dim)[:, None], filled.shape[1], axis=1)
    cols[filled] = keys - rows * dim
    cols = np.ascontiguousarray(cols.T)
    vals = np.zeros(cols.shape)
    vals.T[filled] = values
    return SparseMatrix(cols, vals)


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
    about 2) for the P1 mass and the weighted operators. The P1 mass is its
    symbol plus (hx hy / 6) skew (x) skew in this basis (see skew).
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

    @cached_property
    def skew(self) -> np.ndarray:
        """S D S with D = (T - T')/2 the skew half of the shift T (ones above
        the diagonal). On a mesh whose cells are split lower-left to
        upper-right, the P1 mass couples the nodes along the cells' diagonals
        by (hx hy / 12)(T (x) T + T' (x) T'), which is
        (hx hy / 24)(T + T') (x) (T + T') + (hx hy / 6) D (x) D. S
        diagonalises T + T', so in S2 the mass is its symbol plus
        (hx hy / 6) skew (x) skew, and the stiffness is its symbol."""
        t = np.eye(self.n, k=1)
        return self.matrix @ (0.5 * (t - t.T)) @ self.matrix

    def skew_factor(self, kappa: float) -> np.ndarray:
        """F = sqrt(kappa) skew, so that skew_product(F, u) is
        kappa (skew (x) skew) u; raises ValueError unless kappa is
        nonnegative and finite (its square root would be NaN)."""
        if not 0.0 <= kappa < math.inf:  # also false for NaN
            raise ValueError(f"a skew term's kappa must be nonnegative and finite, "
                             f"not {kappa!r}")
        return math.sqrt(kappa) * self.skew

    def transform(self, u: np.ndarray) -> np.ndarray:
        """S2 u as a flat array: S U S for the grid values U (two n x n
        products, np.dot as in skew_product). S2 is symmetric and
        orthonormal, so this maps grid values to mode coefficients (indexed
        like a flattened symbol) and those back."""
        s = self.matrix
        return np.dot(np.dot(s, u.reshape(self.n, self.n)), s).ravel()

    def solver(self, symbol: np.ndarray) -> Preconditioner:
        """r -> S2 (S2 r / symbol), flattened or not: four n x n products."""
        inv = 1.0 / np.ravel(symbol)

        def apply(r: np.ndarray) -> np.ndarray:
            return self.transform(self.transform(r) * inv)

        return apply


def skew_product(factor: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(F (x) F) u for flat sine-basis coefficients u of an n x n grid and
    an n x n F: F U F' flattened, two n x n products (ndarray.dot, which is
    faster than @ or np.dot at these sizes). With
    F = SineBasis.skew_factor(kappa) it is kappa (skew (x) skew) u, with no
    multiply by kappa."""
    return factor.dot(u.reshape(factor.shape)).dot(factor.T).ravel()


@dataclass(frozen=True)
class SkewSymbolOperator:
    """v -> symbol * v + kappa (skew (x) skew) v + S2 W S2 v on the
    coefficients v of a SineBasis, with W the sum of the grid operators
    ``weighted``: a sum of unweighted P1 or finite difference operators in
    that basis, plus spatially weighted ones, applied on grid values. The
    skew term is applied through ``factor``, sqrt(kappa) skew, built once,
    and skipped when kappa is 0; a kappa that is negative or not finite
    raises ValueError."""

    basis: SineBasis
    symbol: np.ndarray  # flat, one value per mode
    kappa: float
    weighted: tuple[SparseMatrix, ...] = ()
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factor", self.basis.skew_factor(self.kappa))

    @property
    def dim(self) -> int:
        return self.symbol.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.symbol * v
        if self.kappa:
            y += skew_product(self.factor, v)
        if self.weighted:
            grid = self.basis.transform(v)
            w = self.weighted[0].matvec(grid)
            for op in self.weighted[1:]:
                w += op.matvec(grid)
            y += self.basis.transform(w)
        return y


def cg_solve(a, b: np.ndarray, precond: Preconditioner) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for an SPD operator ``a`` (any
    object with ``dim`` and ``matvec``, such as a SparseMatrix or a
    SkewSymbolOperator), from x = 0 to the relative residual CG_RTOL.

    ``precond`` maps a residual r to P^-1 r for an SPD P: the sine-basis
    solver of a grid operator's symbol (SineBasis.solver), the
    multiplication of sine-basis coefficients by that symbol's reciprocal,
    or the identity for plain CG.
    Checks the dimension and runs cg_refine from the cold start (residual b).
    """
    n = b.shape[0]
    if n != a.dim:
        raise ValueError(f"dimension mismatch: {n} != {a.dim}")
    x, r = np.zeros(n), b.astype(np.float64, copy=True)
    iterations, residual = cg_refine(a, b, x, r, precond, CG_RTOL)
    return x, SolveReport(iterations, residual)


def cg_refine(a, b: np.ndarray, x: np.ndarray, r: np.ndarray, precond: Preconditioner,
              rtol: float) -> tuple[int, float]:
    """The one CG iteration loop, in place: refines ``x``, whose
    residual b - a x is ``r``, and ``r`` with it, until the relative
    residual |r| / |b| is at most ``rtol``; returns (iterations, that
    residual). No argument is checked.

    A zero ``b`` sets x and r to zero (0 iterations, residual 0). A start
    is refined by at least one iteration even when it already meets
    ``rtol`` (an extrapolated guess left as it is would carry its error
    into the next step), unless its residual is exactly zero. Raises
    CgError on a non-finite right-hand side or residual, and when
    CG_ITERATIONS_PER_UNKNOWN iterations per unknown do not reach ``rtol``.
    """
    # ndarray.dot: on a few hundred entries @ costs about twice as much
    bnorm = math.sqrt(b.dot(b))
    if not math.isfinite(bnorm):
        raise CgError(0, bnorm)
    if bnorm == 0.0:
        x[:] = r[:] = 0.0
        return 0, 0.0
    res = math.sqrt(r.dot(r)) / bnorm
    if res == 0.0:
        return 0, res
    if not math.isfinite(res):
        raise CgError(0, res)
    z = precond(r)
    p = z.copy() if z is r else z  # r -= updates r, which p must not follow
    rz = r.dot(z)
    max_iter = CG_ITERATIONS_PER_UNKNOWN * b.shape[0]
    for it in range(1, max_iter + 1):
        ap = a.matvec(p)
        alpha = rz / p.dot(ap)
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(r.dot(r)) / bnorm
        if res <= rtol:
            return it, res
        if not math.isfinite(res):
            raise CgError(it, res)
        z = precond(r)
        rz_new = r.dot(z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise CgError(max_iter, res)


def smallest_generalized_eigenpair(k: SparseMatrix, m, solve: Preconditioner):
    """Inverse power iteration on the pencil (K, M) with M-normalization, to
    EIG_TOL in EIG_MAX_ITER iterations; ``solve`` maps b to K^-1 b.

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
        v, mv, lam_new = normalised(solve(mv))
        converged = abs(lam_new - lam) <= EIG_TOL * abs(lam_new)
        lam = lam_new
        if converged:
            return lam, v, it
    raise EigError(f"inverse power iteration did not converge in {EIG_MAX_ITER} steps")
