"""Signal priors and the consistency functions they induce.

A consistency function maps a noisy latent straight to a clean estimate:
``f(x_t, y, t) -> x_hat``.  The measurement ``y`` may be ignored
(unconditional denoising) or folded in through exact Gaussian
conditioning.  For a Gaussian prior both variants are available in
closed form, which makes the prior usable as a ground-truth reference
for the samplers; the empirical prior gives the same interface over a
finite atom set.

Latents follow the variance-exploding convention x_t = x + t * z with
z ~ N(0, I), so as t -> 0 every denoiser here approaches the identity
on x_t (the fixed-point boundary of a consistency function).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Protocol

import numpy as np

from . import kernels
from .operators import LinearOperator


# Largest dimension n a pipeline conditions a Gaussian prior on the
# measurement for.  No operator is materialised, but the closure keeps
# per-block gains and factors, about n^2 / 4 floats on a square grid that
# commutes with the transpose and n^2 / 2 otherwise; its build peaks at
# about 0.7 n x n float64 arrays for a square blur or centred-square
# inpainting (1.0 on other grids, and about 5 for a problem that conditions
# through the identity split, such as an off-centre mask), and the per-block
# factorisations grow as n^3: a 64 x 64 deblur (n = 4096, sigma_y = 0.05)
# ran the CLI sample stage of 8 images in 0.95-0.99 s at a peak resident
# size of about 131 MiB (1.2-1.4 s with every gram factored by eigh), and
# 128 x 128 would need more than 1 GiB and about 64 times the
# factorisation work.
MAX_CONDITIONED_N = 64 * 64
# A dense covariance may have eigenvalues below 0 by round-off; one below
# -COVARIANCE_RTOL times its largest is refused as indefinite.
COVARIANCE_RTOL = 1e-8


class ConsistencyFn(Protocol):
    def __call__(self, x_t: np.ndarray, y: np.ndarray | None, t: float) -> np.ndarray:
        ...


def _check_t(t: float) -> float:
    t = float(t)
    if not t > 0.0 or not np.isfinite(t):
        raise ValueError(f"noise level t must be positive and finite, got {t}")
    return t


def _basis_product(x: np.ndarray, axes: tuple[np.ndarray, ...], transpose: bool) -> np.ndarray:
    """x Q, or x Q^T when transpose, for the rows of x.

    ``axes`` gives the orthonormal Q: ``(Q,)`` a dense Q, and ``(Q_h, Q_w)``
    stands for Q = I_c (x) Q_h (x) Q_w, applied one image axis at a time and
    never formed.
    """
    if len(axes) == 1:
        vecs = axes[0]
        return x @ (vecs.T if transpose else vecs)
    # row-major pixels (channel, row, col): x Q = Q_h^T X Q_w per channel
    # image X, and z Q^T = Q_h Z Q_w^T
    q_h, q_w = axes
    left, right = (q_h, q_w.T) if transpose else (q_h.T, q_w)
    return (left @ x.reshape(-1, len(q_h), len(q_w)) @ right).reshape(x.shape)


@dataclass(frozen=True)
class EigenFactor:
    """Sigma = Q diag(lam) Q^T with lam >= 0.

    ``axes`` is ``(Q,)`` for a dense factor, or ``(Q_h, Q_w)`` for a
    covariance that is separable over the image axes, where
    Q = I_c (x) Q_h (x) Q_w is applied one axis at a time and never formed.
    """

    lam: np.ndarray
    axes: tuple[np.ndarray, ...]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """x Q: a vector or the rows of a stack, in the eigenbasis."""
        return _basis_product(x, self.axes, transpose=False)

    def expand(self, z: np.ndarray) -> np.ndarray:
        """z Q^T: eigenbasis coordinates back to pixels."""
        return _basis_product(z, self.axes, transpose=True)

    def matrix(self, weights: np.ndarray) -> np.ndarray:
        """Q diag(weights) Q^T as a dense symmetric matrix."""
        if len(self.axes) == 1:
            vecs = self.axes[0]
            out = (vecs * weights) @ vecs.T
        else:
            out = self.expand(self.expand(np.diag(weights)).T)
        return (out + out.T) / 2.0


def _check_factor(factor: EigenFactor, n: int) -> None:
    """Raise unless factor has n eigenvalues, each finite and >= 0, and
    square axis blocks that tile n."""
    sides = [q.shape for q in factor.axes]
    if (factor.lam.shape != (n,) or len(sides) not in (1, 2)
            or any(len(q) != 2 or q[0] != q[1] for q in sides)
            or n % math.prod(q[0] for q in sides)):
        raise ValueError("factor does not match the prior's dimension")
    if not np.all(np.isfinite(factor.lam) & (factor.lam >= 0.0)):
        raise ValueError("factor eigenvalues must be finite and >= 0")


def _eigen_factor(cov: np.ndarray) -> EigenFactor:
    """Dense factor of a PSD matrix by one eigh, lam clamped at 0."""
    lam, vecs = np.linalg.eigh(cov)
    return EigenFactor(np.maximum(lam, 0.0), (vecs,))


def _shrink_weights(lam: np.ndarray, t: float) -> np.ndarray:
    """lam / (lam + t^2), exactly 0 where lam = 0 (also when t^2 underflows to 0)."""
    return np.divide(lam, lam + t * t, out=np.zeros_like(lam), where=lam > 0.0)


def _denoise(mean: np.ndarray, factor: EigenFactor, x_t: np.ndarray, t: float) -> np.ndarray:
    """E[x | x_t] = mean + Q diag(lam/(lam+t^2)) Q^T (x_t - mean)."""
    t = _check_t(t)
    x_t = np.asarray(x_t, dtype=np.float64)
    resid = (x_t - mean).reshape(-1, factor.lam.size)
    out = mean + factor.expand(factor.coords(resid) * _shrink_weights(factor.lam, t))
    return out.reshape(x_t.shape)


def _denoise_cov(factor: EigenFactor, t: float) -> np.ndarray:
    """Var[x | x_t] = Q diag(lam (1 - lam/(lam+t^2))) Q^T, finite also at t^2 = inf."""
    lam = factor.lam
    return factor.matrix(lam * (1.0 - _shrink_weights(lam, _check_t(t))))


def _finite_or_raise(array: np.ndarray, sigma_y: float) -> np.ndarray:
    if not np.all(np.isfinite(array)):
        raise ValueError(
            f"conditioning on the measurement with sigma_y = {sigma_y:g} gave "
            "non-finite values; check the operator and the measurement noise level"
        )
    return array


def _axis_parity(size: int) -> np.ndarray:
    """The even/odd basis of one image axis, unscaled: as columns, the pair
    sums e_i + e_{size-1-i} for i < size // 2, then the centre line e_i,
    i = size // 2, of an odd axis, then the pair differences
    e_i - e_{size-1-i}; the even columns come first.  Its entries are 0 and
    +-1, and its columns are orthogonal, with a squared norm of 2 on a pair
    and 1 on the centre line."""
    eye, half = np.eye(size), size // 2
    mirror = eye[:, ::-1][:, :half]  # column i is e_{size-1-i}
    return np.hstack([eye[:, :half] + mirror, eye[:, half:size - half], eye[:, :half] - mirror])


def _axis_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B_0^T x and B_1^T x for the even and the odd basis B_0, B_1 of the
    image axis that x's first dimension runs over (``_axis_parity``, its
    columns scaled to unit length)."""
    p = _axis_parity(len(x))
    parts = (p * np.sqrt(1.0 / (p * p).sum(axis=0))).T @ x
    even = len(x) - len(x) // 2
    return parts[:even], parts[even:]


@lru_cache(maxsize=None)
def _triangle(side: int, strict: bool) -> tuple:
    """Rows a, columns b and scales of the upper triangle of a side x side
    grid, row-major: 1/2 on the diagonal, which a symmetric sum doubles, and
    sqrt(1/2) off it; without the diagonal when strict."""
    a, b = np.triu_indices(side, int(strict))
    out = a, b, np.where(a == b, 0.5, math.sqrt(0.5))
    for array in out:  # shared by every caller
        array.setflags(write=False)
    return out


# How a block is cut from its parity quadrant (``_ParityBlocks.pieces``): the
# whole quadrant, the half that the transpose keeps (sign +1) or negates
# (sign -1), or the quadrant transposed.
_WHOLE, _KEPT, _NEGATED, _TRANSPOSED = 0, 1, -1, 2


def _flat(part: np.ndarray, lead: tuple) -> np.ndarray:
    """part with its axes after ``lead`` made one."""
    return part.reshape(lead + (math.prod(part.shape[len(lead):]),))


def _piece(images: np.ndarray, how: int) -> np.ndarray:
    """A block's coordinates, cut by ``how`` from the coordinate images
    (..., c, a, b) of its quadrant; shape (..., count).  A half of square
    images u is (u_ab + sign u_ba)/sqrt(2) over a < b, and u_aa on the kept
    half's diagonal, read row-major over the upper triangle."""
    lead = images.shape[:-3]
    if how == _TRANSPOSED:
        images = images.swapaxes(-1, -2)
    elif how != _WHOLE:
        a, b, scale = _triangle(images.shape[-1], how == _NEGATED)
        images = (images[..., a, b] + how * images[..., b, a]) * scale
    return _flat(images, lead)


def _unpiece(coords: np.ndarray, how: int, shape: tuple) -> np.ndarray:
    """The transpose of ``_piece``: the quadrant images, of the given shape
    (..., c, a, b), of a block's coordinates (a view where it can be)."""
    if how == _WHOLE:
        return coords.reshape(shape)
    if how == _TRANSPOSED:
        return coords.reshape(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
    images = np.zeros(shape)
    a, b, scale = _triangle(shape[-1], how == _NEGATED)
    coords = coords.reshape(shape[:-2] + (len(a),)) * scale
    images[..., a, b] += coords
    images[..., b, a] += how * coords
    return images


def _both_sides(matrix: np.ndarray, how: int, images: tuple) -> np.ndarray:
    """P^T M P for the block P cut by ``how`` from a quadrant whose
    coordinates are the images ``images`` (c, a, b): M's rows are cut, then
    the rows of the result's transpose."""
    if how == _WHOLE:
        return matrix
    rows = _piece(matrix.reshape((-1,) + images), how)  # M P
    return _piece(rows.T.reshape((-1,) + images), how)


class _ParityBlocks:
    """An orthonormal basis of R^n for a (c, h, w) grid, split into the
    blocks in which a matrix that commutes with the row and the column flip
    is block diagonal (Cantoni & Butler, Linear Algebra Appl. 13, 1976).

    The basis is I_c (x) P_h D_h (x) P_w D_w, with P the even/odd basis of
    each image axis (``_axis_parity``) and D scaling its columns to unit
    length.  So a row's coordinates are the channel images P_h^T X P_w
    (``_basis_product``), each entry times 1/2 where both axes give a pair,
    sqrt(1/2) where one does and 1 where both give a centre line; as P
    holds only 0 and +-1, an identity row's coordinates are exact on an
    even grid.  The coordinate images fall into four quadrants, ee, eo, oe
    and oo: quadrant q is odd by rows where q & 2 and by columns where
    q & 1, and is read row-major.  Coordinate (c, a, b) of a quadrant
    stands for pixel (c, a, b) and its mirror images, of which it is the
    first.  ``axis_parts`` gives a quadrant's factor per image axis
    (``_axis_parts``).

    Block k is one piece of one quadrant, ``pieces[k] = (quadrant, how)``,
    cut by ``_piece``; ``split``, ``merge`` and every block of Sigma and A
    in ``GaussianPrior._parity_split`` go through that one pair of cuts.
    Without ``square`` each block is a whole quadrant, in order.  With
    ``square`` the grid is (c, s, s) and is split once more by the
    transpose T of every channel image, which swaps the row and the column
    flip: together they make the symmetry group D4 of the square (Fassler &
    Stiefel, Group Theoretical Methods and Their Applications, 1992).  As
    P_h is P_w, T transposes each coordinate image.  So ee and oo each
    split into the half that T keeps and the half that it negates, and
    block oe is its quadrant transposed: the coordinates of T applied to
    eo's, in eo's order.  A matrix that commutes with T then has equal
    blocks in eo and oe, and ``shared`` names oe as taking eo's.  The six
    blocks run ee+, ee-, eo, oe, oo+, oo-.

    With ``identity`` each axis basis is the identity, all even, with a
    scale of 1: the identity split, which states the unsplit problem as
    block ee, the whole grid, beside three empty blocks.  Its coordinates
    are the pixels, bit for bit but for the sign of a zero.

    ``split`` is the way in; ``merge`` and ``expand`` are its transpose.
    """

    def __init__(self, shape, square: bool = False, identity: bool = False):
        self.shape, self.size = tuple(shape), math.prod(shape)
        sides = self.shape[1:]
        self.axes = tuple(np.eye(size) if identity else _axis_parity(size) for size in sides)
        self.scale = np.sqrt(1.0 / np.outer(*((p * p).sum(axis=0) for p in self.axes)))
        self.axis_parts = (lambda x: (x, x[:0])) if identity else _axis_parts
        evens = [size if identity else size - size // 2 for size in sides]
        rows, cols = ((slice(0, even), slice(even, size)) for even, size in zip(evens, sides))
        self.quadrants = [(rows[q >> 1], cols[q & 1]) for q in range(4)]
        self.pieces, self.shared = (
            ([(0, _KEPT), (0, _NEGATED), (1, _WHOLE), (2, _TRANSPOSED), (3, _KEPT),
              (3, _NEGATED)], {3: 2}) if square else ([(q, _WHOLE) for q in range(4)], {}))
        self.sizes = [part.shape[-1] for part in self.split(np.zeros(self.size))]

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks' coordinates of the rows of x."""
        z = _basis_product(x, self.axes, transpose=False).reshape(x.shape[:-1] + self.shape)
        z *= self.scale
        return [_piece(z[(..., *self.quadrants[q])], how) for q, how in self.pieces]

    def merge(self, parts: dict) -> np.ndarray:
        """Coordinates back to rows: x = sum_k parts[k] B_k^T over the blocks
        k in ``parts``; a block left out counts as zero."""
        lead = next(iter(parts.values())).shape[:-1]
        z = np.zeros(lead + self.shape)
        for k, part in parts.items():
            q, how = self.pieces[k]
            view = z[(..., *self.quadrants[q])]
            view += _unpiece(part, how, view.shape)
        z *= self.scale
        return _basis_product(z.reshape(lead + (self.size,)), self.axes, transpose=True)

    def expand(self, blocks: dict) -> np.ndarray:
        """sum_k B_k blocks[k] B_k^T over the blocks k given, as one dense
        matrix."""
        half = {k: self.merge({k: block.T}) for k, block in blocks.items()}  # (B_k M_k)^T
        return self.merge({k: rows.T for k, rows in half.items()})


def _flip_invariant(m: np.ndarray) -> bool:
    """F' M == M F bit for bit, for the flips F of M's columns and F' of its
    rows (each axis reversed): the flip check of one axis factor."""
    return np.array_equal(m[::-1, ::-1], m)


def _selection_split(signal: _ParityBlocks, kept: np.ndarray, picks: list, y: np.ndarray) -> list:
    """The blocks' coordinates of the rows of y for a selection y = x[kept]
    that commutes with the flips: the signal's split of y zero-filled at
    kept, at the coordinates ``picks`` of each block whose pixels are kept."""
    full = np.zeros(y.shape[:-1] + (signal.size,))
    full[..., kept] = y
    return [part[..., pick] for part, pick in zip(signal.split(full), picks)]


def _axis_blocks(m: np.ndarray, parts) -> tuple:
    """B'_p^T M B_p of one axis factor M for each of its parts p by ``parts``
    (``axis_parts``: the even and the odd part, or M whole and nothing), B'
    the bases of M's row axis and B those of its column axis.  The
    cross-parity parts are zero when M commutes with the flips."""
    return tuple(parts(left.T)[p].T for p, left in enumerate(parts(m)))


def _kron_entries(grid: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """The entries of (R_h (x) R_w) diag(lam_c) (C_h (x) C_w)^T for every
    channel image lam_c of ``grid`` (c, h, w), by two contractions over the
    image axes; ``rows`` is (R_h, R_w) and ``cols`` is (C_h, C_w).  Shape
    (c, a p, b q) for R_h (a, h), R_w (b, w), C_h (p, h) and C_w (q, w):
    the axes are not yet in the block's order (``_kron_block``)."""
    (r_h, r_w), (c_h, c_w) = rows, cols
    left = (r_h[:, None, :] * c_h[None, :, :]).reshape(-1, grid.shape[1]) @ grid
    return left @ (r_w[:, None, :] * c_w[None, :, :]).reshape(-1, grid.shape[2]).T


def _kron_block(grid: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """(R_h (x) R_w) diag(lam_c) (C_h (x) C_w)^T per channel, shape (c, a b, p q)."""
    (r_h, r_w), (c_h, c_w) = rows, cols
    a, b, p, q = r_h.shape[0], r_w.shape[0], c_h.shape[0], c_w.shape[0]
    out = _kron_entries(grid, rows, cols)
    return out.reshape(-1, a, p, b, q).transpose(0, 1, 3, 2, 4).reshape(-1, a * b, p * q)


def _channel_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (c k, c k) block-diagonal matrix of c blocks of (k, k)."""
    c, k, _ = blocks.shape
    out = np.zeros((c * k, c * k))
    for ch in range(c):
        out[ch * k:(ch + 1) * k, ch * k:(ch + 1) * k] = blocks[ch]
    return out


def _separable_rows(channels: int, left: np.ndarray, right: np.ndarray, how: int):
    """x -> x A^T on the rows of x, for the block A of a quadrant map
    I_c (x) L (x) R cut by ``how`` (``_piece``) on both sides: each row, put
    back into c images X of (L's columns, R's columns) (``_unpiece``),
    becomes the c images L X R^T, cut the same way.  A is never formed."""

    def apply(x):
        images = _unpiece(x, how, (len(x), channels, left.shape[1], right.shape[1]))
        return _piece(left @ images @ right.T, how)

    return apply


def _measurement_gram(cov, a_rows, sigma_y):
    """Sigma A^T and A Sigma A^T + sigma_y^2 I for one block, with ``a_rows``
    the map x -> x A^T.  Sigma is symmetric, so Sigma A^T is A applied to its
    rows, and A Sigma A^T is A applied to the rows of (Sigma A^T)^T,
    transposed."""
    sig_at = a_rows(cov)
    gram = a_rows(sig_at.T).T
    gram[np.diag_indices_from(gram)] += sigma_y * sigma_y
    return sig_at, _finite_or_raise(gram, sigma_y)


# Blocks of at most this many rows are inverted by one np.linalg.inv in
# ``_lower_inverse``; numpy has no triangular solve.
_TRIANGLE_LEAF = 48


def _lower_inverse(low):
    """L^-1 of a lower-triangular L, by halves: the inverse of
    [[L_11, 0], [L_21, L_22]] is [[L_11^-1, 0], [-L_22^-1 L_21 L_11^-1, L_22^-1]],
    so the work is two half-size inverses and two products."""
    size = len(low)
    if size <= _TRIANGLE_LEAF:
        return np.linalg.inv(low)
    half = size // 2
    out = np.zeros_like(low)
    top = out[:half, :half] = _lower_inverse(low[:half, :half])
    bottom = out[half:, half:] = _lower_inverse(low[half:, half:])
    out[half:, :half] = -(bottom @ (low[half:, :half] @ top))
    return out


def _whitenings(grams, sigma_y, precision):
    """For each gram G in turn, a W with W^T G W = I on the directions that
    it keeps, each made as it is drawn; ``grams`` is emptied.

    Every eigenvalue of G is at least sigma_y^2, and none exceeds the
    largest absolute row sum over the grams.  So when sigma_y^2 is above
    ``precision`` times that sum, the drop rule can remove nothing, and
    W = L^-T from the Cholesky factor G = L L^T.  Otherwise, or when a gram
    has no Cholesky factor at working precision, W = V diag(lam)^-1/2 over
    the eigenpairs of G whose lam exceeds ``precision`` times the largest
    over all grams (``_eigh_whitening``)."""
    bound = max((np.abs(gram).sum(axis=1).max(initial=0.0) for gram in grams), default=0.0)
    if sigma_y * sigma_y > bound * precision:
        try:
            lows = [np.linalg.cholesky(gram) for gram in grams]
        except np.linalg.LinAlgError:
            pass
        else:
            grams.clear()
            while lows:
                yield _lower_inverse(lows.pop(0)).T
            return
    # each gram is released once it is decomposed
    stages = [np.linalg.eigh(grams.pop(0)) for _ in range(len(grams))]
    floor = precision * max((lam[-1] for lam, _ in stages if lam.size), default=0.0)
    while stages:
        yield _eigh_whitening(*stages.pop(0), floor)


def _eigh_whitening(lam, vecs, floor):
    """V diag(lam)^-1/2 over the eigenpairs whose lam exceeds floor, made
    in V's array when every pair is kept and else in its kept columns."""
    keep = lam > floor
    if not keep.all():
        lam, vecs = lam[keep], vecs[:, keep]
    vecs /= np.sqrt(lam)
    return vecs


def _posterior(cov, sig_at, w):
    """Gain and Sigma_y of one block from a whitening W of its gram:
    root = Sigma A^T W, Sigma_y = Sigma - root root^T and K = root W^T.
    The block of Sigma, ``cov``, is overwritten with Sigma_y's."""
    root = sig_at @ w
    cov -= root @ root.T
    cov += cov.T
    cov *= 0.5
    return root @ w.T, cov


class GaussianPrior:
    """x ~ N(mean, Sigma); every conditional is available exactly.

    Sigma is given in one form.  A dense ``covariance`` must be finite,
    symmetric, and positive semidefinite up to round-off: its smallest
    eigenvalue may fall below 0 by at most ``COVARIANCE_RTOL`` (1e-8) times
    its largest, and it is factored by one eigh at construction, with the
    eigenvalues clamped at 0.  An ``EigenFactor`` (``factor``, as
    ``rbf_prior`` builds it) is used as given.  Either way ``factor`` is
    the prior's only form, and ``covariance`` is Q diag(lam) Q^T, formed
    once when first read.  Nothing here reads it for a per-axis factor:
    conditioning on a measurement builds Sigma's blocks from the factor.

    Conditioning on a measurement (``measurement_consistency``,
    ``posterior``) takes a ``LinearOperator``; wrap a bare matrix in
    ``DenseOperator``.
    """

    def __init__(self, mean, covariance: np.ndarray | None = None,
                 factor: EigenFactor | None = None):
        if (covariance is None) == (factor is None):
            raise ValueError("GaussianPrior takes either covariance= or factor=, "
                             "not both or neither")
        mu = np.ascontiguousarray(mean, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("prior mean must be a vector")
        self.mean = mu
        if factor is not None:
            _check_factor(factor, mu.size)
            self.factor = factor
            return
        cov = np.ascontiguousarray(covariance, dtype=np.float64)
        if cov.shape != (mu.size, mu.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match dimension {mu.size}"
            )
        if not np.isfinite(cov).all():
            raise ValueError("covariance entries must be finite")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        lam, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        if lam.size and lam[0] < -COVARIANCE_RTOL * max(lam[-1], 0.0):
            raise ValueError(f"covariance is indefinite: eigenvalue {lam[0]:.3g} against "
                             f"a largest of {lam[-1]:.3g}")
        self.factor = EigenFactor(np.maximum(lam, 0.0), (vecs,))

    @property
    def n(self) -> int:
        return self.mean.size

    @cached_property
    def covariance(self) -> np.ndarray:
        """Dense Sigma = Q diag(lam) Q^T, built on first read."""
        return self.factor.matrix(self.factor.lam)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """mean + (z * sqrt(lam)) Q^T with z ~ N(0, I): shape (n,) or (size, n)."""
        factor = self.factor
        z = rng.standard_normal(self.n if size is None else (size, self.n))
        return self.mean + factor.expand(z * np.sqrt(factor.lam))

    # --- conditioning on the latent alone -------------------------------
    def denoise(self, x_t: np.ndarray, t: float) -> np.ndarray:
        """E[x | x_t] = mean + Sigma (Sigma + t^2 I)^-1 (x_t - mean)."""
        return _denoise(self.mean, self.factor, x_t, t)

    def denoise_cov(self, t: float) -> np.ndarray:
        """Var[x | x_t] = t^2 Sigma (Sigma + t^2 I)^-1 (independent of x_t)."""
        return _denoise_cov(self.factor, t)

    # --- conditioning on the measurement --------------------------------
    def _covariance_blocks(self, signal) -> tuple:
        """Sigma's diagonal blocks B_k^T Sigma B_k in the blocks of ``signal``
        (``_ParityBlocks``, of the parity or the identity split), by block
        index k, with the empty blocks and those that ``signal.shared`` gives
        another's left out; and Sigma's largest entry between two quadrants
        relative to its largest entry.

        A factor-form prior (``rbf_prior``) on the signal's grid gives a
        quadrant's block as (R_h (x) R_w) diag(lam) (R_h (x) R_w)^T with
        R = B^T Q per image axis (``axis_parts``), so Sigma is never formed.
        Only the quadrants of the blocks returned are built; block k is its
        piece of its quadrant's block taken on both sides (``_both_sides``),
        symmetrised once: on a square grid the halves of ee and oo come
        straight from their quadrants, and oe's is never built.  Any other
        prior's dense covariance is split on both sides: ``split`` of its
        rows gives Sigma B_l, and as Sigma is symmetric, ``split`` of
        (Sigma B_k)^T gives B_k^T Sigma B_l.  Sigma is PSD, so its largest
        entry is on its diagonal.
        """
        # an axis of length 1 has no odd part
        kept = [k for k, size in enumerate(signal.sizes) if size]
        built = {k: signal.pieces[k] for k in kept if k not in signal.shared}
        axes = self.factor.axes
        sides = tuple(len(q) for q in axes)
        if len(axes) == 2 and signal.shape[1:] == sides:
            r_h, r_w = (signal.axis_parts(q) for q in axes)
            # R of quadrant q, which is odd by rows if q & 2
            rs = [(r_h[q >> 1], r_w[q & 1]) for q in range(len(r_h) * len(r_w))]
            grid = self.factor.lam.reshape((-1,) + sides)
            quads = {q: _channel_diagonal(_kron_block(grid, rs[q], rs[q]))
                     for q in {q for q, _ in built.values()}}
            blocks = {k: _both_sides(quads[q], how, (len(grid), len(rs[q][0]), len(rs[q][1])))
                      for k, (q, how) in built.items()}
            quadrants = sorted({signal.pieces[k][0] for k in kept})
            off = [np.abs(_kron_entries(grid, rs[q], rs[p])).max()
                   for q in quadrants for p in quadrants if q < p]
            top = ((axes[0] ** 2) @ grid @ (axes[1] ** 2).T).max()
        else:
            cov = self.covariance
            half = signal.split(cov)
            parts = {k: signal.split(half[k].T) for k in built}
            blocks = {k: part[k] for k, part in parts.items()}
            off = [np.abs(part[l]).max() for k, part in parts.items() for l in kept if l != k]
            top = cov.diagonal().max()
        blocks = {k: (block + block.T) / 2.0 for k, block in blocks.items()}
        return blocks, max(off, default=0.0) / top if top > 0.0 else 0.0

    def _transpose_symmetric(self, side: int) -> bool:
        """Sigma = T Sigma T bit for bit, for the transpose T of every
        (side, side) channel image: a per-axis factor whose Q_h equals Q_w,
        with side pixels per axis, and a lam grid equal to its transpose.
        A dense covariance is not checked."""
        axes = self.factor.axes
        if len(axes) != 2 or len(axes[0]) != side or not np.array_equal(*axes):
            return False
        grid = self.factor.lam.reshape(-1, side, side)
        return np.array_equal(grid, grid.transpose(0, 2, 1))

    def _parity_split(self, operator: LinearOperator) -> tuple:
        """(signal blocks, the measurement's split, Sigma's diagonal blocks,
        A's diagonal blocks) to condition in, both by block index k; the
        split maps rows of measurements to their blocks' coordinates, and
        A's block A_k is given as the map x -> x A_k^T on rows.

        The four parity blocks of the signal grid (``_ParityBlocks``) when
        the split is exact: A commutes with both flips bit for bit, and
        Sigma to rounding (1e-12 of its largest entry), so that dropping its
        off-block entries is a rounding-level projection like its
        symmetrisation.  Otherwise the identity split, on a per-axis
        factor's own grid (Sigma's block then comes from the factor), else
        on n channels of one pixel; each route below serves either split.

        A is never materialised.  A separable operator,
        A = I_c (x) M_h (x) M_w (``axis_matrices``), commutes with the flips
        exactly when each axis factor does (``_flip_invariant``), as the
        product is exact.  Its measurement grid is then split as the signal
        grid is, and quadrant q is I_c (x) M_h^p (x) M_w^r, with
        M^p = B'_p^T M B_p per axis and p = q >> 1 for the rows, r = q & 1
        for the columns, applied one axis at a time; block k is its piece of
        that map on both sides (``_separable_rows``).  A square problem
        splits into the six blocks of a square ``_ParityBlocks`` when both
        Sigma and A commute with the grid's transpose bit for bit: a
        separable operator with M_h equal to M_w, and a per-axis factor of
        Sigma with Q_h equal to Q_w and a lam grid equal to its transpose
        (``_transpose_symmetric``).  Sigma's entries between the two halves
        of ee or oo are then rounding, and block oe, which takes eo's gain
        and factor, is left out: neither its Sigma block nor its map of A is
        built.

        A selection, A x = x[kept] (``selection``), commutes with the flips
        exactly when its grid of kept pixels equals both of its flips.  A
        block coordinate then sees either kept pixels alone or none, so
        block k of A is a selection too, of the coordinates ``picks[k]``
        whose pixels are kept; the measurement's block coordinates are the
        signal's of y zero-filled at kept, at those coordinates
        (``_selection_split``).  Any other operator (``DenseOperator``)
        takes the identity split, y as m channels of one pixel and A's block
        mapped by ``apply``.
        """
        axes, kept, shape = operator.axis_matrices(), operator.selection(), operator.signal_shape
        split = square = False
        if axes is not None:
            split = all(_flip_invariant(m) for m in axes)
            square = split and np.array_equal(*axes) and self._transpose_symmetric(shape[2])
        elif kept is not None:
            grid = np.zeros(operator.n, dtype=bool)
            grid[kept] = True
            grid = grid.reshape(shape)
            split = np.array_equal(grid, grid[:, ::-1]) and np.array_equal(grid, grid[:, :, ::-1])
        if split:
            signal = _ParityBlocks(shape, square)
            covs, gap = self._covariance_blocks(signal)
            split = gap <= 1e-12
        if not split:
            sides = tuple(map(len, self.factor.axes)) if len(self.factor.axes) == 2 else (1, 1)
            signal = _ParityBlocks((self.n // math.prod(sides),) + sides, identity=True)
            covs, _ = self._covariance_blocks(signal)
        if kept is not None and axes is None:
            # a selection's blocks are whole quadrants (it has no transpose split),
            # and coordinate (c, a, b) of a quadrant stands for pixel (c, a, b)
            image = grid.reshape(signal.shape)
            picks = [np.flatnonzero(image[:, :rows.stop - rows.start, :cols.stop - cols.start])
                     for rows, cols in signal.quadrants]
            return (signal, partial(_selection_split, signal, kept, picks), covs,
                    {k: partial(np.take, indices=picks[k], axis=-1) for k in covs})
        measurement = _ParityBlocks(operator.measurement_shape or (operator.m, 1, 1),
                                    square and split, identity=not split)
        if axes is None:
            return signal, measurement.split, covs, {0: operator.apply}
        h, w = (_axis_blocks(m, signal.axis_parts) for m in axes)
        return signal, measurement.split, covs, {
            k: _separable_rows(shape[0], h[q >> 1], w[q & 1], how)
            for k, (q, how) in enumerate(signal.pieces) if k in covs}

    def _condition_on_measurement(self, operator: LinearOperator, sigma_y: float) -> "_Conditioned":
        """x | y for y = A x + sigma_y * noise, block by block.

        K_y = Sigma A^T (A Sigma A^T + sigma_y^2 I)^+ and
        Sigma_y = Sigma - K_y A Sigma depend on neither t nor y; the
        posterior mean is mean + K_y (y - A mean).  Sigma and A are split
        into the diagonal blocks of ``_parity_split``: four parity blocks of
        about n/4 for a flip-invariant prior and operator, else the identity
        split's one block.
        Each block factors its part of A Sigma A^T + sigma_y^2 I, its gram,
        once, and takes one eigendecomposition of its part of Sigma_y.  A
        square problem that commutes with the transpose splits ee and oo
        into halves of about n/8 and factors eo alone: block oe is the same
        problem with its coordinate images transposed, so it holds eo's
        gain and factor, not copies (``signal.shared``).
        Measurement directions whose variance lies below working precision,
        m eps times the largest over all blocks, carry no information and
        are dropped, so sigma_y = 0 stays exact where A Sigma A^T is
        numerically singular (a strong blur).  Each gram G is turned into a
        whitening W, W^T G W = I on the directions kept (``_whitenings``):
        L^-T from a Cholesky factor where sigma_y is large enough that the
        drop rule cannot act, else V diag(lam)^-1/2 from an
        eigendecomposition under the drop rule.  One builder,
        ``_posterior``, then makes every block's gain and Sigma_y from its
        W.  K_y and Sigma_y's eigenfactor stay per block; no n x n array
        outlives the call.
        """
        signal, split_y, covs, a_blocks = self._parity_split(operator)
        kept = list(covs)
        # each block of A is released once its y-stage is built
        stages = [_measurement_gram(covs[k], a_blocks.pop(k), sigma_y) for k in kept]
        sig_ats, grams = [sig_at for sig_at, _ in stages], [gram for _, gram in stages]
        del stages
        a_mu = operator.apply(self.mean)
        whitenings = _whitenings(grams, sigma_y, a_mu.size * np.finfo(np.float64).eps)
        # one block at a time, each whitening released once its block is built
        parts = [_posterior(covs.pop(k), sig_ats.pop(0), w) for k, w in zip(kept, whitenings)]
        gains = {k: _finite_or_raise(gain, sigma_y) for k, (gain, _) in zip(kept, parts)}
        factors = {k: _eigen_factor(_finite_or_raise(cov_y, sigma_y))
                   for k, (_, cov_y) in zip(kept, parts)}
        for k, source in signal.shared.items():
            if source in gains:
                gains[k], factors[k] = gains[source], factors[source]
        return _Conditioned(signal, split_y, self.mean, a_mu, gains, factors)

    def posterior(self, operator: LinearOperator, y: np.ndarray, sigma_y: float):
        """Mean and covariance of x | y under y = A x + sigma_y * noise; the
        covariance is dense, sum_k B_k Q_k diag(lam_k) Q_k^T B_k^T from the
        blocks' eigenfactors of Sigma_y, with lam clamped at 0."""
        cond = self._condition_on_measurement(operator, sigma_y)
        mean = cond.signal.merge(cond.means(y))
        cov = cond.signal.expand({k: factor.matrix(factor.lam)
                                  for k, factor in cond.factors.items()})
        return mean.reshape(self.mean.shape), cov

    # --- consistency-function views -------------------------------------
    def consistency(self) -> ConsistencyFn:
        """Unconditional denoiser in consistency-function form (ignores y).

        Every level scales one cached factor of Sigma, so a call costs two
        matrix products.
        """
        factor = self.factor

        def fn(x_t, y, t):
            return _denoise(self.mean, factor, x_t, t)

        return fn

    def measurement_consistency(self, operator: LinearOperator, sigma_y: float) -> ConsistencyFn:
        """Denoiser that conditions on both the latent and the measurement.

        x | y is Gaussian, N(mean_y, Sigma_y), so E[x | x_t, y] is plain
        denoising under that prior: mean_y + G_t (x_t - mean_y) with
        G_t = Sigma_y (Sigma_y + t^2 I)^-1.  The closure conditions on y
        and factors Sigma_y once, block by block (``_condition_on_measurement``:
        per block one whitening of its measurement gram, from a Cholesky
        factor where sigma_y clears the drop floor and else from an
        eigendecomposition, and one eigendecomposition of its Sigma_y; four blocks of about n/4 for
        a flip-invariant prior and operator; on a square grid that also
        commutes with the transpose, one of about n/4 for eo, which oe
        shares, and four of about n/8 for the halves of ee and oo; else, by
        the identity split, one block with an m x m gram and an n x n
        Sigma_y), so G_t = Q_k diag(lam_k/(lam_k+t^2)) Q_k^T in every block
        at every level.  A call moves the rows of
        y - A mean and x_t into the blocks' coordinates by one product with
        each axis's basis, parity or identity (``_ParityBlocks``), makes three
        matrix products per block and moves back, with no solve or cache.
        """
        cond = self._condition_on_measurement(operator, sigma_y)

        def fn(x_t, y, t):
            if y is None:
                raise ValueError("measurement-conditioned denoiser needs y")
            return cond.denoise(x_t, y, t)

        return fn


class _Conditioned:
    """x | y of a Gaussian prior, held in the blocks of its split: per block
    k, the prior mean's part, the gain K_k and the eigenfactor of
    Sigma_y,k, by block index (a shared block holds its source's arrays).
    ``split_y`` maps rows of measurements to their blocks' coordinates."""

    def __init__(self, signal, split_y, mean: np.ndarray, a_mu: np.ndarray,
                 gains: dict, factors: dict):
        self.signal, self.split_y = signal, split_y
        self.a_mu, self.gains, self.factors = a_mu, gains, factors
        self.mean_parts = signal.split(mean)

    def means(self, y) -> dict:
        """Each block's part of mean_y = mean + K_y (y - A mean), for the rows of y."""
        y = np.asarray(y, dtype=np.float64).reshape(-1, self.a_mu.size)
        resid = self.split_y(y - self.a_mu)
        return {k: self.mean_parts[k] + resid[k] @ gain.T for k, gain in self.gains.items()}

    def denoise(self, x_t, y, t) -> np.ndarray:
        """E[x | x_t, y]: denoising under N(mean_y, Sigma_y), block by block."""
        x_t = np.asarray(x_t, dtype=np.float64)
        parts = self.signal.split(x_t.reshape(-1, self.signal.size))
        means = self.means(y)
        out = {k: _denoise(means[k], factor, parts[k], t) for k, factor in self.factors.items()}
        return self.signal.merge(out).reshape(x_t.shape)

    def posterior_trace(self) -> float:
        """tr(Sigma_y): the sum of every block's Sigma_y eigenvalues, clamped
        at 0, a shared block's counted again as its own."""
        return float(sum(factor.lam.sum() for factor in self.factors.values()))


@dataclass(frozen=True)
class EmpiricalPrior:
    """Finite atom set with weights; denoising is a softmax-weighted mean.

    The posterior weight of atom a_j given x_t is proportional to
    w_j * exp(-||x_t - a_j||^2 / (2 t^2)), so the denoised point always
    lies in the convex hull of the atoms.  As t -> 0 it snaps to the
    nearest atom; as t -> inf it approaches the weighted atom mean.
    """

    atoms: np.ndarray
    weights: np.ndarray | None = None
    log_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("atoms must be a non-empty (count, n) array")
        if self.weights is None:
            w = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            w = np.ascontiguousarray(self.weights, dtype=np.float64)
            if w.shape != (atoms.shape[0],):
                raise ValueError("weights must align with the atom count")
            if np.any(w <= 0.0):
                raise ValueError("atom weights must be strictly positive")
            w = w / w.sum()
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_weights", np.log(w))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        idx = rng.choice(self.atoms.shape[0], size=size, p=self.weights)
        return self.atoms[idx]

    def denoise(self, x_t: np.ndarray, t: float) -> np.ndarray:
        t = _check_t(t)
        x_t = np.asarray(x_t, dtype=np.float64)
        return kernels.empirical_mean(self.atoms, self.log_weights, x_t, t)

    def consistency(self) -> ConsistencyFn:
        def fn(x_t, y, t):
            return self.denoise(x_t, t)

        return fn


def _rbf_axis(size: int, length_scale: float) -> np.ndarray:
    """exp(-(i - j)^2 / (2 length_scale^2)) over one image axis."""
    coords = np.arange(size, dtype=np.float64)
    diff = coords[:, None] - coords[None, :]
    return np.exp(-(diff * diff) / (2.0 * length_scale * length_scale))


def _check_rbf(length_scale: float, variance: float) -> None:
    if length_scale <= 0.0 or variance <= 0.0:
        raise ValueError("length_scale and variance must be positive")


def rbf_prior(shape: tuple[int, int, int], length_scale: float, variance: float = 1.0,
              mean_level: float = 0.0) -> GaussianPrior:
    """Squared-exponential Gaussian prior over an image grid, held as its exact factor.

    The covariance (see ``rbf_covariance``) is separable,
    Sigma = I_c (x) variance (K_h (x) K_w) + 1e-10 variance I with K the
    1-D RBF matrix of each axis (Saatci 2011; Rasmussen & Williams,
    GPML ch. 4).  One eigh per axis length, K_h = Q_h diag(a) Q_h^T and
    K_w = Q_w diag(b) Q_w^T with a, b clamped at 0, therefore factors it
    exactly: Q = I_c (x) Q_h (x) Q_w and
    lam = tile(variance (a (x) b) + 1e-10 variance, c).  A square grid takes
    one eigh for both axes, so Q_h is Q_w and the lam grid is its own
    transpose, bit for bit: conditioning then splits by the transpose too.
    No n x n array is built here: sampling and denoising use the factor
    alone, and its eigenvectors, unlike those of a dense eigh, do not depend
    on the BLAS thread count for axes up to 128 pixels.
    """
    _check_rbf(length_scale, variance)
    c, h, w = shape
    axis_h = _eigen_factor(_rbf_axis(h, length_scale))
    axis_w = axis_h if w == h else _eigen_factor(_rbf_axis(w, length_scale))
    lam = np.tile(variance * np.outer(axis_h.lam, axis_w.lam).ravel() + 1e-10 * variance, c)
    return GaussianPrior(
        mean=np.full(c * h * w, float(mean_level)),
        factor=EigenFactor(lam, (axis_h.axes[0], axis_w.axes[0])),
    )


def rbf_covariance(shape: tuple[int, int, int], length_scale: float, variance: float = 1.0) -> np.ndarray:
    """Squared-exponential covariance over an image grid, channels independent.

    Entry for pixels p, q (same channel) is
    variance * exp(-||coord_p - coord_q||^2 / (2 length_scale^2)); cross-channel
    blocks are zero.  A small diagonal jitter keeps the matrix numerically
    positive definite despite the fast eigenvalue decay.  Built as the
    Kronecker product of the per-axis RBF matrices: the closed-form
    reference for the covariance of ``rbf_prior``, which holds only its
    per-axis factor.
    """
    _check_rbf(length_scale, variance)
    c, h, w = shape
    # scale the h x h factor, so that no n x n temporary is made here
    block = np.kron(variance * _rbf_axis(h, length_scale), _rbf_axis(w, length_scale))
    block[np.diag_indices_from(block)] += 1e-10 * variance
    return block if c == 1 else np.kron(np.eye(c), block)
