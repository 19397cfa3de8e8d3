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
from functools import cached_property, partial
from typing import Protocol

import numpy as np

from . import kernels
from .operators import LinearOperator, grid_flips


# Largest dimension n a pipeline conditions a Gaussian prior on the
# measurement for.  No operator is materialised, but the closure keeps
# per-block gains and factors, about n^2 / 4 floats on a square grid that
# commutes with the transpose and n^2 / 2 otherwise; its build peaks at
# about 0.7 n x n float64 arrays for a square blur or centred-square
# inpainting (1.0 on other grids, and about 5 for a problem that conditions
# as one block, such as an off-centre mask), and the per-block
# eigendecompositions grow as n^3: a 64 x 64 deblur (n = 4096) sampled 8
# images in 1.3 s at a peak resident size of about 150 MiB, and 128 x 128
# would need more than 1 GiB and about 64 times the factorisation work.
MAX_CONDITIONED_N = 64 * 64


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
    """Raise unless factor has n eigenvalues and square axis blocks that tile n."""
    sides = [q.shape for q in factor.axes]
    if (factor.lam.shape != (n,) or len(sides) not in (1, 2)
            or any(len(q) != 2 or q[0] != q[1] for q in sides)
            or n % math.prod(q[0] for q in sides)):
        raise ValueError("factor does not match the prior's dimension")


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


def _walsh(values: list) -> list:
    """sum_j (-1)^popcount(j & k) values[j] for k = 0..3: a 4-point Hadamard
    transform in 8 adds.  A member left out (None) belongs to a flip that
    moves nothing; the stage of that flip is skipped and its odd sums are
    left out too."""
    out = list(values)
    for bit in (1, 2):
        for k in range(4):
            if not k & bit and out[k | bit] is not None:
                out[k], out[k | bit] = out[k] + out[k | bit], out[k] - out[k | bit]
    return out


class _FlipBlocks:
    """An orthonormal basis of R^size, split into four blocks by two flips.

    The flips are commuting index involutions: a row flip f and a column
    flip g (``grid_flips``, or an operator's ``measurement_flips``).  Block
    k is odd under f when k & 2 and under g when k & 1, so the blocks run
    even-even, even-odd, odd-even, odd-odd.  It is spanned by the unit
    vectors P e_r / |P e_r|, P = (I +- F)(I +- G) / 4 with those signs, one
    per orbit {r, g r, f r, f g r} (member j applies g when j & 1 and f
    when j & 2) whose least index r represents it, in increasing r; an
    orbit adds no vector where P e_r = 0.  A matrix M with F' M = M F and
    G' M = M G is block diagonal between two such bases (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  On an image grid a vector is a
    product of per-axis sums and differences over mirrored pixels,
    (e_i +- e_{size-1-i})/sqrt(2), or the centre line of an odd axis; with
    identity flips block 0 is the identity, exactly, and the other three
    are empty.

    ``split`` is the one way in: a vector's coordinates are one gather of
    the orbits' members, a ``_walsh`` over the flips that move something,
    and a scale of 1 / (members |P e_r|) per orbit, so no basis matrix is
    formed.  ``merge``, the way back, is the transpose: the same scales,
    ``_walsh`` again (its signs are symmetric) and one gather, where an
    index that its orbit's members repeat takes the value times the number
    of repeats; every block that holds such an orbit has equal signs on
    the repeats.
    """

    shared = {}  # no block takes another's gain and factor (see _SquareBlocks)

    def __init__(self, flip_rows: np.ndarray, flip_cols: np.ndarray):
        index = np.arange(flip_rows.size)
        orbit = np.stack([index, flip_cols, flip_rows, flip_rows[flip_cols]])
        reps = index[(orbit >= index).all(axis=0)]
        orbit = orbit[:, reps]
        moves = [not np.array_equal(flip, index) for flip in (flip_cols, flip_rows)]
        self.members = [j for j in range(4) if (moves[0] or not j & 1) and (moves[1] or not j & 2)]
        self.size, self.orbit = index.size, orbit[self.members]
        signs = np.array([[(-1.0) ** bin(j & k).count("1") for j in range(4)] for k in range(4)])
        at_rep = (orbit == orbit[0]).astype(float)  # the members equal to r
        self.sizes, self.keep, self.scales = [], [], []
        for k in range(4):
            weight = signs[k] @ at_rep  # 4 e_r^T P e_r = 4 |P e_r|^2
            keep = weight > 0
            self.sizes.append(int(keep.sum()))
            self.keep.append(slice(None) if keep.all() else np.flatnonzero(keep))
            self.scales.append(1.0 / (len(self.members) * np.sqrt(weight[keep] / 4.0)))
        # back to indices: each index from a place it takes in the orbit table,
        # times the number of places it takes there
        self._back = np.empty(self.size, dtype=np.intp)
        self._back[self.orbit.ravel()] = np.arange(self.orbit.size)
        repeats = (self.orbit[:, None, :] == self.orbit[None, :, :]).sum(axis=1)
        self._repeats = repeats.ravel()[self._back]

    def carry(self, perm: np.ndarray, k: int, l: int) -> np.ndarray:
        """For each coordinate of block k, the coordinate of block l that the
        index permutation ``perm`` takes it to.  ``perm`` must map the
        representatives of block k's orbits onto those of block l and turn
        the one block's projection P into the other's, so that it takes each
        basis vector of block k to one of block l, sign included."""
        reps = self.orbit[0]
        return np.searchsorted(reps[self.keep[l]], perm[reps[self.keep[k]]])

    def reorder(self, k: int, order: np.ndarray) -> None:
        """Put block k's coordinates in the given order, each entry of
        ``order`` an index into its current coordinates."""
        places = np.arange(self.orbit.shape[1])[self.keep[k]]
        self.keep[k], self.scales[k] = places[order], self.scales[k][order]

    def _gather(self, x: np.ndarray) -> list:
        """x at the orbits' members, one (..., orbits) array per member j, None
        for a member that only a still flip would make."""
        members = x[..., self.orbit]
        values = [None] * 4
        for i, j in enumerate(self.members):
            values[j] = members[..., i, :]
        return values

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The four blocks' coordinates of the rows of x."""
        sums = _walsh(self._gather(x))
        lead = x.shape[:-1]
        return [np.zeros(lead + (0,)) if total is None else total[..., keep] * scale
                for total, keep, scale in zip(sums, self.keep, self.scales)]

    def merge(self, parts: dict) -> np.ndarray:
        """Coordinates back to rows: x = sum_k parts[k] B_k^T over the blocks
        k in ``parts``; a block left out counts as zero."""
        lead = next(iter(parts.values())).shape[:-1]
        full = [None] * 4
        for j in self.members:  # block j is non-empty only where member j exists
            keep, scale = self.keep[j], self.scales[j]
            if isinstance(keep, slice) and j in parts:
                full[j] = parts[j] * scale
            else:
                full[j] = np.zeros(lead + (self.orbit.shape[1],))
                if j in parts:
                    full[j][..., keep] = parts[j] * scale
        table = np.concatenate([v for v in _walsh(full) if v is not None], axis=-1)
        return table[..., self._back] * self._repeats

    def expand(self, blocks: dict) -> np.ndarray:
        """sum_k B_k blocks[k] B_k^T over the blocks k given, as one dense
        matrix."""
        half = {k: self.merge({k: block.T}) for k, block in blocks.items()}  # (B_k M_k)^T
        return self.merge({k: rows.T for k, rows in half.items()})


# the blocks of a square grid as (parity block, its half under the grid's
# transpose: 0 the symmetric, 2 the antisymmetric, None the whole block)
_SQUARE_BLOCKS = ((0, 0), (0, 2), (1, None), (2, None), (3, 0), (3, 2))


class _SquareBlocks:
    """The parity blocks of a square (c, s, s) grid, split once more by the
    transpose T of every channel image.

    T swaps the row and the column flip, so it maps parity block eo onto oe
    and each of ee and oo onto itself: together the flips and T make the
    symmetry group D4 of the square (Fassler & Stiefel, Group Theoretical
    Methods and Their Applications, 1992).  T takes each basis vector of eo
    to one of oe, so block oe's coordinates are put in the order of T
    applied to eo's (``_FlipBlocks.reorder``): a matrix that commutes with T
    then has equal blocks in eo and oe, and ``shared`` names oe as taking
    eo's.  In ee and in oo, T permutes the block's own coordinates, and a
    ``_FlipBlocks`` with that permutation as its one flip splits the block
    into a symmetric and an antisymmetric half.  The six blocks run ee+,
    ee-, eo, oe, oo+, oo- (``_SQUARE_BLOCKS``).
    """

    shared = {3: 2}

    def __init__(self, shape):
        self.parity = _FlipBlocks(*grid_flips(shape))
        transpose = np.arange(math.prod(shape)).reshape(shape).transpose(0, 2, 1).ravel()
        self.halves = {k: _FlipBlocks(self.parity.carry(transpose, k, k),
                                      np.arange(self.parity.sizes[k])) for k in (0, 3)}
        self.parity.reorder(2, self.parity.carry(transpose, 1, 2))
        self.size = self.parity.size
        self.sizes = [self.parity.sizes[k] if j is None else self.halves[k].sizes[j]
                      for k, j in _SQUARE_BLOCKS]

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The six blocks' coordinates of the rows of x."""
        parts = self.parity.split(x)
        halves = {k: half.split(parts[k]) for k, half in self.halves.items()}
        return [parts[k] if j is None else halves[k][j] for k, j in _SQUARE_BLOCKS]

    def merge(self, parts: dict) -> np.ndarray:
        """Coordinates of the blocks in ``parts`` back to rows."""
        outer, halves = {}, {}
        for key, part in parts.items():
            k, j = _SQUARE_BLOCKS[key]
            if j is None:
                outer[k] = part
            else:
                halves.setdefault(k, {})[j] = part
        outer.update({k: self.halves[k].merge(sub) for k, sub in halves.items()})
        return self.parity.merge(outer)

    expand = _FlipBlocks.expand


def _identity_blocks(size: int) -> _FlipBlocks:
    """One block, the identity: the basis of the unsplit problem."""
    index = np.arange(size)
    return _FlipBlocks(index, index)


def _axis_split(x: np.ndarray, flipped: bool) -> tuple[np.ndarray, np.ndarray]:
    """B_0^T x and B_1^T x for the even and the odd basis B_0, B_1 of one
    image axis, whose length is x's first dimension: the ``_FlipBlocks`` of
    its flip, or without the flip the identity and an empty odd part."""
    index = np.arange(len(x))
    parts = _FlipBlocks(index[::-1] if flipped else index, index).split(x.T)
    return parts[0].T, parts[2].T


def _flip_invariant(m: np.ndarray) -> bool:
    """F' M == M F bit for bit, for the flips F of M's columns and F' of its
    rows (each axis reversed): the flip check of one axis factor."""
    return np.array_equal(m[::-1, ::-1], m)


def _selection_invariant(kept: np.ndarray, flips: tuple, shape) -> bool:
    """F' A == A F for the selection A x = x[kept], each flip f of the
    (c, h, w) signal grid and its permutation f' of the measurements
    (``flips``): kept[f'] == f[kept], O(m) per flip."""
    return all(np.array_equal(kept[flip], pixel_flip[kept])
               for flip, pixel_flip in zip(flips, grid_flips(shape)))


def _axis_blocks(m: np.ndarray, flipped: bool) -> tuple[np.ndarray, np.ndarray]:
    """B'_p^T M B_p of one axis factor M for the even (p = 0) and the odd
    (p = 1) part, B' the bases of M's row axis and B those of its column
    axis.  The cross-parity parts are zero when M commutes with the flips."""
    return tuple(_axis_split(left.T, flipped)[p].T
                 for p, left in enumerate(_axis_split(m, flipped)))


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


def _separable_rows(channels: int, left: np.ndarray, right: np.ndarray):
    """x -> x A^T on the rows of x, for the block A = I_c (x) L (x) R: each row,
    read as c images X of (L's columns, R's columns), becomes the c images
    L X R^T.  A is never formed."""
    size = channels * len(left) * len(right)

    def apply(x):
        images = x.reshape(len(x), channels, left.shape[1], right.shape[1])
        return (left @ images @ right.T).reshape(len(x), size)

    return apply


def _measurement_stage(cov, a_rows, sigma_y):
    """Sigma A^T and the eigendecomposition of A Sigma A^T + sigma_y^2 I for one
    block, with ``a_rows`` the map x -> x A^T.  Sigma is symmetric, so
    Sigma A^T is A applied to its rows, and A Sigma A^T is A applied to the
    rows of (Sigma A^T)^T, transposed.  The eigenvectors come in column-major
    order, the order that a column selection gives, so ``_block_posterior``
    selects nothing when it keeps every direction, and its products round
    alike either way."""
    sig_at = a_rows(cov)
    gram = a_rows(sig_at.T).T
    gram[np.diag_indices_from(gram)] += sigma_y * sigma_y
    lam, vecs = np.linalg.eigh(_finite_or_raise(gram, sigma_y))
    return sig_at, lam, np.asfortranarray(vecs)


def _half_rows(rows, signal_half: _FlipBlocks, measurement_half: _FlipBlocks, j: int):
    """x -> x A_j^T for half j of a parity block whose map is ``rows``: the
    half's coordinates merged back into the block's, mapped, and split on
    the measurement side."""
    return lambda x: measurement_half.split(rows(signal_half.merge({j: x})))[j]


def _transpose_split(shape, measurement_shape, covs: dict, a_rows: dict):
    """The parity split of a prior and an operator that commute with the
    transpose of the grid, refined into the blocks of ``_SquareBlocks``:
    (signal blocks, measurement blocks, Sigma's diagonal blocks, A's blocks
    as maps on rows, each by block index, and Sigma's largest entry between
    two halves relative to the largest diagonal entry of its parity
    blocks).  ``covs`` and ``a_rows`` are the parity blocks.  Block oe is
    left out, as it takes eo's gain and factor.  A half of ee or oo takes
    Sigma's block by two ``split``s of the parity block, as
    ``_covariance_blocks`` splits a dense Sigma, and A's block through the
    parity block's map (``_half_rows``)."""
    signal = _SquareBlocks(shape)
    measurement = signal if measurement_shape == shape else _SquareBlocks(measurement_shape)
    blocks, rows, off = {}, {}, []
    for key, (k, j) in enumerate(_SQUARE_BLOCKS):
        if key in signal.shared or not signal.sizes[key]:
            continue
        if j is None:
            blocks[key], rows[key] = covs[k], a_rows[k]
            continue
        half = signal.halves[k]
        sides = half.split(half.split(covs[k])[j].T)  # B_i^T Sigma_k B_j for each half i
        blocks[key] = (sides[j] + sides[j].T) / 2.0
        off.append(np.abs(sides[2 - j]).max(initial=0.0))
        rows[key] = _half_rows(a_rows[k], half, measurement.halves[k], j)
    top = max(cov.diagonal().max() for cov in covs.values())
    return signal, measurement, blocks, rows, max(off, default=0.0) / top if top > 0.0 else 0.0


def _block_posterior(cov, sig_at, lam, vecs, floor):
    """Gain and Sigma_y of one block from its y-stage eigendecomposition,
    keeping the measurement directions whose variance exceeds floor.  The
    block of Sigma, ``cov``, is overwritten with Sigma_y's."""
    keep = lam > floor
    if not keep.all():
        lam, vecs = lam[keep], vecs[:, keep]
    scale = np.sqrt(lam)
    root = sig_at @ vecs
    root /= scale
    cov -= root @ root.T
    cov += cov.T
    cov *= 0.5
    root /= scale
    return root @ vecs.T, cov


class GaussianPrior:
    """x ~ N(mean, Sigma); every conditional is available exactly.

    Sigma is given in one form.  A dense symmetric ``covariance`` is
    factored by one eigh when the factor is first used.  An ``EigenFactor``
    (``factor``, as ``rbf_prior`` builds it) is used as given, and
    ``covariance`` is then Q diag(lam) Q^T, formed once when first read.
    Nothing here reads it for a per-axis factor: conditioning on a
    measurement builds Sigma's blocks from the factor.

    Conditioning on a measurement (``measurement_consistency``,
    ``posterior``, ``joint_denoise_cov``) takes a ``LinearOperator``; wrap
    a bare matrix in ``DenseOperator``.
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
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        self.covariance = (cov + cov.T) / 2.0

    @property
    def n(self) -> int:
        return self.mean.size

    @cached_property
    def covariance(self) -> np.ndarray:
        """Dense Sigma of a factor-form prior: Q diag(lam) Q^T, built on first read."""
        return self.factor.matrix(self.factor.lam)

    @cached_property
    def factor(self) -> EigenFactor:
        """Eigenfactor of a dense covariance, by one eigh on first use; shared by
        sample, denoise, denoise_cov and consistency().  Conditioned runs never
        need it."""
        return _eigen_factor(self.covariance)

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
    def _covariance_blocks(self, shape) -> tuple[_FlipBlocks, dict, float]:
        """Signal blocks, Sigma's diagonal blocks B_k^T Sigma B_k in them by
        block index k (empty blocks left out), and Sigma's largest off-block
        entry relative to its largest entry.

        ``shape`` is the (c, h, w) grid to split by its row and column flips,
        or None for one block in pixel coordinates.  A factor-form prior
        (``rbf_prior``) gives each block as (R_h (x) R_w) diag(lam) (R_h (x) R_w)^T
        with R = B^T Q per image axis, so Sigma is never formed; any other
        prior's dense covariance goes through the flip sums on both sides:
        ``split`` of its rows gives Sigma B_l, and as Sigma is symmetric,
        ``split`` of (Sigma B_k)^T gives B_k^T Sigma B_l.  Sigma is PSD, so its
        largest entry is on its diagonal.
        """
        signal = _FlipBlocks(*grid_flips(shape)) if shape else _identity_blocks(self.n)
        kept = [k for k in range(4) if signal.sizes[k]]  # an axis of length 1 has no odd part
        factor = self.__dict__.get("factor")
        axes = factor.axes if factor is not None else ()
        sides = tuple(len(q) for q in axes)
        if len(axes) == 2 and (shape is None or shape[1:] == sides):
            # R = B^T Q of each axis for its even and its odd part
            r_h, r_w = (_axis_split(q, shape is not None) for q in axes)
            rs = {k: (r_h[k >> 1], r_w[k & 1]) for k in kept}  # block k is odd by row if k & 2
            grid = factor.lam.reshape((-1,) + sides)
            blocks = [_channel_diagonal(_kron_block(grid, rs[k], rs[k])) for k in kept]
            off = [np.abs(_kron_entries(grid, rs[k], rs[l])).max()
                   for k in kept for l in kept if k < l]
            top = ((axes[0] ** 2) @ grid @ (axes[1] ** 2).T).max()
        else:
            cov = self.covariance
            half = signal.split(cov)
            parts = [signal.split(half[k].T) for k in kept]
            blocks = [part[k] for k, part in zip(kept, parts)]
            off = [np.abs(part[l]).max() for k, part in zip(kept, parts)
                   for l in kept if l != k]
            top = cov.diagonal().max()
        blocks = {k: (block + block.T) / 2.0 for k, block in zip(kept, blocks)}
        return signal, blocks, max(off, default=0.0) / top if top > 0.0 else 0.0

    def _transpose_symmetric(self, side: int) -> bool:
        """Sigma = T Sigma T bit for bit, for the transpose T of every
        (side, side) channel image: a per-axis factor whose Q_h equals Q_w,
        with side pixels per axis, and a lam grid equal to its transpose.
        A dense covariance is not checked."""
        axes = getattr(self.__dict__.get("factor"), "axes", ())
        if len(axes) != 2 or len(axes[0]) != side or not np.array_equal(*axes):
            return False
        grid = self.factor.lam.reshape(-1, side, side)
        return np.array_equal(grid, grid.transpose(0, 2, 1))

    def _parity_split(self, operator: LinearOperator) -> tuple:
        """(signal blocks, measurement blocks, Sigma's diagonal blocks, A's
        diagonal blocks) to condition in, both by block index k; A's block
        A_k is given as the map x -> x A_k^T on rows.

        The four parity blocks of the operator's flips when the split is
        exact: A commutes with both flips bit for bit, and Sigma to rounding
        (1e-12 of its largest entry), so that dropping its off-block entries
        is a rounding-level projection like its symmetrisation.  Otherwise
        one block in pixel coordinates.

        A is never materialised.  A separable operator,
        A = I_c (x) M_h (x) M_w (``axis_matrices``), commutes with the flips
        exactly when each axis factor does (``_flip_invariant``), as the
        product is exact, and block k is I_c (x) M_h^p (x) M_w^q, with
        M^p = B'_p^T M B_p per axis and p = k >> 1 for the rows, q = k & 1
        for the columns, applied one axis at a time (``_separable_rows``).
        A selection, A x = x[kept] (``selection``), commutes with a signal
        flip f and its measurement flip f' exactly when kept[f'] = f[kept]
        (``_selection_invariant``).  Its measurement orbits are then the
        signal orbits of kept pixels, with the same representatives as kept
        increases, so block k is a selection too: the coordinates of block
        k whose representative is kept, which with one block are kept
        itself.  Any other operator
        (``DenseOperator``) is one block, mapped by ``apply``.

        A square problem splits further (``_SquareBlocks``, ``_transpose_split``)
        when both Sigma and A commute with the grid's transpose bit for bit:
        a separable operator with M_h equal to M_w, and a per-axis factor of
        Sigma with Q_h equal to Q_w and a lam grid equal to its transpose
        (``_transpose_symmetric``), with Sigma's entries between the halves
        of ee and oo within 1e-12 of its largest.  Block oe is then left
        out of the blocks: it takes eo's gain and factor.
        """
        axes, kept = operator.axis_matrices(), operator.selection()
        flips, shape = operator.measurement_flips(), operator.signal_shape
        split = False
        if flips is not None and (
                all(_flip_invariant(m) for m in axes) if axes is not None
                else kept is not None and _selection_invariant(kept, flips, shape)):
            signal, covs, gap = self._covariance_blocks(shape)
            split = gap <= 1e-12
        if split:
            measurement = _FlipBlocks(*flips)
        else:
            signal, covs, _ = self._covariance_blocks(None)
            measurement = _identity_blocks(operator.m)
        if axes is not None:
            h, w = (_axis_blocks(m, split) for m in axes)
            a_blocks = {k: _separable_rows(shape[0], h[k >> 1], w[k & 1]) for k in covs}
            if split and np.array_equal(*axes) and self._transpose_symmetric(shape[2]):
                *square, gap = _transpose_split(shape, operator.measurement_shape, covs, a_blocks)
                if gap <= 1e-12:
                    return tuple(square)
            return signal, measurement, covs, a_blocks
        if kept is None:
            return signal, measurement, covs, {0: operator.apply}
        reps = signal.orbit[0]
        return signal, measurement, covs, {
            k: partial(np.take, indices=np.flatnonzero(np.isin(reps[signal.keep[k]], kept)), axis=-1)
            for k in covs}

    def _condition_on_measurement(self, operator: LinearOperator, sigma_y: float) -> "_Conditioned":
        """x | y for y = A x + sigma_y * noise, block by block.

        K_y = Sigma A^T (A Sigma A^T + sigma_y^2 I)^+ and
        Sigma_y = Sigma - K_y A Sigma depend on neither t nor y; the
        posterior mean is mean + K_y (y - A mean).  Sigma and A are split
        into the diagonal blocks of ``_parity_split``: four parity blocks of
        about n/4 for a flip-invariant prior and operator, else one block.
        Each block takes one eigendecomposition of its part of
        A Sigma A^T + sigma_y^2 I and one of its part of Sigma_y.  A square
        problem that commutes with the transpose splits ee and oo into
        halves of about n/8 and factors eo alone: block oe is the same
        problem in coordinates that the transpose permutes, so it holds
        eo's gain and factor, not copies (``signal.shared``).
        Measurement directions whose variance lies below working precision
        (relative to the largest over all blocks) carry no information and
        are dropped, so sigma_y = 0 stays exact where A Sigma A^T is
        numerically singular (a strong blur).  K_y and Sigma_y's eigenfactor
        stay per block; no n x n array outlives the call.
        """
        signal, measurement, covs, a_blocks = self._parity_split(operator)
        kept = list(covs)
        # each block of A is released once its y-stage is built
        stages = [_measurement_stage(covs[k], a_blocks.pop(k), sigma_y) for k in kept]
        a_mu = operator.apply(self.mean)
        top = max((lam[-1] for _, lam, _ in stages if lam.size), default=0.0)
        floor = top * a_mu.size * np.finfo(np.float64).eps
        # one block at a time, each y-stage released before Sigma_y is factored
        parts = [_block_posterior(covs.pop(k), *stages.pop(0), floor) for k in kept]
        gains = {k: _finite_or_raise(gain, sigma_y) for k, (gain, _) in zip(kept, parts)}
        factors = {k: _eigen_factor(_finite_or_raise(cov_y, sigma_y))
                   for k, (_, cov_y) in zip(kept, parts)}
        for k, source in signal.shared.items():
            if source in gains:
                gains[k], factors[k] = gains[source], factors[source]
        return _Conditioned(signal, measurement, self.mean, a_mu, gains, factors)

    def joint_denoise_cov(self, t: float, operator: LinearOperator, sigma_y: float) -> np.ndarray:
        """Var[x | x_t, y] = t^2 Sigma_y (Sigma_y + t^2 I)^-1, free of x_t and y;
        dense n x n, built from its blocks."""
        t = _check_t(t)
        cond = self._condition_on_measurement(operator, sigma_y)
        return cond.signal.expand({k: _denoise_cov(factor, t)
                                   for k, factor in cond.factors.items()})

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
        matrix products and threads can share the closure.
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
        eight eigendecompositions of about n/4 x n/4 for a flip-invariant
        prior and operator; on a square grid that also commutes with the
        transpose, two of about n/4 for eo, which oe shares, and eight of
        about n/8 for the halves of ee and oo; else one of m x m and one of
        n x n), so
        G_t = Q_k diag(lam_k/(lam_k+t^2)) Q_k^T in every block at every
        level.  A call moves the rows of y - A mean and x_t into the blocks'
        coordinates by flip sums, makes three matrix products per block and
        moves back, with no solve, cache or lock.
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
    Read-only once built, so threads may share it."""

    def __init__(self, signal, measurement, mean: np.ndarray, a_mu: np.ndarray,
                 gains: dict, factors: dict):
        self.signal, self.measurement = signal, measurement
        self.a_mu, self.gains, self.factors = a_mu, gains, factors
        self.mean_parts = signal.split(mean)

    def means(self, y) -> dict:
        """Each block's part of mean_y = mean + K_y (y - A mean), for the rows of y."""
        y = np.asarray(y, dtype=np.float64).reshape(-1, self.a_mu.size)
        resid = self.measurement.split(y - self.a_mu)
        return {k: self.mean_parts[k] + resid[k] @ gain.T for k, gain in self.gains.items()}

    def denoise(self, x_t, y, t) -> np.ndarray:
        """E[x | x_t, y]: denoising under N(mean_y, Sigma_y), block by block."""
        x_t = np.asarray(x_t, dtype=np.float64)
        parts = self.signal.split(x_t.reshape(-1, self.signal.size))
        means = self.means(y)
        out = {k: _denoise(means[k], factor, parts[k], t) for k, factor in self.factors.items()}
        return self.signal.merge(out).reshape(x_t.shape)


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

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

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
