import numpy as np
import pytest

from cminverse.operators import (
    BlockDownsampleOperator,
    CircularBlurOperator,
    DenseOperator,
    IdentityOperator,
    InpaintOperator,
    MeasurementModel,
    centered_square_mask,
    gaussian_kernel,
    make_centered_square_inpaint,
    make_downsample,
    make_gaussian_blur,
    make_synthetic_nonlinear_blur,
    _real_dft_basis,
)


def materialize(op):
    """Dense (m, n) matrix of a linear operator, via its direct apply."""
    return op.apply(np.eye(op.n)).T


def all_test_operators():
    return [
        IdentityOperator(1, 3, 4),
        DenseOperator(np.random.default_rng(0).standard_normal((5, 9))),
        BlockDownsampleOperator(2, 4, 6, 2),
        CircularBlurOperator(1, 6, 8, sigma=1.2),
        CircularBlurOperator(2, 5, 5, sigma=0.8),
        InpaintOperator(1, 4, 4, centered_square_mask(4, 4)),
    ]


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: o.structure_tag + str(o.n))
def test_factored_apply_matches_direct(op):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, op.n))
    assert np.allclose(op.apply(x), op.apply_factored(x), atol=1e-10)


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: o.structure_tag + str(o.n))
def test_right_basis_is_orthonormal(op):
    # V V^T x = x and ||V^T x|| = ||x|| on random probes.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, op.n))
    xs = op.to_spectral(x)
    assert np.allclose(op.from_spectral(xs), x, atol=1e-10)
    assert np.allclose(
        np.linalg.norm(xs, axis=1), np.linalg.norm(x, axis=1), atol=1e-10
    )


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: o.structure_tag + str(o.n))
def test_singular_values_match_lapack_oracle(op):
    a = materialize(op)
    oracle = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(op.singular_values, oracle, atol=1e-10)


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: o.structure_tag + str(o.n))
def test_adjoint_matches_matrix_transpose(op):
    a = materialize(op)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((4, op.m))
    assert np.allclose(op.adjoint(y), y @ a, atol=1e-10)


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: o.structure_tag + str(o.n))
def test_noiseless_measurement_spectralizes_to_signal_coordinates(op):
    # For y = A x the valid measurement-side coordinates (U^T y)_i / s_i
    # must coincide with the signal-side coordinates (V^T x)_i.
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.n)
    y_bar, valid = op.measurement_to_spectral(op.apply(x))
    xs = op.to_spectral(x)
    assert np.allclose(y_bar[valid], xs[valid], atol=1e-10)
    assert np.all(y_bar[~valid] == 0.0)
    assert valid.sum() == np.sum(op.singular_values > 0.0)


def test_only_separable_operators_give_axis_matrices():
    # each factor's shape is (measurement side, signal side) of its axis
    shapes = {op.structure_tag: [m.shape for m in op.axis_matrices()]
              for op in all_test_operators() if op.axis_matrices() is not None}
    assert shapes == {"identity": [(3, 3), (4, 4)], "downsample": [(2, 4), (3, 6)],
                      "blur_circular": [(5, 5), (5, 5)]}
    assert {op.structure_tag for op in all_test_operators() if op.axis_matrices() is None} == {
        "dense", "inpaint"}


def test_dense_apply_is_matmul():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 8))
    op = DenseOperator(a)
    x = rng.standard_normal(8)
    assert np.allclose(op.apply(x), a @ x)
    assert op.spectral_norm() == pytest.approx(np.linalg.norm(a, 2))


def test_downsample_constant_image_stays_constant():
    op = make_downsample(1, 4, 4, 2)
    y = op.apply(np.full(16, 0.7))
    assert y.shape == (4,)
    assert np.allclose(y, 0.7)
    assert op.measurement_shape == (1, 2, 2)


def test_downsample_block_means_against_reshape_oracle():
    rng = np.random.default_rng(6)
    img = rng.standard_normal((2, 6, 4))
    op = BlockDownsampleOperator(2, 6, 4, 2)
    oracle = img.reshape(2, 3, 2, 2, 2).mean(axis=(2, 4))
    assert np.allclose(op.apply(img.ravel()).reshape(2, 3, 2), oracle)


def test_downsample_singular_values_all_inverse_block():
    op = BlockDownsampleOperator(1, 8, 8, 4)
    assert np.all(op.singular_values == 0.25)


def test_downsample_block_one_degenerates_to_identity():
    op = make_downsample(1, 3, 3, 1)
    assert op.structure_tag == "identity"
    x = np.arange(9.0)
    assert np.array_equal(op.apply(x), x)


def test_blur_kernel_unit_sum_and_top_singular_value():
    k = gaussian_kernel(1.5, 5)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1])
    op = make_gaussian_blur(1, 8, 8, sigma=1.5)
    assert op.spectral_norm() == pytest.approx(1.0)


def test_blur_constant_signal_is_pure_dc():
    op = CircularBlurOperator(1, 1, 12, sigma=1.0)
    xs = op.to_spectral(np.full(12, 3.0))
    assert abs(xs[0]) == pytest.approx(3.0 * np.sqrt(12.0))
    assert np.allclose(xs[1:], 0.0, atol=1e-12)


def test_blur_matches_explicit_roll_convolution():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    op = CircularBlurOperator(1, 1, 10, sigma=1.0, kernel_radius=3)
    kernel = gaussian_kernel(1.0, 3)
    oracle = sum(
        kernel[j + 3] * np.roll(x, j) for j in range(-3, 4)
    )
    assert np.allclose(op.apply(x), oracle, atol=1e-12)


def fft_circular_blur(images, sigma, radius):
    """2-D circular convolution of (B, c, h, w) images by FFT, from the 1-D taps."""
    h, w = images.shape[-2:]
    taps = gaussian_kernel(sigma, radius)
    offsets = np.arange(-radius, radius + 1)
    kernel2d = np.zeros((h, w))
    np.add.at(kernel2d, np.ix_(offsets % h, offsets % w), np.outer(taps, taps))
    spectrum = np.fft.fft2(images) * np.fft.fft2(kernel2d)
    return np.fft.ifft2(spectrum).real


@pytest.mark.parametrize("shape, sigma, radius", [
    ((3, 12, 20), 2.0, 7),  # radius past half the short side: taps fold
    ((1, 64, 64), 3.0, 9),
])
def test_blur_matches_fft_circular_convolution(shape, sigma, radius):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4,) + shape)
    op = CircularBlurOperator(*shape, sigma=sigma, kernel_radius=radius)
    oracle = fft_circular_blur(x, sigma, radius).reshape(4, -1)
    assert np.allclose(op.apply(x.reshape(4, -1)), oracle, atol=1e-12)


def test_blur_to_spectral_matches_kronecker_basis():
    c, h, w = 2, 6, 10
    op = CircularBlurOperator(c, h, w, sigma=1.3)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, c * h * w))
    basis = np.kron(_real_dft_basis(h), _real_dft_basis(w))  # (h w, h w)
    coef = x.reshape(3, c, h * w) @ basis
    # spectral index k of channel ch sits at k * c + ch
    expected = coef[:, :, op._perm].transpose(0, 2, 1).reshape(3, -1)
    assert np.allclose(op.to_spectral(x), expected, atol=1e-12)


def test_blur_spectral_round_trip_at_64():
    op = CircularBlurOperator(1, 64, 64, sigma=3.0)
    x = np.random.default_rng(13).standard_normal((2, op.n))
    assert np.allclose(op.from_spectral(op.to_spectral(x)), x, rtol=0.0, atol=1e-12)


def test_blur_wraps_kernel_on_short_axis():
    # radius 3 on a length-4 ring folds taps onto each other
    op = CircularBlurOperator(1, 1, 4, sigma=2.0, kernel_radius=3)
    assert op._wrapped_w.sum() == pytest.approx(1.0)
    y = op.apply(np.full(4, 2.0))
    assert np.allclose(y, 2.0)


def test_inpaint_centered_mask_keeps_588_of_784():
    mask = centered_square_mask(28, 28)
    assert mask.sum() == 588
    op = make_centered_square_inpaint(1, 28, 28)
    assert op.m == 588 and op.n == 784


def test_centered_mask_is_flip_invariant_on_every_grid():
    for size in range(1, 71):
        mask = centered_square_mask(size, size)
        assert np.array_equal(mask, mask[::-1]) and np.array_equal(mask, mask[:, ::-1]), size
        # the hidden square's side is at most half the grid's
        assert (~mask).sum() <= (size // 2) ** 2
        # as conditioning reads it: the grid of the kept pixels
        grid = np.zeros(size * size, dtype=bool)
        grid[make_centered_square_inpaint(1, size, size).selection()] = True
        assert np.array_equal(grid.reshape(size, size), mask)


def test_inpaint_selects_and_adjoint_zero_fills():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    op = InpaintOperator(1, 2, 2, mask)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(op.apply(x), [1.0, 4.0])
    assert np.array_equal(op.adjoint(np.array([5.0, 6.0])), [5.0, 0.0, 0.0, 6.0])


def test_inpaint_multichannel_orders_by_channel():
    mask = np.array([[True, False]])
    op = InpaintOperator(2, 1, 2, mask)
    x = np.array([1.0, 2.0, 3.0, 4.0])  # channel 0: [1, 2], channel 1: [3, 4]
    assert np.array_equal(op.apply(x), [1.0, 3.0])


def test_nonlinear_blur_reduces_to_linear_at_small_saturation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(36) * 0.1
    lin = CircularBlurOperator(1, 6, 6, sigma=1.0)
    non = make_synthetic_nonlinear_blur(1, 6, 6, sigma=1.0, saturation=1e-4)
    assert np.allclose(non.apply(x), lin.apply(x), atol=1e-8)


def test_nonlinear_blur_saturates_large_values():
    non = make_synthetic_nonlinear_blur(1, 4, 4, sigma=0.8, saturation=2.0)
    y = non.apply(np.full(16, 100.0))
    assert np.all(y <= 0.5 + 1e-12)  # tanh ceiling at 1/saturation


def test_measurement_model_seeded_and_noiseless():
    op = IdentityOperator(1, 2, 2)
    model = MeasurementModel(operator=op, sigma_y=0.1)
    x = np.arange(4.0)
    assert np.array_equal(model.degrade(x, seed=9), model.degrade(x, seed=9))
    assert not np.array_equal(model.degrade(x, seed=9), model.degrade(x, seed=10))
    exact = MeasurementModel(operator=op, sigma_y=0.0)
    assert np.array_equal(exact.degrade(x, seed=9), x)


def test_measurement_model_one_seed_per_row():
    op = make_gaussian_blur(1, 4, 4, sigma=1.0)
    model = MeasurementModel(operator=op, sigma_y=0.1)
    xs = np.random.default_rng(0).standard_normal((3, 16))
    stacked = model.degrade(xs, seed=[4, 9, 2])
    for row, x, seed in zip(stacked, xs, [4, 9, 2]):
        assert np.array_equal(row, model.degrade(x, seed=seed))
    for bad_seed in ([4, 9], 4):
        with pytest.raises(ValueError, match="one seed per row"):
            model.degrade(xs, seed=bad_seed)


def test_dimension_and_parameter_errors():
    with pytest.raises(ValueError):
        BlockDownsampleOperator(1, 5, 4, 2)
    with pytest.raises(ValueError):
        InpaintOperator(1, 2, 2, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        InpaintOperator(1, 2, 2, np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0, 3)
    with pytest.raises(ValueError):
        make_synthetic_nonlinear_blur(1, 4, 4, sigma=1.0, saturation=0.0)
    with pytest.raises(ValueError):
        MeasurementModel(operator=IdentityOperator(1, 2, 2), sigma_y=-0.1)
    op = IdentityOperator(1, 2, 2)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))

