"""Output checks computed apart from the program under test.

Nothing here imports ``cminverse``.  Tensor files are parsed from their
documented byte layout, forward models are rebuilt from their
definitions (Gaussian taps applied by FFT, the centred-square mask), and
Gaussian posteriors are solved in plain numpy.  Every check returns a
``Check``; the benchmark charges a failed check to the stage whose
output it inspected.

Monte Carlo checks accept a deviation of up to ``Z_LIMIT`` standard
errors, so a correct program fails one of them with probability below
1e-6 per check.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

Z_LIMIT = 5.0
# An exact posterior sampler puts its draws at mean squared distance
# MMSE from the posterior mean; a point estimate at the mean puts them at
# 0.  Draws farther out than this many MMSEs are not posterior samples.
SPREAD_LIMIT = 3.0
PSNR_TOL_DB = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


# --------------------------------------------------------------------------
# files
# --------------------------------------------------------------------------

def read_cmt(path: str) -> np.ndarray:
    """Parse a CMT1 tensor file: magic, u32 ndim, u32 dims, float32 data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CMT1":
        raise ValueError(f"{path}: bad magic")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    data = np.frombuffer(blob, dtype="<f4", offset=8 + 4 * ndim)
    if data.size != math.prod(dims):
        raise ValueError(f"{path}: payload does not match dims {dims}")
    return data.reshape(dims)


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_stack(directory: str, names) -> np.ndarray:
    """(N, n) float32 stack of the named tensor files, flattened."""
    return np.stack([read_cmt(os.path.join(directory, name)).ravel() for name in names])


# --------------------------------------------------------------------------
# forward models and priors, from their definitions
# --------------------------------------------------------------------------

def blur_taps(sigma: float, length: int) -> np.ndarray:
    """Unit-sum Gaussian taps at radius ceil(3 sigma), wrapped onto a ring."""
    radius = max(1, math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 * (offsets / sigma) ** 2)
    ring = np.zeros(length)
    np.add.at(ring, offsets % length, taps / taps.sum())
    return ring


class CircularBlur:
    """Separable circular Gaussian blur, applied through the 2-D FFT."""

    def __init__(self, height: int, width: int, sigma: float):
        self.shape = (height, width)
        self.n = self.m = height * width
        self._spectrum = np.outer(
            np.fft.fft(blur_taps(sigma, height)), np.fft.fft(blur_taps(sigma, width))
        )
        self.sigma = sigma

    def apply(self, x: np.ndarray) -> np.ndarray:
        img = np.asarray(x, dtype=np.float64).reshape(-1, *self.shape)
        out = np.fft.ifft2(np.fft.fft2(img) * self._spectrum).real
        return out.reshape(img.shape[0], -1)

    def matrix(self) -> np.ndarray:
        """Dense (m, n) matrix: Kronecker product of the two circulants."""
        h, w = self.shape
        ring_h, ring_w = blur_taps(self.sigma, h), blur_taps(self.sigma, w)
        circ_h = ring_h[(np.arange(h)[:, None] - np.arange(h)[None, :]) % h]
        circ_w = ring_w[(np.arange(w)[:, None] - np.arange(w)[None, :]) % w]
        return np.kron(circ_h, circ_w)


class CentredSquareInpaint:
    """Keeps every pixel outside a centred square of half the side length."""

    def __init__(self, height: int, width: int):
        side_h, side_w = height // 2, width // 2
        top, left = (height - side_h) // 2, (width - side_w) // 2
        rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        hidden = (
            (rows >= top) & (rows < top + side_h) & (cols >= left) & (cols < left + side_w)
        )
        self.kept = np.flatnonzero(~hidden.ravel())
        self.n = height * width
        self.m = self.kept.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64).reshape(-1, self.n)[:, self.kept]

    def matrix(self) -> np.ndarray:
        return np.eye(self.n)[self.kept]


def rbf_prior(height: int, width: int, length_scale: float, variance: float,
              mean_level: float):
    """Mean and covariance of the squared-exponential image prior.

    The covariance carries the documented 1e-10 * variance diagonal jitter.
    """
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    coords = np.stack([rows.ravel(), cols.ravel()], axis=1).astype(np.float64)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    cov = variance * np.exp(-d2 / (2.0 * length_scale**2))
    cov[np.diag_indices_from(cov)] += 1e-10 * variance
    return np.full(height * width, mean_level), cov


class GaussianPosterior:
    """x | y for x ~ N(mu, S) and y = A x + sigma_y e, by Cholesky solves."""

    def __init__(self, mean, cov, a: np.ndarray, sigma_y: float):
        self.mean, self.a = mean, a
        self.n = mean.size
        s_at = cov @ a.T
        gram = a @ s_at + sigma_y**2 * np.eye(a.shape[0])
        chol = np.linalg.cholesky(gram)
        half = np.linalg.solve(chol, s_at.T)  # L^-1 A S
        self.gain = np.linalg.solve(chol.T, half).T  # S A^T G^-1
        post = cov - half.T @ half
        self.cov = (post + post.T) / 2.0
        self.mmse = float(np.trace(self.cov)) / self.n
        self.trace_sq = float(np.sum(self.cov * self.cov))

    def means(self, y: np.ndarray) -> np.ndarray:
        return self.mean + (y - self.a @ self.mean) @ self.gain.T


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def check_noise(x, y, forward, sigma_y: float) -> Check:
    """(y - A x) / sigma_y must be standard normal: unit mean square."""
    r = (np.asarray(y, dtype=np.float64) - forward.apply(x)) / sigma_y
    ms = float(np.mean(r * r))
    se = math.sqrt(2.0 / r.size)
    z = (ms - 1.0) / se
    return Check("noise_unit_rms", abs(z) <= Z_LIMIT,
                 f"mean square {ms:.6f} over {r.size} values, z={z:.2f}")


def check_gaussian_dataset(x, mean, cov) -> Check:
    """Mean squared deviation from the prior mean matches trace(S) / n."""
    n = mean.size
    dev = np.asarray(x, dtype=np.float64) - mean
    per_image = np.einsum("ij,ij->i", dev, dev) / n
    target = float(np.trace(cov)) / n
    se = math.sqrt(2.0 * float(np.sum(cov * cov))) / n / math.sqrt(len(per_image))
    z = (float(per_image.mean()) - target) / se
    return Check("dataset_prior_spread", abs(z) <= Z_LIMIT,
                 f"mean sq {per_image.mean():.6g} vs {target:.6g}, z={z:.2f}")


def check_gaussian_recon(x, x_hat, post_means, posterior: GaussianPosterior,
                         label: str) -> list:
    """Reconstruction error against the exact posterior of each image.

    With e = ||x - x_hat||^2 / n and d = ||x_hat - E[x|y]||^2 / n, the
    identity e = ||x - E[x|y]||^2 / n + d - 2 <x - E[x|y], x_hat - E[x|y]> / n
    holds per image.  For any x_hat made from y and randomness of its own,
    the first term averages to the MMSE and the cross term to zero, so
    mean(e - d) - MMSE is zero within its standard error, and mean(e) is
    at least the MMSE less that margin.
    """
    n = posterior.n
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    v = x_hat - post_means
    e = np.einsum("ij,ij->i", x - x_hat, x - x_hat) / n
    d = np.einsum("ij,ij->i", v, v) / n
    # Var(||u||^2) = 2 tr(S_post^2) and Var(<u, v> | v) = v' S_post v for
    # u = x - E[x|y] ~ N(0, S_post), independent of v; the two terms are
    # uncorrelated.
    v_sv = np.einsum("ij,jk,ik->i", v, posterior.cov, v)
    se = math.sqrt(2.0 * posterior.trace_sq + 4.0 * float(v_sv.mean())) / n
    se /= math.sqrt(len(e))
    mmse, mse, spread = posterior.mmse, float(e.mean()), float(d.mean())
    z_orth = (mse - spread - mmse) / se
    return [
        Check(f"{label}:mse_at_least_mmse", mse >= mmse - Z_LIMIT * se,
              f"mse {mse:.6g}, mmse {mmse:.6g}, se {se:.3g}"),
        Check(f"{label}:orthogonality", abs(z_orth) <= Z_LIMIT,
              f"mse - spread - mmse = {mse - spread - mmse:.4g}, z={z_orth:.2f}"),
        Check(f"{label}:posterior_spread", spread <= SPREAD_LIMIT * mmse,
              f"mean ||x_hat - E[x|y]||^2/n = {spread:.6g} = "
              f"{spread / mmse:.3f} mmse"),
    ]


def map_atoms(y, atoms, forward) -> np.ndarray:
    """Index of argmin_j ||y_i - A a_j||^2 for every measurement."""
    a_atoms = forward.apply(atoms)
    y = np.asarray(y, dtype=np.float64)
    dist = (
        np.einsum("ij,ij->i", y, y)[:, None]
        - 2.0 * y @ a_atoms.T
        + np.einsum("ij,ij->i", a_atoms, a_atoms)[None, :]
    )
    return np.argmin(dist, axis=1)


def check_map_atoms(x_hat, y, atoms, forward) -> Check:
    """Every reconstruction is, to float32, the MAP atom of its measurement."""
    best = map_atoms(y, atoms, forward)
    wrong = [i for i, j in enumerate(best)
             if not np.array_equal(np.asarray(x_hat[i], dtype=np.float32), atoms[j])]
    return Check("map_atom", not wrong,
                 f"{len(wrong)} of {len(best)} reconstructions differ from the MAP atom"
                 + (f" (first: {wrong[0]})" if wrong else ""))


def check_dataset_atoms(x, atoms) -> Check:
    """Every dataset image is one of the atoms, bit for bit."""
    keys = {row.tobytes() for row in np.asarray(atoms, dtype=np.float32)}
    stray = sum(row.tobytes() not in keys for row in np.asarray(x, dtype=np.float32))
    return Check("dataset_atoms", stray == 0, f"{stray} images are not atoms")


def psnr_db(x, x_hat) -> np.ndarray:
    diff = np.asarray(x, dtype=np.float64) - np.asarray(x_hat, dtype=np.float64)
    mse = np.mean(diff * diff, axis=1)
    return np.where(mse == 0.0, np.inf, 10.0 * np.log10(1.0 / np.where(mse == 0.0, 1.0, mse)))


def check_psnr_report(x, x_hat, report_rows, label: str) -> Check:
    """Per-image and mean PSNR of the report match the written files."""
    expected = psnr_db(x, x_hat)
    per_image = [row for row in report_rows if "index" in row]
    aggregate = [row for row in report_rows if row.get("record") == "aggregate"]
    if len(per_image) != len(expected) or len(aggregate) != 1:
        return Check(f"{label}:psnr", False, "report rows do not match the image count")
    got = np.array([row["psnr"] for row in sorted(per_image, key=lambda r: r["index"])],
                   dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf where both are exact
        gap = float(np.max(np.where(got == expected, 0.0, np.abs(got - expected))))
    agg, agg_expected = aggregate[0]["psnr"], float(np.mean(expected))
    agg_gap = 0.0 if agg == agg_expected else abs(agg - agg_expected)
    return Check(f"{label}:psnr", gap <= PSNR_TOL_DB and agg_gap <= PSNR_TOL_DB,
                 f"max per-image gap {gap:.3g} dB, aggregate gap {agg_gap:.3g} dB")


def check_tune_report(rows, grid) -> Check:
    """One row per candidate, and the best row is the lowest-KID one."""
    candidates = [row for row in rows if row.get("record") != "best"]
    best = [row for row in rows if row.get("record") == "best"]
    if sorted(row["gamma"] for row in candidates) != sorted(grid) or len(best) != 1:
        return Check("tune:ranking", False, "tune report rows do not match the grid")
    lowest = min(candidates, key=lambda row: row["kid_x1000"])
    return Check("tune:ranking", best[0]["gamma"] == lowest["gamma"],
                 f"best gamma {best[0]['gamma']:g}, lowest KID at {lowest['gamma']:g}")


def check_verify_report(rows) -> Check:
    failed = [row["check_name"] for row in rows if not row["passed"]]
    return Check("verify:report", bool(rows) and not failed,
                 f"{len(rows)} checks, failed: {failed}")


class WorkloadReference:
    """Independent model of one workload, from its config sections.

    Builds the forward model and, for Gaussian priors, the exact
    posterior (which depends on the config alone, not on the seed), then
    checks the outputs each stage wrote under an output directory.
    """

    def __init__(self, workload: dict, gamma_grid):
        data, op = workload["dataset"], workload["operator"]
        self.h, self.w = data["height"], data["width"]
        self.count = data["count"]
        self.sigma_y = op["sigma_y"]
        self.gaussian = data["generator"] == "gaussian_prior"
        self.grid = tuple(gamma_grid)
        if workload["experiment"]["task"] == "deblur":
            self.forward = CircularBlur(self.h, self.w, op["sigma"])
        else:
            self.forward = CentredSquareInpaint(self.h, self.w)
        self.posterior = None
        if self.gaussian:
            self.mean, self.cov = rbf_prior(self.h, self.w, data["length_scale"],
                                            data["variance"], data["mean_level"])

    def _posterior(self):
        if self.posterior is None:
            self.posterior = GaussianPosterior(self.mean, self.cov, self.forward.matrix(),
                                               self.sigma_y)
        return self.posterior

    def check_round(self, out: str) -> dict:
        """Stage name -> list of Check for the outputs under ``out``."""
        results, state = {}, {}
        for stage, fn in (("synthesize", self._synthesize), ("degrade", self._degrade),
                          ("sample", self._sample), ("evaluate", self._evaluate),
                          ("tune-gamma", self._tune), ("verify", self._verify)):
            try:
                results[stage] = fn(out, state)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                results[stage] = [Check(f"{stage}:outputs", False, f"unreadable: {exc}")]
        return results

    def _recon(self, recon_dir):
        rows = read_jsonl(os.path.join(recon_dir, "sample.jsonl"))
        return read_stack(recon_dir, [row["reconstruction"] for row in rows])

    def _recon_checks(self, x_hat, state, label):
        if not self.gaussian:
            return [check_map_atoms(x_hat, state["y"], state["atoms"], self.forward)]
        if "post_means" not in state:
            state["post_means"] = self._posterior().means(
                np.asarray(state["y"], dtype=np.float64))
        return check_gaussian_recon(state["x"], x_hat, state["post_means"],
                                    self._posterior(), label)

    def _synthesize(self, out, state):
        ds = os.path.join(out, "dataset")
        rows = read_jsonl(os.path.join(ds, "dataset.jsonl"))
        state["x"] = x = read_stack(ds, [row["file"] for row in rows])
        found = [Check("dataset:count", x.shape == (self.count, self.h * self.w),
                       f"{x.shape} images")]
        if self.gaussian:
            return found + [check_gaussian_dataset(x, self.mean, self.cov)]
        atoms = read_cmt(os.path.join(ds, "atoms.cmt"))
        state["atoms"] = atoms.reshape(atoms.shape[0], -1)
        return found + [check_dataset_atoms(x, state["atoms"])]

    def _degrade(self, out, state):
        deg = os.path.join(out, "degraded")
        rows = read_jsonl(os.path.join(deg, "degrade.jsonl"))
        state["y"] = y = read_stack(deg, [row["measurement"] for row in rows])
        return [check_noise(state["x"], y, self.forward, self.sigma_y)]

    def _sample(self, out, state):
        state["x_hat"] = x_hat = self._recon(os.path.join(out, "recon"))
        return self._recon_checks(x_hat, state, "sample")

    def _evaluate(self, out, state):
        rows = read_jsonl(os.path.join(out, "reports", "evaluate.jsonl"))
        return [check_psnr_report(state["x"], state["x_hat"], rows, "evaluate")]

    def _tune(self, out, state):
        report = os.path.join(out, "reports", "tune.jsonl")
        if not os.path.isfile(report):
            return []  # the workload does not tune
        found = [check_tune_report(read_jsonl(report), self.grid)]
        for gamma in self.grid:
            label = f"gamma_{gamma:g}"
            x_hat = self._recon(os.path.join(out, "tune", label))
            found += self._recon_checks(x_hat, state, label)
            rows = read_jsonl(os.path.join(out, "reports", f"tune_{label}.jsonl"))
            found.append(check_psnr_report(state["x"], x_hat, rows, label))
        return found

    def _verify(self, out, state):
        report = os.path.join(out, "reports", "verify.jsonl")
        if not os.path.isfile(report):
            return []  # the workload does not verify
        return [check_verify_report(read_jsonl(report))]
