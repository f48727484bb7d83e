"""Flat torus backgrounds and the pseudo-spectral differentiation toolkit.

Complex coordinates z_j = x_j + i*y_j on the unit torus (all real periods
equal to 1); a field lives on a uniform grid with N points per real
coordinate, stored with axis order (x_1, y_1, ..., x_n, y_n).  Derivatives
are exact on the discrete Fourier basis: on the mode
exp(2*pi*i*(k.x + l.y)) the operator d/dz_j d/dzbar_k acts as
-pi^2 * w_j * conj(w_k) with w = l + i*k.

One kernel computes every metric quantity.  A real field is transformed
once with rfftn; each real component of its Hessian (H_00, and for n = 2
also H_11, Re H_01, Im H_01) is one irfftn of that spectrum times a real
symbol table.  The metric g0 + H, its determinant, eigenvalues, inverse
and traces, and the Ricci form -H(log det) all follow pointwise from
these components.  Nyquist convention: the half spectrum carries the
wavenumber N/2 as -N/2 (numpy's fftfreq), and irfftn extends each product
to the other half by Hermitian symmetry, so every component is a real
field; on the Nyquist planes H_01 therefore differs from a complex inverse
transform of the full-grid symbol, which is not even there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class AdmissibilityError(ValueError):
    """The candidate metric lost positivity (min eigenvalue below floor or not finite)."""

    def __init__(self, min_eig: float, location: tuple[int, ...], floor: float):
        if np.isfinite(min_eig):
            what = f"min eigenvalue {min_eig:.3e} < floor {floor:.1e}"
        else:
            what = f"non-finite metric eigenvalue ({min_eig})"
        super().__init__(f"metric positivity lost: {what} at grid index {location}")
        self.min_eig = min_eig
        self.location = location
        self.floor = floor


def _as_g0(n: int, g0) -> np.ndarray:
    arr = np.asarray(g0, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.shape != (n, n):
        raise ValueError(f"g0 must be {n}x{n}, got {arr.shape}")
    if not np.allclose(arr, arr.conj().T, atol=1e-14):
        raise ValueError("g0 must be Hermitian")
    eig = np.linalg.eigvalsh(arr)
    if eig.min() <= 0:
        raise ValueError(f"g0 must be positive definite (eigenvalues {eig})")
    return arr


@dataclass
class TorusBackground:
    """Constant Hermitian background metric on the unit flat torus.

    The reference volume density is det(g0) * exp(f) with f a real field on
    the grid ("twist"); f = 0 gives the metric's own density.  The twist is
    expected mean-zero so the reference total volume matches the metric
    one; a nonzero mean is allowed but makes the untwisted stationary
    problem unsolvable (callers may warn).
    """

    n: int
    N: int
    g0: np.ndarray
    f: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("complex dimension must be 1 or 2")
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise ValueError("grid resolution must be a power of two, >= 4")
        self.g0 = _as_g0(self.n, self.g0)
        if self.f is not None:
            self.f = np.asarray(self.f, dtype=float)
            if self.f.shape != self.shape:
                raise ValueError(f"twist field must have shape {self.shape}")
        self._build_symbols()

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def npoints(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def det_g0(self) -> float:
        return float(np.linalg.det(self.g0).real)

    @property
    def log_density(self) -> np.ndarray:
        """log of the reference density relative to the coordinate measure."""
        return self._log_density

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid arrays (x_1, y_1, ..., x_n, y_n) over the grid."""
        axes = [np.arange(self.N) / self.N] * (2 * self.n)
        return list(np.meshgrid(*axes, indexing="ij"))

    def field_from_modes(self, modes: Sequence[tuple]) -> np.ndarray:
        """Real field from (frequency, cos_amp, sin_amp) triples.

        Frequencies are integer tuples of length 2n ordered like the grid
        axes; the all-zero frequency contributes a constant offset.
        """
        coords = self.coordinates()
        out = np.zeros(self.shape)
        for freq, cos_amp, sin_amp in modes:
            freq = tuple(int(v) for v in freq)
            if len(freq) != 2 * self.n:
                raise ValueError(f"frequency {freq} must have length {2 * self.n}")
            phase = np.zeros(self.shape)
            for ax, fv in enumerate(freq):
                if fv:
                    phase = phase + 2.0 * np.pi * fv * coords[ax]
            out += float(cos_amp) * np.cos(phase) + float(sin_amp) * np.sin(phase)
        return out

    # -- spectral machinery --------------------------------------------------

    def _build_symbols(self) -> None:
        n, N = self.n, self.N
        freqs = np.fft.fftfreq(N) * N  # integer wavenumbers, Nyquist at -N/2
        absk = np.meshgrid(*([np.abs(freqs)] * (2 * n)), indexing="ij")
        self._tail_mask = np.max(absk, axis=0) >= N / 3.0
        # the last axis of an rfftn holds the wavenumbers 0..N/2-1 and -N/2
        grids = np.meshgrid(
            *([freqs] * (2 * n - 1) + [freqs[: N // 2 + 1]]), indexing="ij"
        )
        # w_j = l_j + i k_j where k is the x_j frequency, l the y_j frequency
        w = [grids[2 * j + 1] + 1j * grids[2 * j] for j in range(n)]

        def symbol(j, k):
            return -(np.pi**2) * w[j] * w[k].conj()

        g0 = self.g0
        self._axes = tuple(range(2 * n))
        self._symbols = [symbol(0, 0).real]
        self._g0_parts = [g0[0, 0].real]
        if n == 2:
            off = symbol(0, 1)
            self._symbols += [symbol(1, 1).real, off.real, off.imag]
            self._g0_parts += [g0[1, 1].real, g0[0, 1].real, g0[0, 1].imag]
        base = np.log(self.det_g0)
        self._log_density = (
            np.full(self.shape, base) if self.f is None else base + self.f
        )

    def _hessian_parts(self, psi: np.ndarray) -> list[np.ndarray]:
        """Components of H(psi): [H_00], or [H_00, H_11, Re H_01, Im H_01].

        The package's one Hessian transform: one rfftn, then one irfftn per
        real component.
        """
        psik = np.fft.rfftn(psi, axes=self._axes)
        return [
            np.fft.irfftn(sym * psik, s=self.shape, axes=self._axes)
            for sym in self._symbols
        ]

    def _metric_parts(self, phi: np.ndarray) -> list[np.ndarray]:
        """Components [a] or [a, d, p, q] of g0 + H(phi), see ``_det_and_eigs``."""
        parts = self._hessian_parts(phi)
        for part, base in zip(parts, self._g0_parts):
            part += base
        return parts

    def fast_metric_fields(
        self, phi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(det, min eigenvalue, max eigenvalue) fields of g0 + H(phi)."""
        return _det_and_eigs(self._metric_parts(phi))

    def complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """Mixed complex Hessian of a real field, shape grid + (n, n).

        Hermitian at every grid point, diagonal entries real.
        """
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self.shape:
            raise ValueError(f"field must have shape {self.shape}")
        return _hermitian(self._hessian_parts(phi))

    def tail_energy_fraction(self, phi: np.ndarray) -> float:
        """Spectral energy fraction in the outer third of wavenumbers."""
        phik = np.fft.fftn(phi)
        power = np.abs(phik) ** 2
        power.flat[0] = 0.0  # ignore the mean
        total = power.sum()
        if total < 1e-30:
            return 0.0
        return float(power[self._tail_mask].sum() / total)

    # -- linearization oracle -------------------------------------------------

    def heat_rates(self) -> np.ndarray:
        """Sorted distinct positive decay rates of the flat-background heat operator.

        The Laplacian of g0 is tr(g0^{-1} H), so on each grid mode it acts
        as the trace of g0^{-1} against the Hessian symbol, which is
        -pi^2 <w, g0^{-1} w> with w = l + i*k; the rates are its negatives.
        """
        rates = -_trace_ratio(self._g0_parts, self.det_g0, self._symbols)
        return np.unique(rates[rates > 0])

    def lowest_heat_rate(self) -> float:
        return float(self.heat_rates()[0])


# A pointwise Hermitian field is carried as its real components: [a] for
# n = 1, and [a, d, p, q] for n = 2, meaning [[a, p + i q], [p - i q, d]].


def _det_and_eigs(g: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det, min and max eigenvalue of the pointwise metric g (closed forms)."""
    if len(g) == 1:
        (a,) = g
        return a, a, a
    a, d, p, q = g
    det = a * d - (p * p + q * q)
    half_tr = 0.5 * (a + d)
    gap = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + p * p + q * q, 0.0))
    return det, half_tr - gap, half_tr + gap


def _trace_ratio(g: list, det, h: list) -> np.ndarray:
    """tr(g^{-1} h) for pointwise Hermitian g (determinant det) and h."""
    if len(g) == 1:
        return h[0] / g[0]
    a, d, p, q = g
    ha, hd, hp, hq = h
    return (d * ha + a * hd - 2.0 * (p * hp + q * hq)) / det


def _hermitian(h: list) -> np.ndarray:
    """The field h as a complex array of shape grid + (n, n)."""
    n = 1 if len(h) == 1 else 2
    out = np.empty(h[0].shape + (n, n), dtype=complex)
    out[..., 0, 0] = h[0]
    if n == 2:
        _, d, p, q = h
        out[..., 1, 1] = d
        out[..., 0, 1] = p + 1j * q
        out[..., 1, 0] = p - 1j * q
    return out


def metric_determinant_and_eigs(
    g0: np.ndarray, H: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det, min and max eigenvalue fields of g0 + H for a Hessian array H."""
    g = [g0[0, 0].real + H[..., 0, 0].real]
    if g0.shape[0] == 2:
        b = g0[0, 1] + H[..., 0, 1]
        g += [g0[1, 1].real + H[..., 1, 1].real, b.real, b.imag]
    return _det_and_eigs(g)
