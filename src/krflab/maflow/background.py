"""Flat torus backgrounds and the pseudo-spectral differentiation toolkit.

Complex coordinates z_j = x_j + i*y_j on the unit torus (all real periods
equal to 1); a field lives on a uniform grid with N points per real
coordinate, stored with axis order (x_1, y_1, ..., x_n, y_n).  Derivatives
are exact on the discrete Fourier basis: on the mode
exp(2*pi*i*(k.x + l.y)) the operator d/dz_j d/dzbar_k acts as
-pi^2 * w_j * conj(w_k) with w = l + i*k.

One kernel computes every metric quantity from the rfftn half spectrum
vk of the potential.  For n = 1 the one Hessian component H_00 is one
inverse real transform (``field``) of vk times its symbol table.  For
n = 2 the kernel forms phi = field(vk) once and applies real circulant
matrices to it along one axis at a time (``_axis_hessian``), the
spectral operator to round-off, Nyquist terms included, with no
transform per component; at n = 1's sizes the extra passes would cost
more than the one transform they replace.  The metric g0 + H, its
determinant, eigenvalues, inverse and traces, and the Ricci form
-H(log det) follow pointwise from these components.  ``spectrum`` is
rfftn to the bit, and ``field`` gives irfftn's field, by DFT matrices on
grids of up to MATRIX_MAX_N points per axis.  Nyquist convention: the half
spectrum carries the wavenumber N/2 as -N/2 (numpy's fftfreq), and the
inverse extends each product to the other half by Hermitian symmetry, so
every component is a real field; on the Nyquist planes H_01 therefore
differs from a complex inverse transform of the full-grid symbol, which
is not even there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..cohomology import DomainError
from ..serialize import integer, number

#: the finest grid on which ``TorusBackground.field`` applies DFT matrices;
#: finer grids take numpy's irfftn
MATRIX_MAX_N = 32


class AdmissibilityError(DomainError):
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


def check_grid(N: int) -> None:
    """Raise ValueError unless N is a grid resolution the toolkit supports."""
    if N < 4 or (N & (N - 1)) != 0:
        raise ValueError(f"grid resolution must be a power of two, >= 4, got {N}")


def _check_dimensions(n: int, N: int) -> None:
    """Raise ValueError unless n is 1 or 2 and N is a supported resolution."""
    if n not in (1, 2):
        raise ValueError("complex dimension must be 1 or 2")
    check_grid(N)


def grid_coordinates(n: int, N: int) -> list[np.ndarray]:
    """Meshgrid arrays (x_1, y_1, ..., x_n, y_n) over the grid of N points per axis."""
    _check_dimensions(n, N)
    axes = [np.arange(N) / N] * (2 * n)
    return list(np.meshgrid(*axes, indexing="ij"))


def field_from_modes(n: int, N: int, modes: Sequence[tuple]) -> np.ndarray:
    """Real field on the grid from (frequency, cos_amp, sin_amp) triples.

    Frequencies are int tuples of length 2n ordered like the grid axes,
    amplitudes numbers (another type is a TypeError); the all-zero
    frequency contributes a constant offset.
    """
    coords = grid_coordinates(n, N)
    shape = coords[0].shape
    out = np.zeros(shape)
    for freq, cos_amp, sin_amp in modes:
        freq = tuple(integer(v, "a mode frequency") for v in freq)
        if len(freq) != 2 * n:
            raise ValueError(f"frequency {freq} must have length {2 * n}")
        phase = np.zeros(shape)
        for ax, fv in enumerate(freq):
            if fv:
                phase = phase + 2.0 * np.pi * fv * coords[ax]
        out += number(cos_amp, "cos") * np.cos(phase) + number(sin_amp, "sin") * np.sin(phase)
    return out


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
        _check_dimensions(self.n, self.N)
        self.g0 = _as_g0(self.n, self.g0)
        self.det_g0 = float(np.linalg.det(self.g0).real)
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
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def log_density(self) -> np.ndarray:
        """log of the reference density relative to the coordinate measure."""
        return self._log_density

    def coordinates(self) -> list[np.ndarray]:
        return grid_coordinates(self.n, self.N)

    def field_from_modes(self, modes: Sequence[tuple]) -> np.ndarray:
        return field_from_modes(self.n, self.N, modes)

    # -- spectral machinery --------------------------------------------------

    def _build_symbols(self) -> None:
        n, N = self.n, self.N
        freqs = np.fft.fftfreq(N) * N  # integer wavenumbers, Nyquist at -N/2
        # the last axis of an rfftn holds the wavenumbers 0..N/2-1 and -N/2
        grids = np.meshgrid(
            *([freqs] * (2 * n - 1) + [freqs[: N // 2 + 1]]), indexing="ij"
        )
        self._tail_mask = np.max(np.abs(grids), axis=0) >= N / 3.0
        # w_j = l_j + i k_j where k is the x_j frequency, l the y_j frequency
        w = [grids[2 * j + 1] + 1j * grids[2 * j] for j in range(n)]

        def symbol(j, k):
            return -(np.pi**2) * w[j] * w[k].conj()

        g0 = self.g0
        self._axes = tuple(range(2 * n))
        symbols = [symbol(0, 0).real]
        self._g0_parts = [g0[0, 0].real]
        if n == 2:
            off = symbol(0, 1)
            symbols += [symbol(1, 1).real, off.real, off.imag]
            self._g0_parts += [g0[1, 1].real, g0[0, 1].real, g0[0, 1].imag]
        self._laplacian = _trace_ratio(self._g0_parts, self.det_g0, symbols)
        self._laplacian.flags.writeable = False
        # n = 1 differentiates by its one symbol, held complex so that numpy
        # does not cast it in each product with a spectrum; n = 2 keeps no
        # symbol table once the Laplacian is formed (see _axis_hessian)
        self._symbol = symbols[0].astype(complex) if n == 1 else None
        # _mirror maps k to -k on the self-conjugate planes (last index 0
        # and N/2), of which irfftn reads only the conjugate-even part
        plane = np.arange(N ** (2 * n - 1)).reshape((N,) * (2 * n - 1))
        self._mirror = np.roll(np.flip(plane), 1, axis=tuple(range(2 * n - 1)))
        base = np.log(self.det_g0)
        self._log_density = (
            np.full(self.shape, base) if self.f is None else base + self.f
        )
        # the spectrum of log det that an n = 1 record reads is the stage's
        # spectrum of log(det / Omega) plus this; without a twist log Omega
        # is a constant, which no Hessian sees
        self._log_density_k = (
            self.spectrum(self._log_density) if n == 1 and self.f is not None else None
        )

    def spectrum(self, psi: np.ndarray) -> np.ndarray:
        """rfftn half spectrum of a real field on the grid, to the bit.

        It makes rfftn's own calls: an rfft along the last axis, then an
        fft along each other axis from the last to the first.
        """
        psik = np.fft.rfft(psi)
        for axis in range(2 * self.n - 2, -1, -1):
            psik = np.fft.fft(psik, axis=axis)
        return psik

    def field(self, psik: np.ndarray) -> np.ndarray:
        """Real field of an rfftn half spectrum (the inverse of ``spectrum``).

        The same field as irfftn, which reads only the real part of the
        planes 0 and N/2 after the complex axes.  Up to MATRIX_MAX_N points
        per axis it is one matrix product per axis: each complex axis by the
        N x N inverse DFT, then the half axis, its (re, im) pairs read as
        2(N/2 + 1) reals, by the real matrix of ``_inverse_dft_tables``.
        For n = 2 the outermost axis is numpy's ifft, so that each field
        is one numpy transform where profilers count them.
        """
        N = self.N
        if N > MATRIX_MAX_N:
            return np.fft.irfftn(psik, s=self.shape, axes=self._axes)
        inverse, half = _inverse_dft_tables(N)
        if self.n == 2:
            psik = np.fft.ifft(psik, axis=0)
        for j in range(self.n - 1, 2 * self.n - 1):  # from axis 1 for n = 2
            psik = np.matmul(inverse, psik.reshape(N**j, N, -1))
        pairs = psik.view(float).reshape(-1, N + 2)  # matmul's output is C-ordered
        return (pairs @ half).reshape(self.shape)

    def _even_planes(self, psik: np.ndarray) -> list[np.ndarray]:
        """Planes 0 and N/2 of the half spectrum of irfftn(psik): k and -k averaged.

        A spectrum from rfftn is already conjugate-even there; a linear
        combination of such spectra with coefficients that are odd on the
        Nyquist entries, as an ETD stage forms, need not be.  Off these
        planes the half spectrum of irfftn(psik) is psik itself.
        """
        return [
            0.5 * (plane + np.take(plane, self._mirror).conj())
            for plane in (psik[..., 0], psik[..., -1])
        ]

    def _spectral_hessian(self, psik: np.ndarray) -> list[np.ndarray]:
        """[H_00] of psi = irfftn(psik) for n = 1: one product and one ``field``."""
        return [self.field(self._symbol * psik)]

    def _axis_hessian(self, phi: np.ndarray) -> list[np.ndarray]:
        """[H_00, H_11, Re H_01, Im H_01] of a real n = 2 field, in physical space.

        With the circulants S, D, H and A of ``_axis_operators`` along the
        axes (x_1, y_1, x_2, y_2) = 0..3, subscripted by axis, h = N/2, and
        Pi_j y = sign_j * alt_j(y) / N, alt_j the alternating sum along j:

          H_00 = pi^2 (S_0 + S_1) phi,  H_11 = pi^2 (S_2 + S_3) phi,
          H_01 = pi^2 [(D_1 + i D_0)(u - i v) + (Pi_1 + i Pi_0)(a + i b)],

        u = D_3 phi, v = (D_2 - h Pi_2 H_3) phi, a = h A_3 phi and b = h (D_2
        H_3 + h Pi_2) phi.  The Pi terms are the half grid's: the spectral
        operator takes the Nyquist wavenumber of axes 0..2 as -N/2 where the
        half-axis wavenumber is 1..N/2-1, mirrors that to the other half, and
        averages the two on the planes 0 and N/2.  Pi_0 rides on the axis-0
        passes as one more input row; Pi_1 and Pi_2 are added as alternating
        rows.  phi.flat[0] is subtracted first, so that a constant field
        gives exact zeros.
        """
        N, h, shape = self.N, self.N // 2, self.shape
        ops = _axis_operators(N)
        x = phi - phi.flat[0]
        # alternating sums along axes 0, 1 and 2, over the other three axes
        alt = [
            np.matmul(ops.sign, x.reshape(N**j, N, -1)).reshape(N, N, N) for j in range(3)
        ]
        u = np.empty((N + 1,) + shape[1:])
        v = np.empty((N + 1,) + shape[1:])
        _along(ops.first, x, 3, out=u[:N].reshape(-1, N))
        _along(ops.first, x, 2, out=v[:N].reshape(N * N, N, N))
        _add_alternating(v[:N], 2, (-h / N) * (alt[2] @ ops.hilbert.T))
        # alt_0 and alt_1 of a and b, from those of phi
        ab = []
        for alt_j in alt[:2]:  # over the axes (0 or 1, 2, 3)
            a = h * (alt_j @ ops.absolute.T)
            b = h * np.matmul(ops.first, alt_j @ ops.hilbert.T)
            b += (h * h / N) * ops.sign[:, None] * np.matmul(ops.sign, alt_j)[:, None, :]
            ab.append((a, b))
        (a0, b0), (a1, b1) = ab
        u[N], v[N] = a0, -b0
        closing, inner = ops.closing, ops.closing[:, :N]
        re = np.matmul(inner, u[:N].reshape(N, N, -1)).reshape(shape)
        im = (closing @ u.reshape(N + 1, -1)).reshape(shape)
        # u is spent: the later passes land in it, so none allocates a
        # temporary grid
        spare = u[:N]
        np.matmul(closing, v.reshape(N + 1, -1), out=spare.reshape(N, -1))
        re += spare
        np.matmul(inner, v[:N].reshape(N, N, -1), out=spare.reshape(N, N, -1))
        im -= spare
        del v
        _add_alternating(re, 1, (np.pi**2 / N) * a1)
        _add_alternating(im, 1, (np.pi**2 / N) * b1)
        h00 = _along(ops.second, x, 0).reshape(shape)
        h00 += _along(ops.second, x, 1, out=spare.reshape(N, N, -1)).reshape(shape)
        h11 = _along(ops.second, x, 2).reshape(shape)
        h11 += _along(ops.second, x, 3, out=spare.reshape(-1, N)).reshape(shape)
        return [h00, h11, re, im]

    def fast_metric_fields(
        self, vk: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(components, det, min eigenvalue, phi) of g0 + H(phi), phi = irfftn(vk).

        The components are [a] or [a, d, p, q], see ``_det_and_min_eig``.
        n = 1 differentiates vk, one product and one ``field``, and returns
        phi as None; n = 2 forms phi, its one ``field``, and differentiates
        it along each axis.
        """
        if self.n == 1:
            phi, g = None, self._spectral_hessian(vk)
        else:
            phi = self.field(vk)
            g = self._axis_hessian(phi)
        for part, base in zip(g, self._g0_parts):
            part += base
        det, eig_min = _det_and_min_eig(g)
        return g, det, eig_min, phi

    def complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """Mixed complex Hessian of a real field, shape grid + (n, n).

        Hermitian at every grid point, diagonal entries real.
        """
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self.shape:
            raise ValueError(f"field must have shape {self.shape}")
        if self.n == 1:
            return _hermitian(self._spectral_hessian(self.spectrum(phi)))
        return _hermitian(self._axis_hessian(phi))

    def tail_energy_fraction(self, vk: np.ndarray) -> float:
        """Spectral energy fraction of irfftn(vk) in the outer third of wavenumbers.

        A last-axis wavenumber strictly between 0 and N/2 stands for itself
        and its mirror -k, which the half grid leaves out, so it weighs
        twice; the planes 0 and N/2 hold their own mirrors and weigh once.
        """
        power = vk.real**2 + vk.imag**2
        for j, plane in zip((0, -1), self._even_planes(vk)):
            power[..., j] = plane.real**2 + plane.imag**2
        power[..., 1:-1] *= 2.0
        power.flat[0] = 0.0  # ignore the mean
        total = power.sum()
        if total < 1e-30:
            return 0.0
        return float(power[self._tail_mask].sum() / total)

    # -- linearization ---------------------------------------------------------

    @property
    def laplacian_symbol(self) -> np.ndarray:
        """Fourier symbol of the g0-Laplacian on the rfftn half grid (real, <= 0, read-only).

        The Laplacian of g0 is tr(g0^{-1} H), so on each grid mode it acts
        as the trace of g0^{-1} against the Hessian symbol, which is
        -pi^2 <w, g0^{-1} w> with w = l + i*k.
        """
        return self._laplacian


@lru_cache(maxsize=None)
def _inverse_dft_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, R): the inverse DFT of a complex axis and of a half axis of N points.

    C[m, k] = exp(2*pi*i*k*m/N) / N, so C @ x is ifft(x).  R has the rows
    Re and Im of each half-axis wavenumber k = 0..N/2, interleaved, and
    R[2k, m] = w_k cos(2*pi*k*m/N) / N, R[2k+1, m] = -w_k sin(2*pi*k*m/N) / N
    with w_k = 1 on k = 0 and N/2 and 2 between, so that (re, im) pairs
    @ R is irfft: the imaginary parts of 0 and N/2 meet zero rows.  Every
    entry is looked up by its residue k*m mod N in one table of cosines
    folded onto [0, pi/4], so entries at multiples of pi/2 are exactly 0
    or +-1 and the column of k = 0 is exactly 1/N.
    """
    a = np.minimum(np.arange(N), N - np.arange(N))  # |residue| in 0..N/2
    turn = 2.0 * np.pi / N
    cos = np.where(
        8 * a <= N,
        np.cos(turn * a),
        np.where(8 * a < 3 * N, np.sin(turn * (N // 4 - a)), -np.cos(turn * (N // 2 - a))),
    )
    sin = cos[(np.arange(N) - N // 4) % N]  # sin(x) = cos(x - pi/2)
    full = np.outer(np.arange(N), np.arange(N)) % N
    inverse = (cos[full] + 1j * sin[full]) / N
    res = full[: N // 2 + 1]
    weight = np.full((N // 2 + 1, 1), 2.0)
    weight[[0, -1]] = 1.0
    half = np.stack([weight * cos[res], -weight * sin[res]], axis=1).reshape(N + 2, N) / N
    for table in (inverse, half):
        table.flags.writeable = False  # shared by every background with this N
    return inverse, half


class _AxisOperators(NamedTuple):
    """The real N x N circulants of ``_axis_hessian`` (see ``_axis_operators``)."""

    second: np.ndarray
    first: np.ndarray
    hilbert: np.ndarray
    absolute: np.ndarray
    closing: np.ndarray
    sign: np.ndarray


@lru_cache(maxsize=None)
def _axis_operators(N: int) -> _AxisOperators:
    """The operators of ``_axis_hessian`` on N points, by their multipliers
    on the integer wavenumber k, with h = N/2 the Nyquist one.

    second is pi^2 S, S <-> -k^2; first is D <-> i k, 0 at h; hilbert is
    H <-> i sgn k, 0 at 0 and h; absolute is A <-> |k|, -h at h.  closing
    is pi^2 D with the column pi^2 sign / N appended, for the last pass of
    H_01 along axis 0 with one more input row (its first N columns serve
    the last pass along axis 1).  sign is the row (-1)^m, so that the
    Nyquist projector is outer(sign, sign) / N.  Entry (m, m') of the
    circulant of multipliers c_k is (1/N) sum_k c_k exp(2 pi i k (m - m')
    / N), real for each of these, read off ``_inverse_dft_tables``.
    """
    inverse, _ = _inverse_dft_tables(N)
    k = np.fft.fftfreq(N) * N  # the Nyquist wavenumber as -h
    h = N // 2
    first = np.where(k == -h, 0.0, k)
    absolute = np.abs(k)
    absolute[h] = -h
    lag = (np.arange(N)[:, None] - np.arange(N)) % N

    def circulant(multipliers):
        return (inverse @ multipliers).real[lag]

    sign = (-1.0) ** np.arange(N)
    ops = _AxisOperators(
        second=circulant(-(np.pi**2) * k * k + 0j),
        first=circulant(1j * first),
        hilbert=circulant(1j * np.sign(first)),
        absolute=circulant(absolute + 0j),
        closing=np.column_stack([np.pi**2 * circulant(1j * first), (np.pi**2 / N) * sign]),
        sign=sign,
    )
    for table in ops:
        table.flags.writeable = False  # shared by every background with this N
    return ops


def _along(M: np.ndarray, x: np.ndarray, axis: int, out=None) -> np.ndarray:
    """M times the C-ordered grid array x along one axis, as one matmul.

    The result keeps the matmul's shape, which reshapes to the grid.
    """
    N = x.shape[axis]
    if axis == x.ndim - 1:
        return np.matmul(x.reshape(-1, N), M.T, out=out)
    return np.matmul(M, x.reshape(N**axis, N, -1), out=out)


def _add_alternating(out: np.ndarray, axis: int, r: np.ndarray) -> None:
    """out += sign_axis * r in place, r holding out's shape without that axis.

    The rows along the axis are taken in (even, odd) pairs, so that r
    enters as one small (+r, -r) block; out must be C-contiguous (setting
    the shape of a view raises otherwise).
    """
    N = out.shape[axis]
    before = int(np.prod(out.shape[:axis], dtype=int))
    after = r.size // before
    pairs = out.view()
    pairs.shape = (before, N // 2, 2 * after)
    pairs += (r.reshape(before, 1, after) * np.array([1.0, -1.0])[:, None]).reshape(
        before, 1, 2 * after
    )


# A pointwise Hermitian field is carried as its real components: [a] for
# n = 1, and [a, d, p, q] for n = 2, meaning [[a, p + i q], [p - i q, d]].


def _det_and_min_eig(g: list) -> tuple[np.ndarray, np.ndarray]:
    """det and min eigenvalue of the pointwise metric g (closed forms)."""
    if len(g) == 1:
        (a,) = g
        return a, a
    a, d, p, q = g
    det = a * d - (p * p + q * q)
    gap = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + p * p + q * q, 0.0))
    return det, 0.5 * (a + d) - gap


def _det_and_eigs(g: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det, min and max eigenvalue of the pointwise metric g (closed forms)."""
    det, lo = _det_and_min_eig(g)
    # the two eigenvalues of an n = 2 metric sum to its trace
    return det, lo, lo if len(g) == 1 else (g[0] + g[1]) - lo


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
