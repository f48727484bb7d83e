"""Independent oracles used by the test suite.

These deliberately avoid the solver's time-stepping path: the elliptic
solver below is a preconditioned Newton iteration for the stationary
problem, the RK4 step is a second scheme to hold ``maflow.run`` against,
the tail fraction is measured on the full complex spectrum, and the
symbolic Hessian builds derivative fields from sympy expressions.
"""

from __future__ import annotations

import numpy as np

import krflab.maflow as mf
from krflab.maflow.background import _hermitian
from krflab.maflow.solver import _curvature, _metric


def laplacian_multiplier(bg: mf.TorusBackground) -> np.ndarray:
    """Fourier multiplier of the background Laplacian (negative real)."""
    freqs = np.fft.fftfreq(bg.N) * bg.N
    grids = np.meshgrid(*([freqs] * (2 * bg.n)), indexing="ij")
    w = np.stack([grids[2 * j + 1] + 1j * grids[2 * j] for j in range(bg.n)])
    inv = np.linalg.inv(bg.g0)
    quad = np.einsum("j...,jk,k...->...", w.conj(), inv, w).real
    return -np.pi**2 * quad


def solve_stationary_normalized(
    bg: mf.TorusBackground, tol: float = 1e-12, max_iter: int = 400
) -> np.ndarray:
    """Newton-type solve of log(det(g0+H(phi))/Omega) = phi.

    The linearization at phi is (Laplacian of the evolving metric) - 1;
    a constant-coefficient preconditioner (Laplacian of g0) - 1 inverted
    in Fourier space gives fast linear convergence for small twists.
    """
    mult = laplacian_multiplier(bg) - 1.0
    phi = np.zeros(bg.shape)
    for _ in range(max_iter):
        state = mf.FlowState(t=0.0, phi=phi, mode=mf.NORMALIZED)
        residual = mf.ma_rhs(bg, state)
        if np.abs(residual).max() < tol:
            return phi
        delta = np.fft.ifftn(np.fft.fftn(residual) / mult).real
        phi = phi - delta
    raise RuntimeError("stationary solve did not converge")


def rk4_step(bg: mf.TorusBackground, state: mf.FlowState, dt: float) -> mf.FlowState:
    """One classical RK4 update of the potential, positivity checked at each stage.

    Cross-scheme reference for ``maflow.run``, which integrates with ETDRK4;
    dt is the caller's to keep under the diffusive CFL bound.
    """

    def rhs(phi):
        return mf.ma_rhs(bg, mf.FlowState(t=state.t, phi=phi, mode=state.mode))

    phi = state.phi
    k1 = rhs(phi)
    k2 = rhs(phi + 0.5 * dt * k1)
    k3 = rhs(phi + 0.5 * dt * k2)
    k4 = rhs(phi + dt * k3)
    phi1 = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return mf.FlowState(t=state.t + dt, phi=phi1, mode=state.mode)


def ricci_and_scalar(
    bg: mf.TorusBackground, state: mf.FlowState
) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor field (grid + (n, n)) and scalar curvature field.

    The Ricci components are minus the complex Hessian of log det of the
    evolving metric, read off the solver's curvature pass, whose scalar
    curvature feeds the ``inf_R``/``sup_R`` diagnostics.
    """
    metric = _metric(bg, bg.spectrum(state.phi), mf.EPS_POS)
    hess, scal = _curvature(bg, metric)
    return _hermitian([-h for h in hess]), scal


def full_grid_tail_fraction(bg: mf.TorusBackground, phi: np.ndarray) -> float:
    """Spectral energy fraction of phi in the outer third of wavenumbers.

    Reference for ``TorusBackground.tail_energy_fraction``, which reads the
    same fraction off the rfftn half spectrum: here a complex fftn of the
    full grid and a full-grid mask max|k| >= N/3.
    """
    freqs = np.fft.fftfreq(bg.N) * bg.N
    absk = np.meshgrid(*([np.abs(freqs)] * (2 * bg.n)), indexing="ij")
    mask = np.max(absk, axis=0) >= bg.N / 3.0
    power = np.abs(np.fft.fftn(phi)) ** 2
    power.flat[0] = 0.0  # ignore the mean
    total = power.sum()
    if total < 1e-30:
        return 0.0
    return float(power[mask].sum() / total)


def brute_force_gh_bound(X, Y) -> float:
    """Minimum correspondence defect by full enumeration (tiny spaces only)."""
    import itertools

    from krflab.ghmetric import CorrespondencePair, gh_epsilon

    nx, ny = len(X.labels), len(Y.labels)
    best = float("inf")
    for F in itertools.product(range(ny), repeat=nx):
        for G in itertools.product(range(nx), repeat=ny):
            eps = gh_epsilon(X, Y, CorrespondencePair(np.array(F), np.array(G)))
            best = min(best, eps)
    return best


def sequential_improve(X, Y, F, G, orders):
    """The GH local search from one start, scoring one candidate move at a time.

    Reference for ``krflab.ghmetric._improve``, which runs a stack of
    starts and scores each coordinate's candidates in one batch, and must
    return, row by row, the same maps.  ``orders`` holds one pass's
    permutation of X and of Y per pass.
    """

    def score(Fc, Gc):
        d1 = X.D - Y.D[np.ix_(Fc, Fc)]
        d2 = Y.D - X.D[np.ix_(Gc, Gc)]
        d3 = X.D[np.arange(len(X)), Gc[Fc]]
        d4 = Y.D[np.arange(len(Y)), Fc[Gc]]
        worst = max(
            np.abs(d1).max(initial=0.0),
            np.abs(d2).max(initial=0.0),
            d3.max(initial=0.0),
            d4.max(initial=0.0),
        )
        soft = (d1**2).sum() + (d2**2).sum() + (d3**2).sum() + (d4**2).sum()
        return float(worst), float(soft)

    F, G = np.array(F), np.array(G)
    best = score(F, G)
    for order_x, order_y in orders:
        improved = False
        for x in order_x:
            current = F[x]
            for cand in range(len(Y)):
                if cand == current:
                    continue
                F[x] = cand
                trial = score(F, G)
                if trial < best:
                    best, current, improved = trial, cand, True
            F[x] = current
        for y in order_y:
            current = G[y]
            for cand in range(len(X)):
                if cand == current:
                    continue
                G[y] = cand
                trial = score(F, G)
                if trial < best:
                    best, current, improved = trial, cand, True
            G[y] = current
        if not improved:
            break
    return F, G, best[0]
