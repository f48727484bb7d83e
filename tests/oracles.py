"""Independent oracles used by the test suite.

These deliberately avoid the solver's time-stepping path: the elliptic
solver below is a preconditioned Newton iteration for the stationary
problem, the RK4 step is a second scheme to hold ``maflow.run`` against,
the tail fraction is measured on the full complex spectrum, and the
symbolic Hessian builds derivative fields from sympy expressions.

The class-engine oracles evaluate every polynomial on ``Fraction``
coordinates and multiply each constraint out along the flow line, apart
from the integer kernels of ``krflab.cohomology``; the ansatz oracle
steps RK4 on numpy arrays, the reference for the per-component float
steps of ``ansatz.integrate``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

import krflab.ansatz as az
import krflab.cohomology as coh
import krflab.maflow as mf
from krflab.cohomology import poly
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
    evolving metric, read off the solver's curvature pass on the state's
    ``StageMetric``: the spectrum of its log(det / Omega) plus the
    background's of log Omega.  Its scalar curvature feeds the
    ``inf_R``/``sup_R`` diagnostics.
    """
    hess, scal = _curvature(_metric(bg, bg.spectrum(state.phi), mf.EPS_POS))
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


def gh_scores(X, Y, F, G) -> tuple[float, float]:
    """(max defect, sum of squared defects) of one map pair, from scratch."""
    d1 = X.D - Y.D[np.ix_(F, F)]
    d2 = Y.D - X.D[np.ix_(G, G)]
    d3 = X.D[np.arange(len(X)), G[F]]
    d4 = Y.D[np.arange(len(Y)), F[G]]
    worst = max(
        np.abs(d1).max(initial=0.0),
        np.abs(d2).max(initial=0.0),
        d3.max(initial=0.0),
        d4.max(initial=0.0),
    )
    soft = (d1**2).sum() + (d2**2).sum() + (d3**2).sum() + (d4**2).sum()
    return float(worst), float(soft)


def sequential_improve(X, Y, F, G, orders):
    """The GH local search from one start, scoring one candidate move at a time.

    Reference for ``krflab.ghmetric._improve``, which runs a stack of
    starts and scores each coordinate's candidates in one batch; it must
    reach the same epsilon.  ``orders`` holds one pass's permutation of X
    and of Y per pass.
    """

    F, G = np.array(F), np.array(G)
    best = gh_scores(X, Y, F, G)
    for order_x, order_y in orders:
        improved = False
        for x in order_x:
            current = F[x]
            for cand in range(len(Y)):
                if cand == current:
                    continue
                F[x] = cand
                trial = gh_scores(X, Y, F, G)
                if trial < best:
                    best, current, improved = trial, cand, True
            F[x] = current
        for y in order_y:
            current = G[y]
            for cand in range(len(X)):
                if cand == current:
                    continue
                G[y] = cand
                trial = gh_scores(X, Y, F, G)
                if trial < best:
                    best, current, improved = trial, cand, True
            G[y] = current
        if not improved:
            break
    return F, G, best[0]


def all_maps(src: int, dst: int) -> np.ndarray:
    """All maps {0..src-1} -> {0..dst-1} as rows, in itertools.product order."""
    if src == 0:
        return np.zeros((1, 0), dtype=int)
    return np.indices((dst,) * src).reshape(src, -1).T


def map_distortions(DA, DB, maps) -> np.ndarray:
    """Distortion of each row of ``maps``: DA -> DB, one gather per ordered point pair."""
    d = np.zeros(len(maps))
    for a1 in range(len(DA)):
        for a2 in range(len(DA)):
            if a1 != a2:
                np.maximum(d, np.abs(DA[a1, a2] - DB[maps[:, a1], maps[:, a2]]), out=d)
    return d


def exhaustive_loop(X, Y):
    """The exhaustive GH search as a loop over F, one block of G per F.

    Reference for ``krflab.ghmetric._exhaustive_bound``, which scores the
    pairs in blocks and must return the same epsilon and maps.  It starts
    from epsilon = inf with no pair and prunes as it goes: F in stable
    order of its distortion d1 until d1 reaches the best epsilon, and for
    each F the G with d2 below it, keeping a pair only when it is strictly
    better.
    """
    from krflab.ghmetric import CorrespondencePair

    nx, ny = len(X), len(Y)
    best_eps, best_pair = math.inf, None
    Fs = all_maps(nx, ny)
    Gs = all_maps(ny, nx)
    d1 = map_distortions(X.D, Y.D, Fs)
    d2 = map_distortions(Y.D, X.D, Gs)
    order_g = np.argsort(d2, kind="stable")
    Gs_sorted, d2_sorted = Gs[order_g], d2[order_g]
    xs, ys = np.arange(nx), np.arange(ny)
    for fi in np.argsort(d1, kind="stable"):
        if d1[fi] >= best_eps:
            break
        F = Fs[fi]
        limit = int(np.searchsorted(d2_sorted, best_eps, side="left"))
        if limit == 0:
            continue
        Gsub = Gs_sorted[:limit]
        d3 = X.D[xs[None, :], Gsub[:, F]].max(axis=1)
        d4 = Y.D[ys[None, :], F[Gsub]].max(axis=1)
        eps_all = np.maximum(np.maximum(d1[fi], d2_sorted[:limit]), np.maximum(d3, d4))
        gi = int(eps_all.argmin())
        if eps_all[gi] < best_eps:
            best_eps = float(eps_all[gi])
            best_pair = CorrespondencePair(F.copy(), Gsub[gi].copy())
    return best_eps, best_pair


def all_pair_epsilons(X, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(epsilon of every map pair, the F, the G), both in stable distortion order.

    Entry [f, g] is the max of the four defects of (F[f], G[g]), each from
    its full matrix; for few pairs only.
    """
    Fs, Gs = all_maps(len(X), len(Y)), all_maps(len(Y), len(X))
    Fs = Fs[np.argsort(map_distortions(X.D, Y.D, Fs), kind="stable")]
    Gs = Gs[np.argsort(map_distortions(Y.D, X.D, Gs), kind="stable")]
    d1 = np.abs(X.D - Y.D[Fs[:, :, None], Fs[:, None, :]]).max(axis=(1, 2))
    d2 = np.abs(Y.D - X.D[Gs[:, :, None], Gs[:, None, :]]).max(axis=(1, 2))
    d3 = X.D[np.arange(len(X))[:, None], Gs.T[Fs]].max(axis=1)  # (F, G)
    d4 = Y.D[np.arange(len(Y))[:, None], Fs.T[Gs]].max(axis=1).T
    eps = np.maximum(np.maximum(d1[:, None], d2[None, :]), np.maximum(d3, d4))
    return eps, Fs, Gs


def collapse_epsilons(ts, n_base: int, n_fiber: int) -> list[float]:
    """The fibration maps' epsilon at each t, from one validated sample per t."""
    from krflab.ghmetric import circle_space, fibration_maps, sample_warped_torus

    base, maps = circle_space(n_base), fibration_maps(n_base, n_fiber)
    return [
        gh_scores(sample_warped_torus(t, n_base, n_fiber), base, maps.F, maps.G)[0] for t in ts
    ]


# -- exact class engine on Fractions ------------------------------------------


def restrict_to_line(monomials, start, direction) -> list[Fraction]:
    """Substitute ``x_i = start_i - t*direction_i`` into a polynomial.

    ``monomials`` maps exponent tuples to coefficients; the result is the
    ascending coefficient list of the univariate polynomial in ``t``.
    """
    total = [Fraction(0)]
    for expo, coeff in monomials.items():
        term = [coeff]
        for i, e in enumerate(expo):
            linear = [Fraction(start[i]), -Fraction(direction[i])]
            for _ in range(e):
                term = _poly_mul(term, linear)
        total = _poly_add(total, term)
    return poly.trim(total)


def _poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_add(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]


def count_roots(coeffs, lo, hi) -> int:
    """Number of distinct real roots in (lo, hi], by Sturm's theorem."""
    chain = poly._sturm_chain(poly._squarefree(coeffs))
    return poly._sign_changes(chain, lo) - poly._sign_changes(chain, hi)


def evaluate(f: coh.PolyFunctional, a: coh.ClassVector) -> Fraction:
    total = Fraction(0)
    for expo, coeff in f.monomials.items():
        term = coeff
        for i, e in enumerate(expo):
            if e:
                term *= a.coords[i] ** e
        total += term
    return total


def along_line(f: coh.PolyFunctional, start, direction) -> list[Fraction]:
    """Coefficients of t -> f(start - t*direction)."""
    return restrict_to_line(f.monomials, start.coords, direction.coords)


def violated(model: coh.ManifoldModel, a: coh.ClassVector, strict: bool) -> tuple[str, ...]:
    bad = []
    for label, f in model.cone.constraints:
        v = evaluate(f, a)
        if (v <= 0) if strict else (v < 0):
            bad.append(label)
    return tuple(bad)


def volume(model: coh.ManifoldModel, a: coh.ClassVector) -> Fraction:
    """Multilinear evaluation of the intersection tensor on (a, ..., a)."""
    total = Fraction(0)
    for idx in itertools.product(range(len(a)), repeat=model.n):
        v = model.tensor.value(idx)
        if v == 0:
            continue
        for i in idx:
            v *= a.coords[i]
        total += v
    return total


def restrict(entry: coh.SubvarietyEntry, a: coh.ClassVector) -> Fraction:
    """Integral over the subvariety of a^dim."""
    total = Fraction(0)
    for idx, val in entry.pairing.items():
        term = val
        for i in idx:
            term *= a.coords[i]
        # multiplicity of the symmetric tuple in the multilinear expansion
        counts = [len(list(g)) for _, g in itertools.groupby(idx)]
        mult = math.factorial(len(idx))
        for c in counts:
            mult //= math.factorial(c)
        total += term * mult
    return total


def max_existence_time(model: coh.ManifoldModel, a0: coh.ClassVector) -> coh.ExistenceTime:
    """Each constraint multiplied out along the line, then its first positive root."""
    bad = violated(model, a0, strict=True)
    if bad:
        raise coh.NotKahlerError(f"{a0} is not Kahler", violated=bad)
    best = None  # (key, exact, value-or-interval, label)
    for label, f in model.cone.constraints:
        root, interval = poly.first_positive_root(along_line(f, a0, model.c1twopi))
        if root is not None:
            candidate = (root, True, root, label)
        elif interval is not None:
            candidate = (interval[0], False, interval, label)
        else:
            continue
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        return coh.ExistenceTime(finite=False, exact=True)
    _, exact, payload, label = best
    if exact:
        return coh.ExistenceTime(finite=True, exact=True, value=payload, binding=label)
    return coh.ExistenceTime(finite=True, exact=False, interval=payload, binding=label)


def limiting_class(model: coh.ManifoldModel, a0: coh.ClassVector, T: Fraction) -> coh.ClassVector:
    return a0 - model.c1twopi.scale(T)


def null_locus(model: coh.ManifoldModel, a: coh.ClassVector) -> coh.NullLocus:
    labels = tuple(e.label for e in model.catalogue if restrict(e, a) == 0)
    return coh.NullLocus(labels=labels, whole_space=volume(model, a) == 0)


# -- ansatz RK4 on numpy arrays -----------------------------------------------


def _rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ansatz_integrate(model: az.AnsatzModel, t_end: float, dt: float = 1e-3):
    """(ts, coeffs, extinct, extinction time) of the array-stepped RK4 loop."""
    C = np.array(az._REDUCTIONS[model.kind][1], dtype=float)
    if model.mode == az.NORMALIZED:
        rhs = lambda t, y: C - y  # noqa: E731
    else:
        rhs = lambda t, y: C.copy()  # noqa: E731
    ts = [0.0]
    ys = [np.array([float(s) for s in model.scales])]
    t, y = 0.0, ys[0]
    extinct = False
    ext_time = None
    while t < t_end - 1e-12 * max(1.0, t_end):
        step_dt = min(dt, t_end - t)
        y_new = _rk4_step(rhs, t, y, step_dt)
        if y_new.min() <= 0.0:
            lo, hi = 0.0, step_dt
            for _ in range(200):
                if hi - lo <= 1e-13:
                    break
                mid = 0.5 * (lo + hi)
                if _rk4_step(rhs, t, y, mid).min() <= 0.0:
                    hi = mid
                else:
                    lo = mid
            extinct = True
            ext_time = t + 0.5 * (lo + hi)
            break
        t, y = t + step_dt, y_new
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.stack(ys), extinct, ext_time
