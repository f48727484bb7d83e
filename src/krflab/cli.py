"""Command-line surface: models, maxtime, flow, ansatz, gh, verify.

Exit codes: 0 success, 2 usage error, 3 domain error (non-Kahler class,
metric positivity loss), 4 verification failure (a failed ``verify`` or
``flow`` check row).  Commands raise, and
``main`` alone maps errors to codes: ``UsageError`` exits 2, and
``cohomology.DomainError`` (the class engine's errors and maflow's
``AdmissibilityError`` and ``StepFailure``, of which ``SpectralTailError``
is one) exits 3.
Inputs are built inside ``_reading``, which turns an ``OSError``,
``ValueError``, ``LookupError`` or ``TypeError`` into a ``UsageError``.

The exact commands (``models``, ``maxtime``) need only the class engine,
so numpy, ``maflow``, ``ghmetric`` and ``verify`` are imported inside the
commands that use them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from . import ansatz as az
from . import cohomology as coh
from . import serialize as ser
from .cohomology import models as coh_models

if TYPE_CHECKING:
    import numpy as np

    from . import maflow as mf

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    """Bad command-line input, or a bad file that it names (exit code 2)."""


@contextmanager
def _reading(prefix: str = ""):
    """Re-raise a bad-input error as a UsageError; a DomainError passes unchanged."""
    try:
        yield
    except coh.DomainError:
        raise
    except (OSError, ValueError, LookupError, TypeError) as err:
        raise UsageError(f"{prefix}{err}") from err


def _output_dir(args, configured: Optional[str] = None) -> Path:
    """The --output-dir flag if given, else the configured path, else krflab-out."""
    return Path(args.output_dir or configured or "krflab-out")


def _load_models(args, name: Optional[str] = None) -> dict:
    """The --catalogue models, or the built-ins; ``name`` must be one of them."""
    with _reading():
        if args.catalogue:
            models = coh_models.load_catalogue(args.catalogue)
        else:
            models = coh_models.builtin_models()
    if name is not None and name not in models:
        raise UsageError(f"unknown model {name!r}; built-ins: {', '.join(sorted(models))}")
    return models


def _poly_str(f: coh.PolyFunctional, basis) -> str:
    out = ""
    for expo, coeff in sorted(f.monomials.items(), reverse=True):
        mag = abs(coeff)
        factors = [str(mag)] if mag != 1 or not any(expo) else []
        for i, e in enumerate(expo):
            if e == 1:
                factors.append(basis[i])
            elif e > 1:
                factors.append(f"{basis[i]}^{e}")
        term = "*".join(factors)
        if not out:
            out = term if coeff > 0 else f"-{term}"
        else:
            out += f" + {term}" if coeff > 0 else f" - {term}"
    return out or "0"


def _kodaira(model: coh.ManifoldModel) -> str:
    return "minus-infinity" if model.kodaira is None else str(model.kodaira)


def _print_model(model: coh.ManifoldModel) -> None:
    print(f"{model.name}: complex dimension {model.n}, kodaira {_kodaira(model)}")
    print(f"  basis: {', '.join(model.basis)}")
    print(f"  2*pi*c1: {model.c1twopi}")
    for label, f in model.cone.constraints:
        print(f"  cone constraint [{label}]: {_poly_str(f, model.basis)} > 0")
    for entry in model.catalogue:
        print(f"  subvariety [{entry.label}]: dimension {entry.dim}")
    if model.notes:
        print(f"  notes: {model.notes}")


def cmd_models(args) -> int:
    models = _load_models(args, args.name)
    selected = {args.name: models[args.name]} if args.name else models
    if args.format == "json":
        print(ser.dumps(coh_models.catalogue_to_dict(selected)))
    elif args.format == "csv":
        rows = [
            (m.name, m.n, " ".join(m.basis), m.c1twopi, _kodaira(m)) for m in selected.values()
        ]
        ser.emit_csv(sys.stdout, ("name", "n", "basis", "c1twopi", "kodaira"), rows)
    else:
        for model in selected.values():
            _print_model(model)
    return EXIT_OK


def _maxtime_report(models: dict, name: str, coords) -> dict:
    model = models[name]
    a0 = coh.ClassVector(tuple(coords))
    T = coh.max_existence_time(model, a0)
    report = {
        "model": name,
        "class": [str(c) for c in a0],
        "T": str(T),
        "T_exact": T.exact,
        "T_finite": T.finite,
        "binding_constraint": T.binding,
    }
    if T.finite and T.exact:
        lim = coh.limiting_class(model, a0)
        vol = coh.volume(model, lim)
        locus = coh.null_locus(model, lim)
        report.update(
            {
                "limiting_class": [str(c) for c in lim],
                "limit_volume": str(vol),
                "noncollapsed": vol > 0,
                "null_locus": list(locus.all_labels()),
                "null_locus_catalogue_relative": locus.catalogue_relative,
                "regime": "finite-time singularity",
            }
        )
    elif T.finite:
        report["regime"] = "finite-time singularity"
        report["note"] = (
            "T is certified to an interval only; limiting-class data needs an "
            "exact rational time"
        )
    else:
        report["regime"] = str(coh.long_time_regime(model))
    return report


def cmd_maxtime(args) -> int:
    models = _load_models(args, args.model)
    with _reading():
        coords = ser.parse_class_coords(args.klass)
    report = _maxtime_report(models, args.model, coords)
    if args.format == "json":
        print(ser.dumps(report))
        return EXIT_OK
    if args.format == "csv":
        cells = {k: ";".join(map(str, v)) if isinstance(v, list) else v for k, v in report.items()}
        ser.emit_csv(sys.stdout, ("field", "value"), cells.items())
        return EXIT_OK
    print(f"model: {report['model']}")
    print(f"class: ({', '.join(report['class'])})")
    print(f"T = {report['T']}")
    if report["T_finite"]:
        print(f"binding constraint: {report['binding_constraint']}")
    if "limiting_class" in report:
        print(f"limiting class: ({', '.join(report['limiting_class'])})")
        print(f"volume at limit: {report['limit_volume']}")
        print(f"noncollapsed: {report['noncollapsed']}")
        locus = report["null_locus"]
        print(
            "null locus: "
            + (", ".join(locus) if locus else "(empty)")
            + " [relative to catalogue]"
        )
    if "note" in report:
        print(f"note: {report['note']}")
    print(f"regime: {report['regime']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def _g0_entry(cell) -> complex:
    """A g0 cell: a number, or an [re, im] pair of numbers."""
    re_im = cell if isinstance(cell, (list, tuple)) else (cell, 0.0)
    return complex(*(ser.number(x, "a g0 entry") for x in re_im))


def _modes_from_config(cfg: dict, key: str) -> list[tuple]:
    """(freq, cos, sin) of each entry of cfg[key]: a "freq", and "cos" and "sin" if given."""
    modes = []
    for item in ser.array(cfg.get(key) or [], key):
        item = ser.mapping(item, f"an entry of {key}")
        unknown = sorted(set(item) - {"freq", "cos", "sin"})
        if unknown:
            raise ValueError(f"unknown {key} key(s) {', '.join(map(repr, unknown))}")
        if "freq" not in item:
            raise ValueError(f"an entry of {key} needs a 'freq'")
        modes.append((item["freq"], item.get("cos", 0.0), item.get("sin", 0.0)))
    return modes


#: the grid keys of a flow config; its other keys are ``RunConfig``'s fields
FLOW_GRID_KEYS = frozenset("schema n N g0 f_modes phi0_modes output".split())


def load_flow_config(
    path,
) -> tuple[mf.TorusBackground, mf.RunConfig, np.ndarray, Optional[str]]:
    """Background, run settings, initial potential and output path of a config."""
    import numpy as np

    from . import maflow as mf
    from .maflow.background import field_from_modes

    cfg = ser.read_json(path, "flow config")
    run_keys = {key: value for key, value in cfg.items() if key not in FLOW_GRID_KEYS}
    unknown = sorted(set(run_keys) - {f.name for f in fields(mf.RunConfig)})
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    run_cfg = mf.RunConfig(**run_keys)
    n = ser.integer(cfg["n"], "n")
    N = ser.integer(cfg["N"], "N")
    g0 = np.array([[_g0_entry(cfg["g0"][i][j]) for j in range(n)] for i in range(n)])
    if len(cfg["g0"]) != n or any(len(row) != n for row in cfg["g0"]):
        raise ValueError(f"g0 must be {n}x{n}, got {cfg['g0']!r}")
    f_modes = _modes_from_config(cfg, "f_modes")
    f = field_from_modes(n, N, f_modes) if f_modes else None
    bg = mf.TorusBackground(n=n, N=N, g0=g0, f=f)
    phi0 = field_from_modes(n, N, _modes_from_config(cfg, "phi0_modes"))
    output = cfg.get("output")
    return bg, run_cfg, phi0, None if output is None else ser.string(output, "output")


def _write_run_record(out: Path, args, series: mf.DiagnosticsSeries, **extra) -> None:
    """diagnostics.csv, diagnostics.json (with the ``extra`` entries) and the manifest."""
    ser.write_csv(out / "diagnostics.csv", series.header, series.rows())
    record = {
        "columns": list(series.header),
        "rows": series.rows(),
        "converged": series.converged,
        "termination": series.termination,
        "steps": series.steps,
        "rejected": series.rejected,
        "rhs_evals": series.rhs_evals,
        "dt_min": series.dt_min,
        "dt_max": series.dt_max,
        "dt_last": series.dt_last,
    }
    record.update(ser.strict_json(extra))
    ser.write_json(out / "diagnostics.json", record)
    ser.write_manifest(
        out,
        "flow",
        config_path=str(args.config),
        seed=args.seed,
        extra={"termination": series.termination},
    )


def cmd_flow(args) -> int:
    import numpy as np

    from . import maflow as mf

    with _reading("bad flow config: "):
        bg, run_cfg, phi0, cfg_out = load_flow_config(args.config)
    out = _output_dir(args, cfg_out)
    if run_cfg.mode == mf.UNNORMALIZED and bg.f is not None:
        mean_f = float(bg.f.mean())
        if abs(mean_f) > 1e-12:
            print(
                f"warning: reference density exponent has mean {mean_f:.3e}; the "
                "total reference volume differs from the metric volume, so the "
                "potential drifts linearly and no stationary limit exists",
                file=sys.stderr,
            )
    try:
        final, series = mf.run(bg, run_cfg, phi0=phi0)
    except mf.StepFailure as err:
        # keep the evidence: the diagnostics recorded up to the failure, and its own
        _write_run_record(out, args, err.series, failure=err.diagnostics)
        print(f"partial diagnostics written to {out}", file=sys.stderr)
        raise
    report = mf.estimate_report(series, run_cfg, bg)
    _write_run_record(out, args, series, checks=[row.payload() for row in report.rows])
    final.phi.astype(np.float64).tofile(out / "phi.bin")
    ser.write_json(
        out / "phi.json",
        {
            "n": bg.n,
            "N": bg.N,
            "g0": [[[z.real, z.imag] for z in row] for row in bg.g0],
            "t": final.t,
            "mode": final.mode,
            "layout": "row-major float64",
        },
    )
    for row in report.rows:
        print(row.line())
    print(f"termination: {series.termination} at t = {final.t:.6g}")
    print(
        f"steps: {series.steps} accepted, {series.rejected} rejected, "
        f"{series.rhs_evals} RHS evaluations"
    )
    print(f"artifacts written to {out}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------


def cmd_ansatz(args) -> int:
    with _reading():
        scales = ser.parse_class_coords(args.scales)
        model = az.AnsatzModel.of(args.kind, scales, args.mode)
        traj = az.integrate(model, args.t_end, dt=args.dt)
    out = _output_dir(args)
    header = ["t", *traj.names, "volume", "fiber_diameter"]
    columns = [traj.ts] + [traj.coeffs[:, i] for i in range(traj.coeffs.shape[1])]
    columns += [traj.volume(), traj.fiber_diameter_proxy()]
    summary: dict = {
        "kind": model.kind,
        "scales": [str(s) for s in model.scales],
        "mode": model.mode,
        "system": traj.system.description,
        "extinct": traj.extinct,
        "closed_form_max_deviation": float(abs(traj.coeffs - traj.closed()).max()),
    }
    if traj.extinct:
        summary["extinction_time_numeric"] = traj.extinction_numeric
    if traj.system.extinction_time is not None:
        summary["extinction_time"] = str(traj.system.extinction_time)
    if model.kind == az.PRODUCT_EC and model.mode == az.NORMALIZED:
        res = az.einstein_residual(model, traj)
        header.append("einstein_residual")
        columns.append(res)
        prof = az.collapse_profile(model, traj)
        summary["final_einstein_residual"] = float(res[-1])
        summary["collapse"] = {
            "fiber_scale_adjusted": float(prof.fiber_scale_adjusted[0]),
            "fiber_adjusted_max_error": prof.fiber_adjusted_max_error,
            "schwarz_floor": prof.schwarz_floor,
        }
    if model.mode == az.UNNORMALIZED:
        chk = az.crosscheck_T(model)
        summary["cross_check"] = {
            "ansatz_T": None if chk.ansatz_time is None else str(chk.ansatz_time),
            "cohomology_T": None
            if chk.cohomology_time is None
            else str(chk.cohomology_time),
            "equal": chk.equal,
        }
    rows = list(zip(*[list(col) for col in columns]))
    ser.write_csv(out / "trajectory.csv", header, rows)
    ser.write_json(out / "summary.json", summary)
    ser.write_manifest(out, f"ansatz {args.kind}", seed=args.seed)
    if traj.extinct:
        print(f"extinction detected at t = {traj.extinction_numeric:.12g}")
    if "extinction_time" in summary:
        print(f"exact extinction time: {summary['extinction_time']}")
    if "final_einstein_residual" in summary:
        print(f"final Einstein residual: {summary['final_einstein_residual']:.3e}")
    if "cross_check" in summary:
        print(f"cross-check vs class engine: equal = {summary['cross_check']['equal']}")
    print(f"artifacts written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gh
# ---------------------------------------------------------------------------


def cmd_gh(args) -> int:
    import numpy as np

    from . import ghmetric as gh

    out = _output_dir(args)
    if args.gh_command == "sample":
        with _reading():
            space = gh.sample_warped_torus(args.t, args.nb, args.nf)
        ser.write_json(out / "space.json", gh.space_to_dict(space))
        ser.write_manifest(out, "gh sample", seed=args.seed)
        print(f"wrote {len(space)}-point warped torus sample to {out / 'space.json'}")
        return EXIT_OK
    if args.gh_command == "bound":
        with _reading():
            X = gh.space_from_dict(ser.read_json(args.space_x, "metric-space"))
            Y = gh.space_from_dict(ser.read_json(args.space_y, "metric-space"))
        bound = gh.gh_upper_bound(X, Y, seed=args.seed)
        ser.write_json(
            out / "bound.json",
            {
                "epsilon": bound.epsilon,
                "flag": bound.flag,
                "F": [int(v) for v in bound.maps.F],
                "G": [int(v) for v in bound.maps.G],
            },
        )
        ser.write_manifest(out, "gh bound", seed=args.seed)
        print(f"epsilon = {bound.epsilon:.12g} ({bound.flag})")
        return EXIT_OK
    # collapse
    with _reading():
        ts = np.linspace(args.t_start, args.t_end, args.steps)
        series = gh.collapse_series(ts, args.nb, args.nf)
    ser.write_csv(out / "collapse.csv", series.header, series.rows())
    ser.write_json(
        out / "collapse.json",
        {
            "n_base": series.n_base,
            "n_fiber": series.n_fiber,
            "t": [float(t) for t in series.ts],
            "epsilon": [float(e) for e in series.epsilons],
            "flag": series.flag,
            "discretization_floor": series.floor,
            "rate_coefficient": series.rate_coefficient,
        },
    )
    ser.write_manifest(out, "gh collapse", seed=args.seed)
    print(
        f"epsilon: {series.epsilons[0]:.6g} -> {series.epsilons[-1]:.6g} over "
        f"t in [{ts[0]:g}, {ts[-1]:g}]"
    )
    print(
        f"envelope: {series.rate_coefficient:.4g}*exp(-t/2) + {series.floor:.4g} "
        "(reported, not asserted)"
    )
    print(f"artifacts written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify as ver

    only = None
    if args.criteria:
        try:
            only = [int(tok) for tok in args.criteria.split(",")]
        except ValueError:
            raise UsageError("--criteria takes comma-separated indices") from None
    models = _load_models(args)
    with _reading():
        # a bad grid or an unknown index is refused before any criterion runs
        opts = ver.VerifyOptions(seed=args.seed, flow_grid=args.flow_grid, models=models)
        ver.check_criteria(only or [])
    try:
        results = ver.run_all(opts, only=only)
    except ver.MissingModel as err:
        raise UsageError(err) from err
    print(ver.format_table(results))
    if args.report:
        out = _output_dir(args)
        ser.write_json(out / "verify.json", ver.results_payload(results))
        ser.write_manifest(out, "verify", seed=args.seed)
        print(f"report written to {out / 'verify.json'}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krflab",
        description="Kahler-Ricci flow laboratory: exact class evolution, "
        "torus Monge-Ampere runs, product-geometry reductions, and "
        "Gromov-Hausdorff collapsing experiments.",
    )
    parser.add_argument("--version", action="version", version=f"krflab {__version__}")
    parser.add_argument(
        "--output-dir",
        help="directory for emitted artifacts (default: a flow config's output, else krflab-out)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="report format for query commands",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized checks; steers the heuristic search only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list the manifold model catalogue")
    p.add_argument("name", nargs="?", help="show a single model")
    p.add_argument("--catalogue", help="load models from a JSON catalogue file")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("maxtime", help="maximal existence time of a class")
    p.add_argument("model", help="model name (see `krflab models`)")
    p.add_argument(
        "klass",
        metavar="class",
        help="comma-separated rational coordinates, e.g. '4,-1' or '7/2'",
    )
    p.add_argument("--catalogue", help="load models from a JSON catalogue file")
    p.set_defaults(func=cmd_maxtime)

    p = sub.add_parser("flow", help="run the torus Monge-Ampere flow from a config")
    p.add_argument("config", help="JSON run configuration")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("ansatz", help="integrate a product-geometry reduction")
    p.add_argument("kind", choices=az.KINDS)
    p.add_argument("--scales", required=True, help="comma-separated rationals")
    p.add_argument(
        "--mode", choices=(az.UNNORMALIZED, az.NORMALIZED), default=az.UNNORMALIZED
    )
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("gh", help="Gromov-Hausdorff experiments")
    ghsub = p.add_subparsers(dest="gh_command", required=True)
    q = ghsub.add_parser("sample", help="sample a warped torus metric space")
    q.add_argument("--t", type=float, default=0.0)
    q.add_argument("--nb", type=int, default=8)
    q.add_argument("--nf", type=int, default=8)
    q.set_defaults(func=cmd_gh)
    q = ghsub.add_parser("bound", help="distance upper bound between two spaces")
    q.add_argument("space_x")
    q.add_argument("space_y")
    q.set_defaults(func=cmd_gh)
    q = ghsub.add_parser("collapse", help="collapsing series vs the base circle")
    q.add_argument("--t-start", type=float, default=0.0)
    q.add_argument("--t-end", type=float, default=10.0)
    q.add_argument("--steps", type=int, default=21)
    q.add_argument("--nb", type=int, default=8)
    q.add_argument("--nf", type=int, default=8)
    q.set_defaults(func=cmd_gh)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion indices (default all)")
    p.add_argument("--flow-grid", type=int, default=64, help="grid for flow criteria")
    p.add_argument("--catalogue", help="verify against a JSON model catalogue")
    p.add_argument(
        "--report", action="store_true", help="write verify.json to the output dir"
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except coh.DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, coh.NotKahlerError) and err.violated:
            print(f"violated constraints: {', '.join(err.violated)}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
