import json

import numpy as np
import pytest

from krflab import cli
from krflab.cohomology import models as coh_models


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    return code


def test_models_lists_six_builtins(capsys):
    assert cli.main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("cp1", "torus1", "genus2", "p1xp1", "blowup-p2", "product-ec"):
        assert name in out


def test_models_json_round_trips_schema(capsys):
    assert cli.main(["--format", "json", "models"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    models = [coh_models.model_from_dict(d) for d in payload["models"]]
    assert {m.name for m in models} == set(coh_models.builtin_models())


def test_models_unknown_name_usage_error(capsys):
    assert cli.main(["models", "fano-threefold"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_maxtime_blowup_full_report(capsys):
    assert cli.main(["maxtime", "blowup-p2", "4,-1"]) == 0
    out = capsys.readouterr().out
    assert "T = 1" in out
    assert "limiting class: (1, 0)" in out
    assert "volume at limit: 1" in out
    assert "noncollapsed: True" in out
    assert "null locus: E" in out


def test_maxtime_torus_infinite(capsys):
    assert cli.main(["maxtime", "torus1", "5"]) == 0
    out = capsys.readouterr().out
    assert "T = infinity" in out
    assert "CalabiYau" in out


def test_maxtime_rational_input(capsys):
    assert cli.main(["maxtime", "cp1", "7/2"]) == 0
    assert "T = 7/4" in capsys.readouterr().out


def test_maxtime_non_kahler_domain_error(capsys):
    assert cli.main(["maxtime", "p1xp1", "1,-1"]) == 3
    err = capsys.readouterr().err
    assert "not Kahler" in err
    assert "b" in err


def test_maxtime_bad_class_usage_error(capsys):
    assert cli.main(["maxtime", "cp1", "one"]) == 2


def test_maxtime_json(capsys):
    assert cli.main(["--format", "json", "maxtime", "blowup-p2", "4,-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"] == "1"
    assert payload["null_locus"] == ["E"]
    assert payload["noncollapsed"] is True


def stationary_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "n": 1,
        "N": 16,
        "g0": [[1.0]],
        "f_modes": [],
        "phi0_modes": [],
        "mode": "unnormalized",
        "dt": None,
        "t_end": 0.05,
        "record_every": 8,
        "eps_pos": 1e-8,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_flow_stationary_run_artifacts(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "[pass]" in printed and "[FAIL]" not in printed
    for name in ("diagnostics.csv", "diagnostics.json", "phi.bin", "phi.json", "manifest.json"):
        assert (out / name).exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,sup_phi,sup_phidot,min_eig,inf_R,sup_R,sup_trace,volume,energy"
    side = json.loads((out / "phi.json").read_text())
    phi = np.fromfile(out / "phi.bin", dtype=np.float64).reshape((side["N"],) * (2 * side["n"]))
    assert np.abs(phi).max() == 0.0


def test_flow_reruns_byte_identical_apart_from_manifest(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path, phi0_modes=[{"freq": [1, 0], "cos": 0.01, "sin": 0.0}]
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--output-dir", str(out1), "flow", str(cfg)]) == 0
    assert cli.main(["--output-dir", str(out2), "flow", str(cfg)]) == 0
    capsys.readouterr()
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "phi.bin").read_bytes() == (out2 / "phi.bin").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    m1.pop("output_dir"), m2.pop("output_dir")
    assert m1 == m2


def test_flow_warns_on_biased_density_in_unnormalized_mode(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path, f_modes=[{"freq": [0, 0], "cos": 0.05, "sin": 0.0}]
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "drifts" in err


def test_flow_non_finite_potential_domain_error(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path, phi0_modes=[{"freq": [1, 0], "cos": float("nan"), "sin": 0.0}]
    )
    assert cli.main(["--output-dir", str(tmp_path / "run"), "flow", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_flow_bad_config_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 2}))
    assert cli.main(["flow", str(path)]) == 2


def test_ansatz_round_p1_extinction(tmp_path, capsys):
    out = tmp_path / "a"
    code = cli.main(
        ["--output-dir", str(out), "ansatz", "round-p1", "--scales", "1", "--t-end", "1"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "extinction detected at t = 0.5" in printed
    assert "exact extinction time: 1/2" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cross_check"]["equal"] is True
    assert summary["extinction_time"] == "1/2"


def test_ansatz_product_ec_residual_series(tmp_path, capsys):
    out = tmp_path / "ec"
    code = cli.main(
        [
            "--output-dir",
            str(out),
            "ansatz",
            "product-ec",
            "--scales",
            "1,5",
            "--mode",
            "normalized",
            "--t-end",
            "10",
            "--dt",
            "0.01",
        ]
    )
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,a,b,volume,fiber_diameter,einstein_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_einstein_residual"] == pytest.approx(3 * np.exp(-10.0), rel=1e-6)
    assert summary["collapse"]["fiber_scale_adjusted"] == 1.0


def test_ansatz_bad_kind_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ansatz", "weird-kind", "--scales", "1"])
    assert exc.value.code == 2


def test_gh_sample_and_bound(tmp_path, capsys):
    out = tmp_path / "gh"
    assert cli.main(
        ["--output-dir", str(out), "gh", "sample", "--t", "0.5", "--nb", "3", "--nf", "2"]
    ) == 0
    space_path = out / "space.json"
    assert space_path.exists()
    assert cli.main(
        ["--output-dir", str(out), "gh", "bound", str(space_path), str(space_path)]
    ) == 0
    printed = capsys.readouterr().out
    assert "epsilon = 0" in printed
    bound = json.loads((out / "bound.json").read_text())
    assert bound["epsilon"] == 0.0 and bound["flag"] == "exact"


def test_gh_collapse_series(tmp_path, capsys):
    out = tmp_path / "ghc"
    code = cli.main(
        [
            "--output-dir",
            str(out),
            "gh",
            "collapse",
            "--t-start",
            "0",
            "--t-end",
            "6",
            "--steps",
            "7",
            "--nb",
            "6",
            "--nf",
            "6",
        ]
    )
    assert code == 0
    rows = (out / "collapse.csv").read_text().splitlines()
    assert rows[0] == "t,epsilon,flag"
    eps = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(eps, eps[1:]))


def test_verify_fast_criteria(tmp_path, capsys):
    out = tmp_path / "v"
    code = cli.main(
        ["--output-dir", str(out), "verify", "--criteria", "1,6,7,8", "--report"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "all passed" in printed
    report = json.loads((out / "verify.json").read_text())
    assert report["all_passed"] is True
    assert [c["index"] for c in report["criteria"]] == [1, 6, 7, 8]


def test_verify_detects_corrupted_catalogue(tmp_path, capsys):
    # inject a tensor typo into the blowup model sign structure
    path = tmp_path / "catalogue.json"
    coh_models.dump_catalogue(path)
    payload = json.loads(path.read_text())
    for model in payload["models"]:
        if model["name"] == "blowup-p2":
            model["tensor"]["1,1"] = "1"  # should be -1
    path.write_text(json.dumps(payload))
    code = cli.main(["verify", "--criteria", "1", "--catalogue", str(path)])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_maxtime_reports_flagged_approximation(tmp_path, capsys):
    # user-supplied model whose binding quadratic has an irrational root
    from fractions import Fraction as F

    import krflab.cohomology as coh

    tensor = coh.IntersectionTensor(n=2, dim=2, entries={(0, 0): F(1), (1, 1): F(-2)})
    model = coh.ManifoldModel(
        name="hyperbolic-slice",
        n=2,
        basis=("u", "v"),
        tensor=tensor,
        c1twopi=coh.ClassVector.of([0, -1]),
        cone=coh.ConeSpec(
            (
                ("volume", coh_models.volume_functional(tensor)),
                ("u", coh.PolyFunctional({(1, 0): F(1)})),
            )
        ),
        catalogue=(),
        kodaira=None,
    )
    path = tmp_path / "cat.json"
    coh_models.dump_catalogue(path, {"hyperbolic-slice": model})
    assert cli.main(
        ["maxtime", "hyperbolic-slice", "2,1", "--catalogue", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "approximate" in out
    assert "0.414213562" in out
    assert "note:" in out


def test_flow_convergence_prints_fitted_rate(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path,
        N=16,
        g0=[[2.0]],
        mode="normalized",
        t_end=25.0,
        record_every=100,
        f_modes=[{"freq": [1, 0], "cos": 0.08, "sin": 0.0}],
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "termination: converged" in printed
    assert "normalized-decay" in printed and "oracle rate 1" in printed
    assert "[FAIL]" not in printed
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True


def test_verify_reduced_grid_spectral_floor(capsys):
    # criteria 2 and 3 keep passing at a quarter of the default resolution
    assert cli.main(["verify", "--criteria", "2,3", "--flow-grid", "16"]) == 0
    assert "all passed" in capsys.readouterr().out


def test_flow_two_dimensional_complex_background(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path,
        n=2,
        N=8,
        g0=[[1.0, [0.2, 0.1]], [[0.2, -0.1], 1.5]],
        t_end=0.02,
        record_every=4,
        phi0_modes=[{"freq": [1, 0, 0, 0], "cos": 0.01, "sin": 0.0}],
    )
    out = tmp_path / "run2"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 0
    side = json.loads((out / "phi.json").read_text())
    assert side["n"] == 2 and side["g0"][0][1] == [0.2, 0.1]
    assert "[FAIL]" not in capsys.readouterr().out
