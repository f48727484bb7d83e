import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krflab.serialize as ser
import krflab.verify as V
from krflab import cli
from krflab.cohomology import models as coh_models


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    return code


def builtin_catalogue(tmp_path, model=None, **fields) -> str:
    """Path of the built-in models as a catalogue file, with ``fields`` replaced in ``model``."""
    payload = coh_models.catalogue_to_dict(coh_models.builtin_models())
    for entry in payload["models"]:
        if entry["name"] == model:
            entry.update(fields)
    path = tmp_path / "catalogue.json"
    ser.write_json(path, payload)
    return str(path)


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


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["maxtime", "cp1", "1/0"], {}),
        (["ansatz", "round-p1", "--scales", "1/0"], {}),
        (["maxtime", "cp1", "1", "--catalogue"], {"c1twopi": ["1/0"]}),
        (["maxtime", "cp1", "1", "--catalogue"], {"tensor": {"0": "1/0"}}),
    ],
    ids=["argv0", "argv1", "catalogue-c1twopi", "catalogue-tensor"],
)
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv, fields):
    # Fraction("1/0") raised ZeroDivisionError, a traceback with exit 1, from
    # a command-line class and from a catalogue value alike
    if fields:
        argv = [*argv, builtin_catalogue(tmp_path, "cp1", **fields)]
    assert cli.main(["--output-dir", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"tensor": {"0,1": 0.1}}, "cannot interpret 0.1 as a rational"),
        ({"cone": [{"label": "a", "monomials": {"1": "1"}}]}, "[a] needs 2 nonnegative exponents"),
        (
            {"cone": [{"label": "a", "monomials": {"-1,2": "1"}}]},
            "[a] needs 2 nonnegative exponents",
        ),
        (
            {"catalogue": [{"label": "H", "dim": 1, "pairing": {"1,1": "1"}}]},
            "[H] needs pairing keys of 1 basis indices",
        ),
        (
            {"catalogue": [{"label": "H", "dim": 1, "pairing": {"5": "1"}}]},
            "[H] needs pairing keys of 1 basis indices",
        ),
        ({"basis": "ab"}, "basis must be a JSON array, got 'ab'"),
        ({"c1twopi": "22"}, "c1twopi must be a JSON array, got '22'"),
        ({"tensor": [1]}, "tensor must be a JSON object, got [1]"),
        ({"tensor": "x"}, "tensor must be a JSON object, got 'x'"),
        (
            {"cone": [{"label": "a", "monomials": ["1,0"]}]},
            "monomials must be a JSON object, got ['1,0']",
        ),
        (
            {"catalogue": [{"label": "H", "dim": 1, "pairing": "0"}]},
            "pairing must be a JSON object, got '0'",
        ),
    ],
    ids=[
        "float-tensor",
        "short-cone-key",
        "negative-cone-exponent",
        "long-pairing-key",
        "pairing-key-out-of-basis",
        "string-basis",
        "string-c1twopi",
        "array-tensor",
        "string-tensor",
        "array-monomials",
        "string-pairing",
    ],
)
def test_catalogue_with_a_bad_value_or_key_is_a_usage_error(tmp_path, capsys, fields, message):
    # the float became 3602879701896397/36028797018963968, the short cone key was
    # truncated and the long pairing key read as a degree-2 form, all exiting 0;
    # the key outside the basis was an IndexError and the negative exponent a
    # ZeroDivisionError (0.0 to a negative power), tracebacks with exit 1.
    # The strings were iterated, so basis "ab" read as (a, b) and c1twopi "22"
    # as (2, 2), exiting 0; an array or a string where a table belongs was an
    # AttributeError traceback
    path = builtin_catalogue(tmp_path, "p1xp1", **fields)
    assert cli.main(["maxtime", "p1xp1", "1,1", "--catalogue", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("basis", [1], "basis label must be a string, got 1"),
        ("name", 7, "model name must be a string, got 7"),
        ("cone", [{"label": 7, "monomials": {"1": "1"}}], "cone label must be a string, got 7"),
        (
            "catalogue",
            [{"label": 7, "dim": 1, "pairing": {"0": "1"}}],
            "subvariety label must be a string, got 7",
        ),
        ("notes", ["x", 1], "notes must be a string, got ['x', 1]"),
    ],
    ids=["basis", "name", "cone-label", "subvariety-label", "notes"],
)
@pytest.mark.parametrize("argv", [["models"], ["maxtime", "cp1", "1"]], ids=["models", "maxtime"])
def test_catalogue_with_a_label_that_is_not_a_string_is_a_usage_error(
    tmp_path, capsys, field, value, message, argv
):
    # a label of 1 loaded: models ended in a TypeError traceback from
    # ", ".join(model.basis) (exit 1) and maxtime exited 0; a name of 7 loaded
    # as a model that no maxtime argument can name; notes of ["x", 1] loaded,
    # and models printed the list with exit 0
    path = builtin_catalogue(tmp_path, "cp1", **{field: value})
    assert cli.main([*argv, "--catalogue", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 2.7, "n must be an integer, got 2.7"),
        ("dim", 1.9, "dim must be an integer, got 1.9"),
        ("kodaira", 0.5, "kodaira must be an integer, got 0.5"),
        ("kodaira", 7, "kodaira dimension 7 is outside 0..2"),
        ("kodaira", -1, "kodaira dimension -1 is outside 0..2"),
        ("n", 0, "complex dimension 0 is below 1"),
        ("n", -1, "complex dimension -1 is below 1"),
        (
            "catalogue",
            [{"label": "X3", "dim": 3, "pairing": {"0,0,1": "1"}}],
            "subvariety [X3] dimension 3 is outside 1..2",
        ),
    ],
)
def test_catalogue_with_a_non_integer_count_is_a_usage_error(
    tmp_path, capsys, field, value, message
):
    # int() truncated these, so "n": 2.7 and "dim": 1.9 read as the built-in
    # p1xp1 and maxtime printed T = 1/2 with exit 0; a kodaira dimension of 7
    # or -1, outside 0..n, loaded and models printed it with exit 0.  With
    # "n": 0 maxtime printed T = 1/2 and with -1 it ended in a TypeError
    # traceback from the volume; a 3-dimensional subvariety of the surface
    # loaded, and maxtime listed it in the null locus.  An n row empties the
    # tensor, whose keys are n-tuples, so that only the dimension is wrong
    model = coh_models.model_to_dict(coh_models.get_model("p1xp1"))
    if field == "dim":
        fields = {"catalogue": [dict(model["catalogue"][0], dim=value), *model["catalogue"][1:]]}
    elif field == "catalogue":
        fields = {"catalogue": model["catalogue"] + value}
    elif field == "n":
        fields = {"n": value, "tensor": {}}
    else:
        fields = {field: value}
    path = builtin_catalogue(tmp_path, "p1xp1", **fields)
    for argv in (["models"], ["maxtime", "p1xp1", "1,1"]):
        assert cli.main([*argv, "--catalogue", path]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, argv


@pytest.mark.parametrize("argv", [["models"], ["maxtime", "cp1", "1"]], ids=["models", "maxtime"])
def test_catalogue_with_a_duplicate_model_name_is_a_usage_error(tmp_path, capsys, argv):
    # a later cp1 silently replaced the first: with a second cp1 of 2*pi*c1 = 4,
    # maxtime printed T = 1/4 and models printed 2*pi*c1: (4), both with exit 0
    payload = coh_models.catalogue_to_dict(coh_models.builtin_models())
    payload["models"].append(dict(payload["models"][0], c1twopi=["4"]))
    path = tmp_path / "catalogue.json"
    ser.write_json(path, payload)
    assert cli.main([*argv, "--catalogue", str(path)]) == 2
    assert capsys.readouterr().err == "error: the catalogue names model 'cp1' twice\n"


@pytest.mark.parametrize(
    "argv", [["models"], ["maxtime", "product-ec", "1,1"]], ids=["models", "maxtime"]
)
def test_csv_rows_have_the_header_width(capsys, argv):
    # the f-string printers wrote "(2, 2)" and "(kodaira 1, fiber dimension 1)"
    # unquoted, so those rows split into one field too many
    assert cli.main(["--format", "csv", *argv]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert rows and all(len(row) == len(header) for row in rows)
    cells = {cell for row in rows for cell in row}
    assert {"(2, 2)", "IntermediateKodaira (kodaira 1, fiber dimension 1)"} & cells


def test_csv_writes_none_as_an_empty_cell(capsys):
    # a T = infinity report has no binding constraint: JSON writes null, and
    # the CSV cell read "None", as if a constraint had that label
    assert cli.main(["--format", "csv", "maxtime", "genus2", "3"]) == 0
    cells = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert cells["binding_constraint"] == ""
    assert cli.main(["--format", "json", "maxtime", "genus2", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["binding_constraint"] is None


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
    diag = _strict_json(out / "diagnostics.json")
    assert "failure" not in diag
    checks = diag["checks"]
    assert [row["check"] for row in checks] == [
        "potential-bound", "scalar-floor", "metric-equivalence"
    ]
    assert all(row["passed"] for row in checks)
    for line in printed.splitlines()[:3]:
        assert line.startswith("[pass] ") and " | expected " in line
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
    # the drifting potential also fails its potential-bound row: exit 4
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "warning" in err and "drifts" in err


def test_flow_failed_estimate_exits_4_after_writing_every_artifact(tmp_path, capsys):
    # this run used to print [FAIL] potential-bound, exit 0 and write no verdict
    cfg = stationary_config(
        tmp_path, f_modes=[{"freq": [0, 0], "cos": 0.1}], t_end=0.5, record_every=20
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 4
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[FAIL] potential-bound | expected ")
    assert printed[1].startswith("[pass] metric-equivalence | expected ")
    for name in ("diagnostics.csv", "diagnostics.json", "phi.bin", "phi.json", "manifest.json"):
        assert (out / name).exists()
    checks = _strict_json(out / "diagnostics.json")["checks"]
    assert [(row["check"], row["passed"]) for row in checks] == [
        ("potential-bound", False), ("metric-equivalence", True)
    ]
    for row in checks:  # the keys of a verify.json row
        assert list(row) == [
            "check", "expected", "got", "tolerance", "passed", "value", "bound", "margin"
        ]
        assert row["passed"] == (row["margin"] >= 0)


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


def test_flow_config_rejects_unknown_key(tmp_path, capsys):
    cfg = stationary_config(tmp_path, **{"t-end": 3.0})
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 2
    assert "'t-end'" in capsys.readouterr().err
    assert not out.exists()


def test_flow_config_with_a_positivity_floor_is_refused(tmp_path, capsys):
    # the floor is the constant EPS_POS, no longer a run setting
    cfg = stationary_config(tmp_path, eps_pos=1e-8)
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad flow config: unknown key(s) 'eps_pos'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"dt": float("nan")}, "dt must be positive"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -1e-3}, "dt must be positive"),
        ({"dt": "1e-4"}, "dt must be a number"),
        ({"g0": 2.0}, "not subscriptable"),
        ({"t_end": [1.0]}, "a number, got [1.0]"),
        # int() and float() used to read these, so each ran and exited 0:
        # N = 16.5 ran at N = 16, record_every = True as 1, dt = True as a
        # cap of 1, "0.05" as 0.05, and frequency 1.5 as 1
        ({"N": 16.5}, "N must be an integer, got 16.5"),
        ({"n": 1.9}, "n must be an integer, got 1.9"),
        ({"record_every": 2.5}, "record_every must be an integer, got 2.5"),
        ({"record_every": True}, "record_every must be an integer, got True"),
        ({"dt": True}, "dt must be a number, got True"),
        ({"t_end": "0.05"}, "t_end must be a number, got '0.05'"),
        ({"g0": [["1.0"]]}, "a g0 entry must be a number, got '1.0'"),
        # g0[i][j] was read for i, j < n alone, so these ran with g0 = [[2.0]]
        ({"g0": [[2.0, 0.5], [0.5, 2.0]]}, "g0 must be 1x1, got [[2.0, 0.5], [0.5, 2.0]]"),
        ({"g0": [[2.0], [0.5]]}, "g0 must be 1x1"),
        ({"g0": [[2.0, 0.5]]}, "g0 must be 1x1"),
        (
            {"f_modes": [{"freq": [1.5, 0], "cos": 0.01}]},
            "a mode frequency must be an integer, got 1.5",
        ),
        # a mode entry's other keys were ignored, so "sine" ran with sin = 0
        (
            {"phi0_modes": [{"freq": [1, 0], "cos": 0.1, "sine": 0.1}]},
            "unknown phi0_modes key(s) 'sine'",
        ),
        ({"f_modes": [{"freq": [1, 0], "amp": 0.1}]}, "unknown f_modes key(s) 'amp'"),
        ({"f_modes": [{"cos": 0.1}]}, "an entry of f_modes needs a 'freq'"),
        ({"phi0_modes": [[1, 0]]}, "an entry of phi0_modes must be a JSON object, got [1, 0]"),
        # "output" was passed to Path unread: with --output-dir it was never
        # read, and without it a TypeError ended the run in a traceback
        ({"output": 5}, "output must be a string, got 5"),
        ({"output": ["a"]}, "output must be a string, got ['a']"),
        ({"output": True}, "output must be a string, got True"),
        # the modes are evaluated before the background is built, so the
        # dimension is checked first
        (
            {"n": 3, "g0": np.eye(3).tolist(), "f_modes": [{"freq": [1] + [0] * 5, "cos": 0.01}]},
            "complex dimension must be 1 or 2",
        ),
    ],
)
def test_flow_config_with_a_bad_value_is_a_usage_error(tmp_path, capsys, overrides, reason):
    cfg = stationary_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad flow config: ") and reason in err
    assert not out.exists()


def test_explicit_output_dir_wins_over_the_config_output(tmp_path, monkeypatch, capsys):
    # "--output-dir krflab-out" equals the flag's old default, so the run
    # used to go to the config's "output" directory
    monkeypatch.chdir(tmp_path)
    cfg = stationary_config(tmp_path, output="named")
    assert cli.main(["--output-dir", "krflab-out", "flow", str(cfg)]) == 0
    assert (tmp_path / "krflab-out" / "diagnostics.json").exists()
    assert not (tmp_path / "named").exists()
    assert cli.main(["flow", str(cfg)]) == 0
    assert (tmp_path / "named" / "diagnostics.json").exists()


def test_flow_config_output_is_a_string_or_null(tmp_path, monkeypatch, capsys):
    # without --output-dir, "output": 5 reached Path(5) after the run and
    # ended in a TypeError traceback, exit 1
    monkeypatch.chdir(tmp_path)
    assert cli.main(["flow", str(stationary_config(tmp_path, output=5))]) == 2
    assert "output must be a string, got 5" in capsys.readouterr().err
    assert not (tmp_path / "krflab-out").exists()
    assert cli.main(["flow", str(stationary_config(tmp_path, output=None))]) == 0
    assert (tmp_path / "krflab-out" / "diagnostics.json").exists()


def test_flow_config_with_a_short_g0_is_a_usage_error(tmp_path, capsys):
    # an IndexError from a 1x1 g0 at n = 2 used to end in a traceback
    cfg = stationary_config(tmp_path, n=2, N=8)
    assert cli.main(["--output-dir", str(tmp_path / "run"), "flow", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad flow config: ") and "out of range" in err


def test_flow_config_with_modes_builds_one_background(tmp_path, monkeypatch):
    # the twist and the initial potential are evaluated on the grid alone;
    # the one background is the one the run uses
    import krflab.maflow as mf

    built = []
    original = mf.TorusBackground.__post_init__

    def counted(self):
        built.append((self.n, self.N))
        original(self)

    monkeypatch.setattr(mf.TorusBackground, "__post_init__", counted)
    cfg = stationary_config(
        tmp_path,
        n=2,
        N=8,
        g0=[[1.0, 0.0], [0.0, 1.0]],
        f_modes=[{"freq": [1, 0, 0, 0], "cos": 0.05}],
        phi0_modes=[{"freq": [0, 1, 1, 0], "sin": 0.004}],
    )
    bg, _, phi0, _ = cli.load_flow_config(cfg)
    assert built == [(2, 8)]
    x = bg.coordinates()[0]
    assert np.array_equal(bg.f, 0.05 * np.cos(2 * np.pi * x))
    assert phi0.shape == bg.shape and np.abs(phi0).max() > 0


def test_flow_failures_map_to_the_domain_exit_code():
    # main maps every DomainError to exit 3, the flow's failures included
    import krflab.cohomology as coh
    import krflab.maflow as mf

    for cls in (mf.AdmissibilityError, mf.StepFailure, mf.SpectralTailError):
        assert issubclass(cls, coh.DomainError)


def test_flow_config_names_its_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = stationary_config(tmp_path, output=str(tmp_path / "named"))
    assert cli.main(["flow", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "named" / "diagnostics.csv").exists()
    assert not (tmp_path / "krflab-out").exists()


def test_flow_reports_step_counts(tmp_path, capsys):
    cfg = stationary_config(
        tmp_path, phi0_modes=[{"freq": [1, 0], "cos": 0.01, "sin": 0.0}]
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 0
    printed = capsys.readouterr().out
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["steps"] > 0 and diag["rhs_evals"] >= 4 * diag["steps"] + 1
    assert diag["rejected"] >= 0
    assert 0 < diag["dt_min"] <= diag["dt_last"] <= diag["dt_max"] <= 0.05  # t_end
    line = (
        f"steps: {diag['steps']} accepted, {diag['rejected']} rejected, "
        f"{diag['rhs_evals']} RHS evaluations"
    )
    assert line in printed.splitlines()


def test_flow_failure_keeps_partial_diagnostics(tmp_path, capsys):
    # the strong negative twist drives the metric against the positivity floor
    cfg = stationary_config(
        tmp_path, t_end=5.0, record_every=10, f_modes=[{"freq": [1, 0], "cos": -60.0}]
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 3
    assert "error:" in capsys.readouterr().err
    diag = _strict_json(out / "diagnostics.json")
    assert diag["termination"] in ("stalled", "step-failure", "spectral-tail")
    assert diag["converged"] is False and len(diag["rows"]) >= 1
    # the step collapses against the positivity floor shortly after the start
    failure = diag["failure"]
    assert set(failure) == {"t", "min_eig", "dt"}
    assert diag["rows"][-1][0] < failure["t"] < 0.01
    assert 0 < failure["min_eig"] < 1e-6 and 0 < failure["dt"] < 1e-9
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == len(diag["rows"]) + 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "flow"
    assert manifest["termination"] == diag["termination"]
    assert not (out / "phi.bin").exists()


def test_flow_spectral_tail_exits_3_and_keeps_its_series(tmp_path, capsys):
    # a potential at the top of the spectrum fails the first record's tail check
    cfg = stationary_config(
        tmp_path, t_end=0.2, record_every=1, phi0_modes=[{"freq": [7, 5], "cos": 1e-4}]
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(cfg)]) == 3
    assert "tail energy fraction" in capsys.readouterr().err
    diag = _strict_json(out / "diagnostics.json")
    assert diag["termination"] == "spectral-tail" and len(diag["rows"]) == 2
    assert set(diag["failure"]) == {"t", "tail", "limit"}
    assert diag["failure"]["t"] == diag["rows"][-1][0]
    assert json.loads((out / "manifest.json").read_text())["termination"] == "spectral-tail"
    assert not (out / "phi.bin").exists()


def test_flow_failure_writes_its_non_finite_numbers_as_null(tmp_path, monkeypatch, capsys):
    # an error estimate of inf shrinks every attempt until the step stalls
    import krflab.maflow.solver as solver

    monkeypatch.setattr(
        solver._Etdrk4, "attempt", lambda self, vk, ratio_k, h: solver._Step(float("inf"))
    )
    out = tmp_path / "run"
    assert cli.main(["--output-dir", str(out), "flow", str(stationary_config(tmp_path))]) == 3
    assert "below the stall step" in capsys.readouterr().err
    diag = _strict_json(out / "diagnostics.json")
    assert diag["termination"] == "stalled" and diag["steps"] == 0 and diag["rejected"] > 0
    assert diag["dt_min"] is None and diag["dt_max"] is None and diag["dt_last"] is None
    assert diag["failure"]["error"] is None and diag["failure"]["dt"] > 0


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


def test_ansatz_trajectory_cells_are_plain_floats(tmp_path, capsys):
    # numpy floats used to reach the csv as "np.float64(0.001)"
    out = tmp_path / "a"
    argv = ["--output-dir", str(out), "ansatz", "round-p1", "--scales", "1", "--t-end", "1"]
    assert cli.main(argv) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,lambda,volume,fiber_diameter" and len(rows) > 2
    for row in rows[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(","))


@pytest.mark.parametrize("flag", ["--t-end", "--dt"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_ansatz_non_positive_or_non_finite_time_is_a_usage_error(tmp_path, capsys, flag, value):
    # -1 and 0 used to end in a traceback, and nan or inf ran and exited 0
    out = tmp_path / "a"
    argv = ["--output-dir", str(out), "ansatz", "round-p1", "--scales", "1", flag, value]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite and positive" in err
    assert not out.exists()


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


def test_gh_bound_rejects_non_finite_space(tmp_path, capsys):
    space = {"schema": 1, "labels": ["a", "b", "c"], "D": [0, math.nan, 1, math.nan, 0, 1, 1, 1, 0]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))  # json writes and reads NaN
    code = cli.main(["--output-dir", str(tmp_path / "out"), "gh", "bound", str(path), str(path)])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_gh_bound_rejects_a_distance_that_is_not_a_number(tmp_path, capsys):
    # np.asarray(dtype=float) read "0", true and "1e0" as distances, so this
    # 2-point space gave epsilon = 0 and exit 0
    space = {"schema": 1, "labels": ["a", "b"], "D": ["0", True, "1e0", 0]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code = cli.main(["--output-dir", str(tmp_path / "out"), "gh", "bound", str(path), str(path)])
    assert code == 2
    assert "a distance must be a number, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "labels, message",
    [
        ("pq", "labels must be a JSON array, got 'pq'"),
        ([1, 2], "a point label must be a string, got 1"),
    ],
    ids=["string", "numbers"],
)
def test_gh_bound_rejects_labels_that_are_not_strings(tmp_path, capsys, labels, message):
    # list() split "pq" into two points and kept the numbers, so both spaces
    # loaded and gave epsilon = 0 with exit 0
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"schema": 1, "labels": labels, "D": [0, 1, 1, 0]}))
    code = cli.main(["--output-dir", str(tmp_path / "out"), "gh", "bound", str(path), str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--nb", "0"], "at least one sample"), (["--t", "-1"], "nonnegative")],
)
def test_gh_sample_rejects_bad_values(tmp_path, capsys, flags, message):
    code = cli.main(["--output-dir", str(tmp_path / "out"), "gh", "sample", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--steps", "0"], "at least one t value"),
        (["--t-start", "2", "--t-end", "1"], "strictly increasing"),
        (["--nb", "0"], "at least one point"),
    ],
)
def test_gh_collapse_rejects_bad_values(tmp_path, capsys, flags, message):
    code = cli.main(["--output-dir", str(tmp_path / "out"), "gh", "collapse", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_gh_bound_manifest_records_the_environment(tmp_path, capsys):
    import os
    import platform
    from importlib import metadata

    sample = tmp_path / "sample"
    assert cli.main(["--output-dir", str(sample), "gh", "sample", "--nb", "2", "--nf", "2"]) == 0
    space = str(sample / "space.json")
    out = tmp_path / "bound"
    assert cli.main(["--output-dir", str(out), "gh", "bound", space, space]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def test_gh_bound_exact_output_does_not_depend_on_the_seed(tmp_path, capsys):
    sample = tmp_path / "sample"
    argv = ["gh", "sample", "--t", "1.2", "--nb", "2", "--nf", "3"]
    assert cli.main(["--output-dir", str(sample), *argv]) == 0
    space = str(sample / "space.json")
    bounds = []
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        assert cli.main(["--output-dir", str(out), "--seed", seed, "gh", "bound", space, space]) == 0
        bounds.append((out / "bound.json").read_bytes())
    assert bounds[0] == bounds[1]
    assert json.loads(bounds[0])["flag"] == "exact"


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


def test_verify_report_encodes_numpy_bool_rows(tmp_path):
    res = V.CriterionResult(4, "numpy verdict")
    res.holds("floor", np.bool_(True), "drop <= 1e-4", "0", "1e-4")
    ser.write_json(tmp_path / "verify.json", V.results_payload([res]))
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["criteria"][0]["checks"][0]["passed"] is True


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds the non-JSON number {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_verify_report_rows_carry_value_bound_and_margin(tmp_path):
    out = tmp_path / "v"
    assert cli.main(["--output-dir", str(out), "verify", "--criteria", "1,6,7,8", "--report"]) == 0
    rows = [row for c in _strict_json(out / "verify.json")["criteria"] for row in c["checks"]]
    numeric = [row for row in rows if row["margin"] is not None]
    assert len(rows) == 23 and len(numeric) == 8
    for row in rows:
        if row["margin"] is None:  # a yes/no row
            assert row["value"] is None and row["bound"] is None
        else:
            assert row["margin"] == row["bound"] - row["value"]
            assert row["passed"] == (row["margin"] >= 0)


def test_verify_report_writes_a_nan_value_as_null(tmp_path, monkeypatch, capsys):
    real = V.az.integrate

    def nan_extinction(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.extinction_numeric = float("nan")
        return traj

    monkeypatch.setattr(V.az, "integrate", nan_extinction)
    out = tmp_path / "v"
    assert cli.main(["--output-dir", str(out), "verify", "--criteria", "7", "--report"]) == 4
    rk4 = _strict_json(out / "verify.json")["criteria"][0]["checks"][2]
    assert rk4["check"] == "RK4 extinction within 1e-11 of the closed form"
    assert rk4["got"] == "nan" and rk4["passed"] is False
    assert rk4["value"] is None and rk4["margin"] is None and rk4["bound"] == 1e-11


def test_verify_crashing_criterion_is_a_fail_row(tmp_path, monkeypatch, capsys):
    # a flow failure inside criterion 4 used to end the whole gate with exit 3,
    # hiding criterion 1's result, skipping criterion 7 and writing no report
    def failing_run(*args, **kwargs):
        raise V.mf.StepFailure("injected")

    monkeypatch.setattr(V.mf, "run", failing_run)
    out = tmp_path / "v"
    code = cli.main(["--output-dir", str(out), "verify", "--criteria", "1,4,7", "--report"])
    assert code == 4
    printed = capsys.readouterr().out
    assert "criterion 1: cohomology exactness [PASS]" in printed
    assert (
        "  [FAIL] criterion runs to the end | expected no exception | "
        "got StepFailure: injected | tol exact"
    ) in printed
    assert "criterion 7: closed-form extinction equals the class-line maximal time [PASS]" in printed
    report = _strict_json(out / "verify.json")
    assert [(c["index"], c["passed"]) for c in report["criteria"]] == [
        (1, True), (4, False), (7, True)
    ]
    assert len(report["criteria"][1]["checks"]) == 1


def test_verify_detects_corrupted_catalogue(tmp_path, capsys):
    # inject a tensor typo into the blowup model sign structure: e^2 should be -1
    path = builtin_catalogue(tmp_path, "blowup-p2", tensor={"0,0": "1", "1,1": "1"})
    code = cli.main(["verify", "--criteria", "1", "--catalogue", path])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_verify_criterion_7_reads_the_catalogue(tmp_path, capsys):
    # a sphere with 2 pi c1 = 3 dies at scale/3, not at the ansatz's scale/2
    path = builtin_catalogue(tmp_path, "cp1", c1twopi=["3"])
    code = cli.main(["verify", "--criteria", "7", "--catalogue", path])
    assert code == 4
    out = capsys.readouterr().out
    assert "[FAIL] sphere: closed form vs class engine" in out
    assert "[pass] RK4 extinction within 1e-11 of the closed form" in out


def test_catalogue_entry_without_basis_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "catalogue.json"
    payload = coh_models.catalogue_to_dict(coh_models.builtin_models())
    del payload["models"][0]["basis"]
    ser.write_json(path, payload)
    for argv in (
        ["models", "--catalogue", str(path)],
        ["maxtime", "--catalogue", str(path), "cp1", "1"],
        ["verify", "--catalogue", str(path)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'basis'" in err


def test_verify_catalogue_without_a_criterion_model_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "catalogue.json"
    ser.write_json(path, coh_models.catalogue_to_dict({"cp1": coh_models.get_model("cp1")}))
    assert cli.main(["verify", "--catalogue", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'torus1'" in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["flow", "{}"], "[1]", "not an object"),
        (["models", "--catalogue", "{}"], "[1]", "not an object"),
        (["gh", "bound", "{}", "{}"], "[1]", "not an object"),
        (["models", "--catalogue", "{}"], '{"schema": 1, "models": [1]}', "JSON object"),
    ],
    ids=["flow-config", "catalogue", "space", "catalogue-model"],
)
def test_json_input_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, argv, text, message):
    # a JSON value other than an object used to end in an AttributeError traceback
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [arg.format(path) for arg in argv]
    assert cli.main(["--output-dir", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_json_leads_with_the_schema_and_another_version_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    space = str(out / "space.json")
    for argv in (
        ["flow", str(stationary_config(tmp_path))],
        ["ansatz", "round-p1", "--scales", "1", "--t-end", "1"],
        ["gh", "sample", "--nb", "2", "--nf", "2"],
        ["gh", "bound", space, space],
        ["gh", "collapse", "--nb", "2", "--nf", "2", "--steps", "3"],
        ["verify", "--criteria", "1", "--report"],
    ):
        assert cli.main(["--output-dir", str(out), *argv]) == 0
    written = {path.name: path.read_text() for path in out.glob("*.json")}
    assert set(written) == {
        "diagnostics.json", "phi.json", "summary.json", "space.json", "bound.json",
        "collapse.json", "verify.json", "manifest.json",
    }
    capsys.readouterr()
    for argv in (["models"], ["maxtime", "blowup-p2", "4,-1"]):
        assert cli.main(["--format", "json", *argv]) == 0
        written[argv[0]] = capsys.readouterr().out
    for name, text in written.items():
        assert next(iter(json.loads(text).items())) == ("schema", 1), name

    catalogue = tmp_path / "catalogue.json"
    payload = coh_models.catalogue_to_dict(coh_models.builtin_models())
    catalogue.write_text(json.dumps({**payload, "schema": 2}))
    (out / "space.json").write_text(written["space.json"].replace('"schema": 1', '"schema": 2'))
    for what, argv in (
        ("flow config", ["flow", str(stationary_config(tmp_path, schema=2))]),
        ("metric-space", ["gh", "bound", space, space]),
        ("catalogue", ["models", "--catalogue", str(catalogue)]),
    ):
        assert cli.main(["--output-dir", str(tmp_path / "refused"), *argv]) == 2
        assert f"unsupported {what} schema: 2" in capsys.readouterr().err


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
                ("volume", coh.volume_functional(tensor)),
                ("u", coh.PolyFunctional({(1, 0): F(1)})),
            )
        ),
        catalogue=(),
        kodaira=None,
    )
    path = tmp_path / "cat.json"
    ser.write_json(path, coh_models.catalogue_to_dict({"hyperbolic-slice": model}))
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
    assert "[pass] normalized-decay | expected 1.000 | got 1.0" in printed
    assert "[FAIL]" not in printed
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    decay = diag["checks"][-1]
    assert decay["check"] == "normalized-decay" and decay["bound"] == 0.1
    assert 0 <= decay["value"] <= 0.1 and decay["margin"] == decay["bound"] - decay["value"]


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


@pytest.mark.parametrize("criteria", ["9", "1,9", "0,2"])
def test_verify_unknown_criterion_is_a_usage_error(criteria, capsys):
    # "--criteria 9" used to run nothing and report "all passed", and
    # "--criteria 1,9" dropped the 9 without a word
    assert cli.main(["verify", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    unknown = [tok for tok in criteria.split(",") if tok not in "12345678"]
    assert f"no criterion {', '.join(unknown)}" in captured.err
    assert "criterion 1" not in captured.out


@pytest.mark.parametrize("grid", ["17", "2", "0", "-8"])
def test_verify_bad_flow_grid_is_a_usage_error(grid, capsys):
    # a grid the flow toolkit cannot use used to end in a traceback from
    # inside criterion 2; it is now refused before any criterion runs
    assert cli.main(["verify", "--criteria", "1,2", "--flow-grid", grid]) == 2
    captured = capsys.readouterr()
    assert "power of two" in captured.err and grid in captured.err
    assert "criterion 1" not in captured.out


def test_importing_the_cli_builds_no_model():
    # the built-in models are built on first use, never at import
    code = (
        "import krflab.cohomology as coh\n"
        "built = []\n"
        "check = coh.ManifoldModel.__post_init__\n"
        "coh.ManifoldModel.__post_init__ = lambda self: built.append(self.name) or check(self)\n"
        "import krflab.cli\n"
        "from krflab.cohomology import models\n"
        "print(built, sorted(models._BUILT))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "[] []"


def test_exact_commands_load_no_numpy():
    # a fresh interpreter: the exact commands need only the class engine
    code = (
        "import sys\n"
        "from krflab import cli\n"
        "assert cli.main(['maxtime', 'blowup-p2', '4,-1']) == 0\n"
        "assert cli.main(['models']) == 0\n"
        "try:\n"
        "    cli.main(['ansatz', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "heavy = ('numpy', 'krflab.maflow', 'krflab.ghmetric', 'krflab.verify')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert "T = 1" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"
