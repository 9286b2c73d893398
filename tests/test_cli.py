"""Command-line interface: exit codes, report provenance, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachern import cli, forms, localmodel
from parachern.fiberint import FiberQuadrature
from parachern.forms import ChernData, CurvatureMatrix, FormValue, QQi
from parachern.parabolic import ParabolicModel


# The flags each subcommand reads, beyond --input and --out.
READS = {
    "pardeg": set(),
    "ops": {"samples", "seed"},
    "chern": {"samples", "seed"},
    "admissible": {"tol", "seed"},
    "masolve": {"tol"},
    "pushforward": {"tol", "samples", "seed"},
    "all": {"tol", "samples", "seed"},
}


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def flags_read(sub, **values):
    """--flag value for each of `values` that `sub` reads."""
    return [x for flag, value in values.items() if flag in READS[sub]
            for x in (f"--{flag}", str(value))]


def read_report(tmp_path, sub):
    return json.loads((tmp_path / f"{sub}_report.json").read_text())


def write_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def points_spec(count, rank):
    """`count` marked points, each with the weights k/(2 rank), k < rank."""
    return {f"p{i}": [f"{k}/{2 * rank}" for k in range(rank)] for i in range(count)}


GOOD_MODEL = {
    "rank": 2,
    "degree": 1,
    "points": {"p": ["1/2", "1/2"]},
    "coverDegree": 2,
}


class TestParDeg:
    def test_half_half_example(self, tmp_path):
        model = write_model(tmp_path, GOOD_MODEL)
        assert run(tmp_path, "pardeg", "--input", model) == 0
        rep = read_report(tmp_path, "pardeg")
        assert rep["parDeg"] == "2"
        assert rep["formsAgree"] and rep["pass"]

    def test_missing_input_is_input_error(self, tmp_path):
        assert run(tmp_path, "pardeg") == 2

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        model = write_model(tmp_path, '{"rank": 2,,}')
        assert run(tmp_path, "pardeg", "--input", model) == 2
        assert "line" in capsys.readouterr().err

    def test_malformed_weight_rejected(self, tmp_path):
        bad = dict(GOOD_MODEL, points={"p": ["3/2", "1/2"]})
        model = write_model(tmp_path, bad)
        assert run(tmp_path, "pardeg", "--input", model) == 2

    def test_provenance_fields(self, tmp_path):
        """pardeg reads no flag: its configuration is its input, and its
        report has no seed."""
        model = write_model(tmp_path, GOOD_MODEL)
        assert run(tmp_path, "pardeg", "--input", model) == 0
        rep = read_report(tmp_path, "pardeg")
        assert "seed" not in rep
        assert rep["config"] == {
            "subcommand": "pardeg",
            "inputSha256": hashlib.sha256(Path(model).read_bytes()).hexdigest(),
        }
        assert len(rep["configHash"]) == 64
        assert rep["version"]
        assert run(tmp_path, "ops", "--input", model, "--samples", "1", "--seed", "7") == 0
        assert read_report(tmp_path, "ops")["seed"] == 7


class TestOps:
    def test_identity_table_all_pass(self, tmp_path):
        model = write_model(tmp_path, GOOD_MODEL)
        assert run(tmp_path, "ops", "--input", model, "--samples", "20") == 0
        rep = read_report(tmp_path, "ops")
        assert all(r["result"] == "PASS" for r in rep["identities"])
        assert (tmp_path / "ops_identities.csv").exists()

    def test_default_model_without_input(self, tmp_path):
        assert run(tmp_path, "ops", "--samples", "5") == 0

    def test_sweep_catches_a_fault(self, tmp_path, monkeypatch):
        """A tensor product wrong only on rank >= 3, which the rank-2 default
        model is not: the sweep fails and the model's own rows pass."""
        real = cli.tensor

        def wrong_from_rank_3(a, b):
            t = real(a, b)
            return t if a.rank < 3 else ParabolicModel(t.rank, t.degree + 1, t.points)

        monkeypatch.setattr(cli, "tensor", wrong_from_rank_3)
        assert run(tmp_path, "ops", "--samples", "50") == 1
        *own, sweep = read_report(tmp_path, "ops")["identities"]
        assert sweep == {"identity": "randomized sweep (50 models)", "result": "FAIL"}
        assert len(own) == 5 and all(r["result"] == "PASS" for r in own)


class TestAdmissible:
    def test_default_fixture_passes(self, tmp_path):
        assert run(tmp_path, "admissible") == 0
        rep = read_report(tmp_path, "admissible")
        assert rep["admissible"]
        assert rep["roundTripMaxDeviation"] < 1e-10
        assert (tmp_path / "admissible_annuli.csv").exists()

    def test_default_run_leaves_numpy_ma_unimported(self, tmp_path):
        """np.median imports numpy.ma on its first call; the annulus median
        does without it."""
        code = (
            "import sys; from parachern import cli; "
            f"assert cli.main(['admissible', '--out', {str(tmp_path)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": ""},
        )
        assert out.stdout.strip().splitlines()[-1] == "False"

    def test_custom_cover(self, tmp_path):
        cfg = tmp_path / "adm.json"
        cfg.write_text(json.dumps({"N": 4, "weights": ["1/4", "3/4"], "dim": 2}))
        assert run(tmp_path, "admissible", "--input", str(cfg)) == 0

    @pytest.mark.parametrize(
        "spec,seed",
        [
            ({"N": 3, "radialNodes": 20}, 0),
            ({"N": 3, "radialNodes": 32}, 0),
            ({"N": 6, "dim": 1, "weights": ["1/6", "5/6"], "radialNodes": 12}, 2),
        ],
    )
    def test_deep_grid_admissible(self, tmp_path, spec, seed):
        path = write_model(tmp_path, spec)
        assert run(tmp_path, "admissible", "--input", path, "--seed", str(seed)) == 0
        assert read_report(tmp_path, "admissible")["admissible"]

    def test_tol_below_roundoff_ends_in_a_verdict(self, tmp_path):
        """--tol bounds the round trip, not the deck-invariance check, so a
        tol below roundoff fails the round trip instead of raising."""
        assert run(tmp_path, "admissible", "--tol", "1e-17") == 1
        rep = read_report(tmp_path, "admissible")
        assert rep["admissible"] and 1e-17 <= rep["roundTripMaxDeviation"] < 1e-10
        assert not rep["pass"]

    @pytest.mark.parametrize("defect", [1e-11, 1e-9])
    def test_small_invariance_defect_rejected(self, tmp_path, monkeypatch, defect):
        """Deck invariance has its own bound at the roundoff scale, whatever
        --tol is: a fixture that breaks it by 1e-11 is a runtime error."""
        make = localmodel.random_invariant_metric

        def broken(rng, weights, chart):
            htilde = make(rng, weights, chart)
            return lambda w: htilde(w) + defect * w[:, :1, None].real

        monkeypatch.setattr(localmodel, "random_invariant_metric", broken)
        for tol in ("1e-10", "1e-6"):
            assert run(tmp_path, "admissible", "--tol", tol) == 3

    def test_bad_weight_denominator(self, tmp_path):
        cfg = tmp_path / "adm.json"
        cfg.write_text(json.dumps({"N": 3, "weights": ["1/2"]}))
        assert run(tmp_path, "admissible", "--input", str(cfg)) == 2


class TestChern:
    def test_default_passes(self, tmp_path):
        assert run(tmp_path, "chern", "--samples", "5") == 0
        rep = read_report(tmp_path, "chern")
        assert all(r["result"] == "PASS" for r in rep["checks"])
        # rank 3 on a surface: c_0, four c_1 terms and one c_2 term per sample
        assert [(r["termsCompared"], r["termsDiffering"]) for r in rep["checks"]] == \
            [(30, 0), (30, 0)]

    @pytest.mark.parametrize("rank,samples,terms", [(4, 2, 140), (6, 1, 70)])
    def test_dim_four_passes(self, tmp_path, rank, samples, terms):
        """At m = min(rank, dim) = 4 chern_forms forms no power above X^2.
        Per sample: c_0, 16 c_1 terms, 36 c_2, 16 c_3 and one c_4 term."""
        path = write_model(tmp_path, {"rank": rank, "dim": 4})
        assert run(tmp_path, "chern", "--input", path, "--seed", "2", "--samples",
                   str(samples)) == 0
        rep = read_report(tmp_path, "chern")
        assert [(r["termsCompared"], r["termsDiffering"]) for r in rep["checks"]] == \
            [(terms, 0), (terms, 0)]

    def test_minors_off_by_one_coefficient_fails(self, tmp_path, monkeypatch):
        real = cli.chern_forms_minors

        def off_by_one(theta):
            c = real(theta)
            forms = list(c.forms)
            forms[1] = forms[1] + FormValue.monomial(c.dim, (0,), (0,), QQi(1))
            return ChernData(tuple(forms))

        monkeypatch.setattr(cli, "chern_forms_minors", off_by_one)
        assert run(tmp_path, "chern", "--samples", "3") == 1
        rep = read_report(tmp_path, "chern")
        minors, conj = rep["checks"]
        assert minors["result"] == "FAIL" and minors["termsDiffering"] >= 1
        assert conj["result"] == "PASS" and conj["termsDiffering"] == 0
        assert rep["pass"] is False

    def test_conjugation_fault_fails(self, tmp_path, monkeypatch):
        """A conjugation that scales Theta_ij by d_i d_j, not d_i / d_j,
        changes the Chern forms; the conjugation check must see it, and the
        minors check, which never conjugates, must not."""
        def scaled(self, d):
            r = self.rank
            return CurvatureMatrix([[(d[i] * d[j]) * self.entries[i][j] for j in range(r)]
                                    for i in range(r)])

        monkeypatch.setattr(CurvatureMatrix, "conjugated", scaled)
        assert run(tmp_path, "chern", "--samples", "3") == 1
        rep = read_report(tmp_path, "chern")
        minors, conj = rep["checks"]
        assert (minors["result"], minors["termsCompared"], minors["termsDiffering"]) == \
            ("PASS", 18, 0)
        assert (conj["result"], conj["termsCompared"], conj["termsDiffering"]) == \
            ("FAIL", 18, 15)
        assert rep["pass"] is False

    def test_power_trace_fault_fails(self, tmp_path, monkeypatch):
        """Power traces that count the triangle X_01 X_12 X_20 four times,
        not three, change c_3; the minors check must see it at rank 4 on a
        3-fold, and the conjugation check, whose two sides share the fault,
        must not.  On a surface the traces never reach that route."""
        real = forms._rotation_traces

        def four_triangles(X, zero):
            p1, p2, p3 = real(X, zero)
            return [p1, p2, p3 + X[0][1].wedge(X[1][2]).wedge(X[2][0])]

        monkeypatch.setattr(forms, "_rotation_traces", four_triangles)
        path = write_model(tmp_path, {"rank": 4, "dim": 3})
        assert run(tmp_path, "chern", "--input", path, "--seed", "1", "--samples", "3") == 1
        rep = read_report(tmp_path, "chern")
        minors, conj = rep["checks"]
        assert (minors["result"], minors["termsCompared"], minors["termsDiffering"]) == \
            ("FAIL", 60, 3)
        assert (conj["result"], conj["termsDiffering"]) == ("PASS", 0)
        assert rep["pass"] is False
        path = write_model(tmp_path, {"rank": 3, "dim": 2})
        assert run(tmp_path, "chern", "--input", path, "--seed", "1", "--samples", "3") == 0

    @pytest.mark.parametrize("rank,dim", [
        (r, n) for r in range(cli.LIMITS["chern"]["rank"][0], cli.LIMITS["chern"]["rank"][1] + 1)
        for n in range(cli.LIMITS["chern"]["dim"][0], cli.LIMITS["chern"]["dim"][1] + 1)])
    def test_valid_input_sweep_passes(self, tmp_path, rank, dim):
        """Every rank and dim that LIMITS accepts exits 0 with both checks
        PASS, rank 1 and dim 1 included: there a draw can be the exact zero
        curvature, which must stay exact."""
        path = write_model(tmp_path, {"rank": rank, "dim": dim})
        assert run(tmp_path, "chern", "--input", path, "--seed", "1", "--samples", "5") == 0
        rep = read_report(tmp_path, "chern")
        assert [r["result"] for r in rep["checks"]] == ["PASS", "PASS"]


class TestPushforward:
    def test_r2_fixture_closed_form_half(self, tmp_path):
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1.0, 2.0]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "10") == 0
        rep = read_report(tmp_path, "pushforward")
        assert rep["closedForm"] == 0.5
        assert abs(rep["quadrature"]["value"] - 0.5) < 1e-6
        assert rep["maxCoeffDeviation"] == 0.0

    def test_single_coefficient_passes(self, tmp_path):
        """With one coefficient every value is exact and the Monte Carlo
        standard error is 0; the comparison must still pass."""
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg)) == 0
        rep = read_report(tmp_path, "pushforward")
        assert rep["quadrature"]["value"] == rep["monteCarlo"]["estimate"] == 1.0
        assert rep["monteCarlo"]["stderr"] == 0.0 and rep["pass"]

    def test_report_counts_the_work(self, tmp_path):
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [0.8, 1.5, 2.5, 1.2]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "10") == 0
        quad = read_report(tmp_path, "pushforward")["quadrature"]
        assert quad["h"] == 0.6 and quad["halvingLevels"] == 0
        assert quad["L"] == pytest.approx(0.6 + math.log(16 * 3 / 1e-10))
        assert len(quad["nodesPerAxis"]) == 3 and all(90 <= n <= 93 for n in quad["nodesPerAxis"])
        assert 0 < quad["errorEstimate"] <= 1e-10 * quad["value"]
        assert read_report(tmp_path, "pushforward")["monteCarlo"]["samples"] == 100_000

    def test_five_coefficients_pass_at_a_looser_tol(self, tmp_path):
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [0.3, 2.0, 5.0, 1.0, 0.7]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "1", "--tol", "1e-9") == 0
        assert read_report(tmp_path, "pushforward")["pass"]

    def test_closed_form_check_is_relative(self, tmp_path, monkeypatch):
        """A quadrature of 0 against the closed form 1e-18 fails on its own,
        with the Monte Carlo oracle stubbed to agree with it."""
        monkeypatch.setattr(cli, "scalar_fiber_integral", lambda c, tol: FiberQuadrature(0.0, 0.0))
        monkeypatch.setattr(cli, "monte_carlo_oracle", lambda c, budget, seed: (0.0, 1e-30))
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1e6] * 3}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "1") == 1
        rep = read_report(tmp_path, "pushforward")
        assert rep["closedForm"] == pytest.approx(1e-18) and rep["maxCoeffDeviation"] == 0.0
        assert not rep["pass"]

    def test_nonpositive_c_rejected(self, tmp_path):
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1.0, -2.0]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg)) == 2

    @pytest.mark.parametrize("seed", [145, 836])
    def test_monte_carlo_gate_passes_correct_runs(self, tmp_path, seed):
        """At c = [1, 2, 0.5] these seeds draw a Monte Carlo estimate 3.4
        and 4.0 standard errors from a quadrature that matches the closed
        form; a gate of 3 se failed them."""
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1, 2, 0.5]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "50",
                   "--seed", str(seed)) == 0
        rep = read_report(tmp_path, "pushforward")
        assert abs(rep["quadrature"]["value"] - 1) < 1e-10
        mc = rep["monteCarlo"]
        assert 3 < abs(rep["quadrature"]["value"] - mc["estimate"]) / mc["stderr"] <= cli.MC_GATE_SE

    @pytest.mark.parametrize("c", [[1, 1], [2, 2]], ids=["1-1", "2-2"])
    def test_constant_importance_weight_passes(self, tmp_path, c):
        """At c = [a, a] the importance weight is the constant 1/a^2, so the
        standard error is roundoff, and the gate is the quadrature's own
        error estimate: MC_GATE_SE standard errors alone fail every seed."""
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": c}))
        assert run(tmp_path, "pushforward", "--input", str(cfg), "--samples", "10") == 0
        rep = read_report(tmp_path, "pushforward")
        assert rep["pass"] and rep["monteCarlo"]["stderr"] < 1e-15 * rep["closedForm"]

    def test_monte_carlo_beyond_the_gate_fails(self, tmp_path, monkeypatch):
        se = 1e-3
        monkeypatch.setattr(cli, "monte_carlo_oracle",
                            lambda c, budget, seed: (0.5 + (cli.MC_GATE_SE + 1) * se, se))
        assert run(tmp_path, "pushforward", "--samples", "10") == 1
        rep = read_report(tmp_path, "pushforward")
        assert abs(rep["quadrature"]["value"] - rep["closedForm"]) < 1e-10 and not rep["pass"]


def write_csv_fields(tmp_path, M, first_entry=None):
    """CSV files of the constant fixture on the M x M grid, with the first
    entry of each field named in `first_entry` replaced; returns the spec."""
    spec = {}
    for key, cols, value in (("c1Csv", 4 * M, 0.0), ("c2Csv", M, 1.5), ("etaCsv", M, 1.0)):
        field = np.full((M, cols), value)
        if key == "c1Csv":
            field.reshape(M, M, 2, 2)[..., [0, 1], [0, 1]] = 2.0
        if first_entry and key in first_entry:
            field[0, 0] = first_entry[key]
        np.savetxt(tmp_path / f"{key}.csv", field, delimiter=",")
        spec[key] = str(tmp_path / f"{key}.csv")
    return spec


class TestMASolve:
    def test_constant_fixture_zero_iterations(self, tmp_path):
        assert run(tmp_path, "masolve") == 0
        rep = read_report(tmp_path, "masolve")
        assert rep["iterations"] == 0 and rep["pass"]
        assert (tmp_path / "masolve_residuals.csv").exists()

    def test_perturbed_fixture(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "perturbed", "M": 32, "eps": 0.1}))
        assert run(tmp_path, "masolve", "--input", str(cfg), "--tol", "1e-9") == 0
        rep = read_report(tmp_path, "masolve")
        assert rep["finalResidual"] < 1e-8
        assert rep["conclusion"]["schur_positive"]

    @pytest.mark.parametrize("rank,code", [(2, 0), (3, 2)])
    def test_constant_fixture_rank_limit(self, tmp_path, capsys, rank, code):
        """The constant fixture's right side 2.5 - r(r - 1) is positive only
        up to rank 2; a higher rank is invalid input, named in one line."""
        spec = {"fixture": "constant", "M": 16, "rank": rank}
        assert run(tmp_path, "masolve", "--input", write_model(tmp_path, spec)) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.count("\n") == 1 and "rank at most 2" in err and "got 3" in err
        else:
            assert read_report(tmp_path, "masolve")["pass"]

    def test_hypothesis_failure_is_runtime_error(self, tmp_path, capsys):
        """eta = 1 + eps cos 2 pi x_1 reaches 0 once |eps| >= 1; eta > 0 is the
        hypothesis of the conclusion, so each such eps is a failed hypothesis
        (exit 3) that names eta, not a failed check (exit 1)."""
        cfg = tmp_path / "ma.json"
        for eps in (2.0, -1.05, -1.0, 1.0, 1.02, 1.05):
            cfg.write_text(json.dumps({"fixture": "perturbed", "M": 16, "eps": eps}))
            assert run(tmp_path, "masolve", "--input", str(cfg)) == 3, eps
            assert "HypothesisError: eta must be positive" in capsys.readouterr().err

    def test_eta_just_positive_passes(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "perturbed", "M": 16, "eps": -0.999}))
        assert run(tmp_path, "masolve", "--input", str(cfg)) == 0

    @pytest.mark.parametrize("M,code", [(8, 0), (4, 2)])
    def test_csv_fields(self, tmp_path, M, code):
        """The constant fixture read from CSV files; grids below the
        smallest allowed size are input errors."""
        spec = write_csv_fields(tmp_path, M)
        assert run(tmp_path, "masolve", "--input", write_model(tmp_path, spec)) == code
        del spec["etaCsv"]
        assert run(tmp_path, "masolve", "--input", write_model(tmp_path, spec)) == 2

    @pytest.mark.parametrize(
        "key,value", [("etaCsv", "nan"), ("etaCsv", "inf"), ("c1Csv", "nan"), ("c2Csv", "-inf")]
    )
    def test_nonfinite_csv_fields_rejected(self, tmp_path, capsys, key, value):
        spec = write_csv_fields(tmp_path, 8, {key: float(value)})
        assert run(tmp_path, "masolve", "--input", write_model(tmp_path, spec)) == 2
        assert "field data must be finite" in capsys.readouterr().err

    def test_unknown_fixture_rejected(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "whatever"}))
        assert run(tmp_path, "masolve", "--input", str(cfg)) == 2


class TestMASolveDiagnostics:
    def test_gmres_counters_in_report_and_csv(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "hermite-einstein", "M": 32}))
        assert run(tmp_path, "masolve", "--input", str(cfg)) == 0
        rep = read_report(tmp_path, "masolve")
        counts = rep["gmresIterations"]
        assert len(counts) == rep["iterations"] > 0 and min(counts) >= 1
        assert len(rep["damping"]) == rep["iterations"]
        assert all(0 < t <= 1 for t in rep["damping"])
        lines = (tmp_path / "masolve_residuals.csv").read_text().splitlines()
        assert lines[0] == "iteration,residual,minEig,conservation,gmres"
        assert [int(line.split(",")[-1]) for line in lines[1:]] == [0, *counts]

    def test_tol_1e13_passes_at_512(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "hermite-einstein", "M": 512}))
        assert run(tmp_path, "masolve", "--input", str(cfg), "--tol", "1e-13") == 0
        rep = read_report(tmp_path, "masolve")
        assert rep["pass"] and rep["finalResidual"] < 1e-13

    @pytest.mark.parametrize("tol", ["1e-13", "1e-14", "1e-15"])
    def test_tol_below_roundoff_floor(self, tmp_path, capsys, tol):
        """At rank 64, max|F| puts the floor estimate near 6.5e-11."""
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "hermite-einstein", "M": 128, "rank": 64}))
        assert run(tmp_path, "masolve", "--input", str(cfg), "--tol", tol) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("runtime error: ConvergenceError: ")
        assert f"tol {float(tol):.1e} is below the roundoff floor" in err

    def test_main_reuses_one_parser(self, tmp_path, monkeypatch):
        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        assert run(tmp_path, "masolve") == 0

class TestReproducibility:
    @pytest.mark.parametrize("sub", list(cli.COMMANDS))
    def test_byte_identical_reports(self, tmp_path, sub):
        """Two runs with the same config and seed write the same bytes in
        every report and CSV."""
        argv = [sub, *flags_read(sub, samples=10, seed=3)]
        if sub == "pardeg":
            argv += ["--input", write_model(tmp_path, GOOD_MODEL)]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main([*argv, "--out", str(out)]) == 0
        names = sorted(path.name for path in a.iterdir())
        assert f"{sub}_report.json" in names
        assert names == sorted(path.name for path in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_monte_carlo(self, tmp_path):
        run(tmp_path, "pushforward", "--samples", "10", "--seed", "1")
        r1 = read_report(tmp_path, "pushforward")
        run(tmp_path, "pushforward", "--samples", "10", "--seed", "2")
        r2 = read_report(tmp_path, "pushforward")
        assert r1["monteCarlo"]["estimate"] != r2["monteCarlo"]["estimate"]
        assert r1["configHash"] != r2["configHash"]

    def test_all_aggregates(self, tmp_path):
        assert run(tmp_path, "all", "--samples", "5") == 0
        rep = read_report(tmp_path, "all")
        assert rep["pass"] and all(rep["suites"].values())
        # each suite runs on its defaults, with no input
        empty = hashlib.sha256(b"").hexdigest()
        for sub in [*rep["suites"], "all"]:
            config = read_report(tmp_path, sub)["config"]
            assert config["subcommand"] == sub and config["inputSha256"] == empty

    def test_log_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARACHERN_LOG", "DEBUG")
        assert run(tmp_path, "chern", "--samples", "2") == 0


class TestInputContract:
    """Every input ends in a documented exit code; a malformed one in 2,
    with one line on stderr and no traceback."""

    MALFORMED = [
        ("masolve", [1, 2], []),
        ("masolve", {"M": "abc"}, []),
        ("masolve", {"rank": 0}, []),
        ("masolve", {"M": 0}, []),
        ("masolve", {"M": -4}, []),
        ("masolve", {"fixture": "perturbed", "M": 16}, ["--tol", "0"]),
        ("masolve", {"fixture": "constant", "M": 16, "eps": "oops"}, []),
        ("masolve", {"fixture": "constant", "M": 16, "eps": 1e9}, []),
        ("chern", {"rank": 0}, []),
        ("chern", {"rank": -1}, []),
        ("chern", {"dim": 0}, []),
        ("chern", {}, ["--samples", "-1"]),
        ("admissible", {}, ["--tol", "-1"]),
        ("pushforward", {"c": ["x"]}, []),
        ("pushforward", {"c": []}, []),
        ("pushforward", {"c": [1] * 6}, []),
        ("pushforward", {"c": "12"}, []),
        ("pushforward", {"c": [1, 2, 0.5]}, ["--samples", "0"]),
        ("pushforward", {"c": [1, 2, 0.5]}, ["--samples", "1000000000"]),
        ("admissible", {"weights": ["2/3", "1/3"]}, []),
        ("admissible", [3], []),
        ("admissible", {"radialNodes": 2}, []),
        ("admissible", {"N": 0}, []),
        ("admissible", {"dim": 0}, []),
        ("pardeg", [1], []),
        ("pardeg", {"rank": "x", "degree": 1}, []),
        ("ops", {"rank": 1, "degree": 0}, ["--samples", "-1"]),
        ("ops", {"rank": 65, "degree": 0}, []),
        ("pardeg", {"rank": 65, "degree": 0}, []),
        ("ops", {"rank": 1, "degree": 0, "points": points_spec(17, 1)}, []),
        ("pardeg", {"rank": 1, "degree": 0, "points": points_spec(17, 1)}, []),
        ("pardeg", {"rank": 2.7, "degree": 0}, []),
        ("pardeg", {"rank": 1, "degree": 1.9}, []),
        ("pardeg", {"rank": True, "degree": 0}, []),
        ("ops", {"rank": 1, "degree": False}, []),
        ("pardeg", {"rank": 1, "degree": 0, "coverDegree": 0}, []),
        ("pardeg", {"rank": 1, "degree": 0, "coverDegree": -4}, []),
        ("ops", {"rank": 1, "degree": 0, "coverDegree": 2.0}, []),
        ("all", {}, []),
    ]

    @pytest.mark.parametrize(
        "sub,spec,extra",
        MALFORMED,
        ids=[" ".join([sub, json.dumps(spec), *extra]) for sub, spec, extra in MALFORMED],
    )
    def test_malformed_input_exits_two(self, tmp_path, capsys, sub, spec, extra):
        path = write_model(tmp_path, spec)
        assert run(tmp_path, sub, "--input", path, *extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")

    @pytest.mark.parametrize("samples", [3000, cli.SAMPLES_MAX])
    def test_samples_cap_admits_documented_runs(self, samples):
        # ROADMAP times ops --samples 3000
        args = cli.build_parser().parse_args(["ops", "--samples", str(samples)])
        assert args.samples == samples

    def test_point_cap_admits_largest_model(self, tmp_path):
        spec = {"rank": 64, "degree": 0, "points": points_spec(16, 64)}
        path = write_model(tmp_path, spec)
        assert run(tmp_path, "ops", "--input", path, "--samples", "1") == 0
        assert read_report(tmp_path, "ops")["pass"]

    @pytest.mark.parametrize("c", [[1.0] * 5, [1e-3, 1, 1e3, 1, 1]])
    def test_quadrature_over_budget_is_runtime_error(self, tmp_path, capsys, c):
        path = write_model(tmp_path, {"c": c})
        assert run(tmp_path, "pushforward", "--input", path) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: QuadratureError: ")
        assert len(err.splitlines()) == 1


def parser_flags(sub):
    """The flags of `sub`'s parser, beyond --help, --input and --out."""
    subs = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {
        s[2:] for a in subs.choices[sub]._actions for s in a.option_strings if s.startswith("--")
    } - {"help", "input", "out"}


class TestFlagContract:
    """Each subcommand takes the flags it reads and no other, and its report
    records exactly those."""

    VALUES = {"tol": 1e-9, "samples": 2, "seed": 1}
    UNREAD = [
        (sub, f"--{flag}", value)
        for sub in cli.COMMANDS
        for flag, value in (("tol", "1e-3"), ("samples", "5"), ("seed", "7"))
        if flag not in READS[sub]
    ]

    @pytest.mark.parametrize("sub", list(cli.COMMANDS))
    def test_parser_and_report_take_the_flags_read(self, tmp_path, sub):
        assert set(cli.FLAGS[sub]) == parser_flags(sub) == READS[sub]
        argv = [sub, *flags_read(sub, **self.VALUES)]
        if sub == "pardeg":
            argv += ["--input", write_model(tmp_path, GOOD_MODEL)]
        assert run(tmp_path, *argv) == 0
        # all records its own flags, and each suite it runs only the suite's
        for name in [sub, *read_report(tmp_path, sub).get("suites", ())]:
            rep = read_report(tmp_path, name)
            assert rep["config"] == {
                "subcommand": name,
                "inputSha256": rep["config"]["inputSha256"],
                **{flag: self.VALUES[flag] for flag in READS[name]},
            }
            assert rep.get("seed") == rep["config"].get("seed")
            assert ("seed" in rep) == ("seed" in READS[name])

    @pytest.mark.parametrize("sub,flag,value", UNREAD, ids=[" ".join(c) for c in UNREAD])
    def test_unread_flag_exits_two(self, tmp_path, capsys, sub, flag, value):
        assert run(tmp_path, sub, flag, value) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not any(tmp_path.iterdir())


KNOWN_KEYS = {
    "pardeg": ["rank", "degree", "points", "coverDegree"],
    "ops": ["rank", "degree", "points", "coverDegree"],
    "admissible": ["N", "dim", "weights", "rho", "radialNodes", "angularNodes"],
    "chern": ["rank", "dim"],
    "pushforward": ["c"],
    "masolve": ["fixture", "M", "rank", "eps"],
}
SCALARS = st.one_of(
    st.integers(-2, 6),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["1/3", "2/3", "perturbed", "hermite-einstein"]),
    st.none(),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


@st.composite
def cli_inputs(draw):
    sub = draw(st.sampled_from(sorted(KNOWN_KEYS)))
    spec = draw(
        st.one_of(
            VALUES,
            st.dictionaries(st.sampled_from(KNOWN_KEYS[sub]), VALUES),
        )
    )
    return sub, spec


@settings(max_examples=100, deadline=None)
@given(cli_inputs())
def test_fuzzed_input_ends_in_a_documented_exit_code(case):
    """Any JSON value as input: a non-object, or an object whose known keys
    hold values of any JSON type."""
    sub, spec = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(
        err
    ), contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(spec))
        code = cli.main([sub, "--input", str(path), *flags_read(sub, samples=1), "--out", tmp])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
