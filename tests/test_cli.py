"""Command-line interface: exit codes, report provenance, reproducibility."""

import json

import pytest

from parachern import cli


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def read_report(tmp_path, sub):
    return json.loads((tmp_path / f"{sub}_report.json").read_text())


def write_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


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
        model = write_model(tmp_path, GOOD_MODEL)
        run(tmp_path, "pardeg", "--input", model, "--seed", "7")
        rep = read_report(tmp_path, "pardeg")
        assert rep["seed"] == 7
        assert len(rep["configHash"]) == 64
        assert rep["version"]


class TestOps:
    def test_identity_table_all_pass(self, tmp_path):
        model = write_model(tmp_path, GOOD_MODEL)
        assert run(tmp_path, "ops", "--input", model, "--samples", "20") == 0
        rep = read_report(tmp_path, "ops")
        assert all(r["result"] == "PASS" for r in rep["identities"])
        assert (tmp_path / "ops_identities.csv").exists()

    def test_default_model_without_input(self, tmp_path):
        assert run(tmp_path, "ops", "--samples", "5") == 0

    def test_worker_count_does_not_change_results(self, tmp_path):
        run(tmp_path, "ops", "--samples", "12", "--workers", "1")
        r1 = read_report(tmp_path, "ops")["identities"]
        run(tmp_path, "ops", "--samples", "12", "--workers", "4")
        r4 = read_report(tmp_path, "ops")["identities"]
        assert r1 == r4


class TestAdmissible:
    def test_default_fixture_passes(self, tmp_path):
        assert run(tmp_path, "admissible") == 0
        rep = read_report(tmp_path, "admissible")
        assert rep["admissible"]
        assert rep["roundTripMaxDeviation"] < 1e-10
        assert (tmp_path / "admissible_annuli.csv").exists()

    def test_custom_cover(self, tmp_path):
        cfg = tmp_path / "adm.json"
        cfg.write_text(json.dumps({"N": 4, "weights": ["1/4", "3/4"], "dim": 2}))
        assert run(tmp_path, "admissible", "--input", str(cfg)) == 0

    def test_bad_weight_denominator(self, tmp_path):
        cfg = tmp_path / "adm.json"
        cfg.write_text(json.dumps({"N": 3, "weights": ["1/2"]}))
        assert run(tmp_path, "admissible", "--input", str(cfg)) == 2


class TestChern:
    def test_default_passes(self, tmp_path):
        assert run(tmp_path, "chern", "--samples", "5") == 0
        rep = read_report(tmp_path, "chern")
        assert all(r["result"] == "PASS" for r in rep["checks"])


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

    def test_nonpositive_c_rejected(self, tmp_path):
        cfg = tmp_path / "pf.json"
        cfg.write_text(json.dumps({"c": [1.0, -2.0]}))
        assert run(tmp_path, "pushforward", "--input", str(cfg)) == 2


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

    def test_hypothesis_failure_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "perturbed", "M": 16, "eps": 2.0}))
        assert run(tmp_path, "masolve", "--input", str(cfg)) == 3

    def test_unknown_fixture_rejected(self, tmp_path):
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": "whatever"}))
        assert run(tmp_path, "masolve", "--input", str(cfg)) == 2


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(
                ["pushforward", "--samples", "10", "--seed", "3", "--out", str(out)]
            ) == 0
        assert (a / "pushforward_report.json").read_bytes() == (
            b / "pushforward_report.json"
        ).read_bytes()

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

    def test_log_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARACHERN_LOG", "DEBUG")
        assert run(tmp_path, "chern", "--samples", "2") == 0
