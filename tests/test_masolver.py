"""Monge-Ampere solver on the flat torus model."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parachern import cli, masolver
from parachern.forms import CurvatureMatrix, FormValue, chern_forms
from parachern.masolver import (
    ConvergenceError,
    HypothesisError,
    MAProblem,
    TorusField,
    chern_crosscheck,
    conformal_fields,
    ddc_potential,
    det_field,
    fd_hessian,
    fixture_problem,
    grid_coordinates,
    interpolant_residual,
    min_eigenvalue,
    normalize_problem,
    solve,
    spectral_hessian,
    verify_conclusion,
    wedge_density,
)


def constant_problem(M=32, r=2, c=2.0, c2val=3.0, etaval=1.0):
    c1 = TorusField("(1,1)", np.broadcast_to(c * np.eye(2), (M, M, 2, 2)).copy())
    c2 = TorusField("(2,2)", np.full((M, M), c2val))
    eta = TorusField("(2,2)", np.full((M, M), etaval))
    return MAProblem(r, c1, c2, eta)


def manufactured_problem(M, r=2, amp=0.02):
    """Continuum solution phi* with analytic Hessian; returns (problem, phi*)."""
    x1, x2 = grid_coordinates(M)
    s1, c1x = np.sin(2 * np.pi * x1), np.cos(2 * np.pi * x1)
    s2, c2x = np.sin(2 * np.pi * x2), np.cos(2 * np.pi * x2)
    phi = amp * s1 * c2x + amp / 2 * c2x
    w = (2 * np.pi) ** 2
    H = np.empty((M, M, 2, 2))
    H[..., 0, 0] = -amp * w * s1 * c2x
    H[..., 1, 1] = -amp * w * s1 * c2x - amp / 2 * w * c2x
    H[..., 0, 1] = -amp * w * c1x * s2
    H[..., 1, 0] = H[..., 0, 1]
    c1 = np.broadcast_to(r * np.eye(2), (M, M, 2, 2)).copy()
    g = c1 / r + 0.25 * H
    F = r * (r + 1) * det_field(g)
    kl = np.full((M, M), 0.2)
    c2 = (2 * r * kl + (r - 1) * wedge_density(c1, c1)) / (2 * r)
    eta = F - kl
    prob = MAProblem(
        r,
        TorusField("(1,1)", c1),
        TorusField("(2,2)", c2),
        TorusField("(2,2)", eta),
    )
    return prob, phi - phi.mean()


# ---------------------------------------------------------------------------
# fields and operators
# ---------------------------------------------------------------------------


class TestTorusField:
    def test_roundtrip_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 4, 2, 2))
        data = 0.5 * (data + np.swapaxes(data, 2, 3))
        f = TorusField("(1,1)", data)
        np.savetxt(tmp_path / "f.csv", data.reshape(4, -1), delimiter=",")
        g = TorusField.load_csv(tmp_path / "f.csv", "(1,1)")
        assert np.allclose(f.data, g.data)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TorusField("(3,3)", np.zeros((4, 4)))

    def test_rejects_asymmetric_matrix_field(self):
        data = np.zeros((4, 4, 2, 2))
        data[..., 0, 1] = 1.0
        with pytest.raises(ValueError):
            TorusField("(1,1)", data)


class TestOperators:
    def test_spectral_hessian_exact_on_modes(self):
        M = 32
        x1, x2 = grid_coordinates(M)
        phi = np.sin(2 * np.pi * x1) * np.cos(4 * np.pi * x2)
        H = spectral_hessian(phi)
        w1, w2 = 2 * np.pi, 4 * np.pi
        assert np.allclose(H[..., 0, 0], -w1**2 * phi, atol=1e-10)
        assert np.allclose(H[..., 1, 1], -w2**2 * phi, atol=1e-10)
        assert np.allclose(
            H[..., 0, 1],
            -w1 * w2 * np.cos(2 * np.pi * x1) * np.sin(4 * np.pi * x2),
            atol=1e-10,
        )

    def test_fd_hessian_second_order(self):
        errs = []
        for M in (16, 32, 64):
            x1, x2 = grid_coordinates(M)
            phi = np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
            errs.append(
                np.abs(fd_hessian(phi) - spectral_hessian(phi)).max()
            )
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 1.9 for o in orders)

    def test_wedge_density_is_twice_det(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(5, 5, 2, 2))
        g = 0.5 * (g + np.swapaxes(g, 2, 3))
        assert np.allclose(wedge_density(g, g), 2 * det_field(g))

    def test_min_eigenvalue(self):
        g = np.array([[[[2.0, 1.0], [1.0, 2.0]]]])
        assert np.allclose(min_eigenvalue(g), 1.0)

    def test_ddc_exactness_zero_mass(self):
        # mean of every dd^c phi coefficient vanishes: exactness on the torus
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(16, 16))
        d = ddc_potential(phi)
        assert np.abs(d.mean(axis=(0, 1))).max() < 1e-14


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_compatible_input_scale_one(self):
        M, r = 16, 2
        raw = constant_problem(M, r, c=2.0, c2val=3.0, etaval=1.0)
        target = (r + 1) / r * det_field(raw.c1.data).mean()
        etaval = target - raw.kl_density().mean()
        raw = constant_problem(M, r, c=2.0, c2val=3.0, etaval=float(etaval))
        prob = normalize_problem(raw)
        assert abs(prob.eta_scale - 1.0) < 1e-12

    def test_doubled_eta_scale_half(self):
        raw1 = fixture_problem("hermite-einstein", 16)
        raw2 = MAProblem(
            raw1.rank, raw1.c1, raw1.c2, TorusField("(2,2)", 2 * raw1.eta.data)
        )
        s1 = normalize_problem(raw1).eta_scale
        s2 = normalize_problem(raw2).eta_scale
        assert abs(s2 - s1 / 2) < 1e-12

    def test_random_positive_eta_compatible_to_1e12(self):
        rng = np.random.default_rng(3)
        M = 16
        x1, x2 = grid_coordinates(M)
        raw = fixture_problem("hermite-einstein", M)
        eta = 1.0 + 0.3 * np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        raw = MAProblem(raw.rank, raw.c1, raw.c2, TorusField("(2,2)", eta))
        prob = normalize_problem(raw)
        assert prob.compatibility_defect() < 1e-12

    def test_rejects_nonpositive_rhs(self):
        raw = fixture_problem("hermite-einstein", 16)
        bad = MAProblem(
            raw.rank,
            raw.c1,
            TorusField("(2,2)", -np.abs(raw.c2.data) * 10),
            TorusField("(2,2)", raw.eta.data * 1e-6),
        )
        with pytest.raises(HypothesisError):
            normalize_problem(bad)

    def test_rejects_nonpositive_eta(self):
        """eta = 1 + cos 2 pi x_1 is 0 at x_1 = 1/2 while F = eta + KL stays
        positive; eta is the Schur form the conclusion asserts positive."""
        raw = fixture_problem("perturbed", 16, eps=1.0)
        assert raw.rhs().min() > 0
        with pytest.raises(HypothesisError, match="eta must be positive"):
            normalize_problem(raw)

    def test_rejects_nonpositive_background(self):
        M = 8
        c1 = TorusField("(1,1)", np.broadcast_to(-np.eye(2), (M, M, 2, 2)).copy())
        with pytest.raises(ValueError):
            MAProblem(
                2,
                c1,
                TorusField("(2,2)", np.ones((M, M))),
                TorusField("(2,2)", np.ones((M, M))),
            )


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


class TestSolve:
    def test_constant_data_zero_iterations(self):
        prob = normalize_problem(constant_problem())
        phi, diag = solve(prob)
        assert diag.iterations == 0
        assert np.abs(phi.data).max() == 0.0

    def test_perturbed_residual_below_1e8_at_64(self):
        prob = normalize_problem(fixture_problem("perturbed", 64))
        phi, diag = solve(prob, tol=1e-9)
        assert diag.converged
        assert diag.residuals[-1] < 1e-8
        assert abs(phi.data.mean()) < 1e-13

    def test_hermite_einstein_like_converges_positive(self):
        prob = normalize_problem(fixture_problem("hermite-einstein", 64))
        phi, diag = solve(prob, tol=1e-10)
        assert diag.converged
        assert min(diag.min_eigs) > 0

    def test_monotone_residuals(self):
        prob = normalize_problem(fixture_problem("hermite-einstein", 32))
        _, diag = solve(prob, tol=1e-10)
        assert all(b < a for a, b in zip(diag.residuals, diag.residuals[1:]))

    def test_discrete_conservation(self):
        prob = normalize_problem(fixture_problem("hermite-einstein", 32))
        _, diag = solve(prob, tol=1e-10)
        assert max(diag.conservation) < 1e-12

    def test_symmetry_equivariance(self):
        M = 32
        x1, _ = grid_coordinates(M)
        c1 = np.broadcast_to(2 * np.eye(2), (M, M, 2, 2)).copy() + ddc_potential(
            0.02 * np.cos(4 * np.pi * x1)
        )
        kl = np.full((M, M), 0.3)
        c2 = (4 * kl + wedge_density(c1, c1)) / 4
        eta = 1 + 0.1 * np.cos(4 * np.pi * x1)
        prob = normalize_problem(
            MAProblem(
                2,
                TorusField("(1,1)", c1),
                TorusField("(2,2)", c2),
                TorusField("(2,2)", eta),
            )
        )
        phi, _ = solve(prob)
        # data have period 1/2 in x1: the solution must too
        assert np.abs(phi.data - np.roll(phi.data, M // 2, axis=0)).max() < 1e-10

    def test_unnormalized_problem_rejected(self):
        with pytest.raises(ValueError):
            solve(fixture_problem("perturbed", 16))

    def test_nonconvergence_raises(self):
        prob = normalize_problem(fixture_problem("hermite-einstein", 16))
        with pytest.raises(ConvergenceError):
            solve(prob, tol=1e-13, max_iter=1)


class TestManufactured:
    def test_spectral_solver_recovers_continuum(self):
        prob, phi_ex = manufactured_problem(64)
        prob = normalize_problem(prob)
        assert abs(prob.eta_scale - 1.0) < 1e-10
        phi, diag = solve(prob, tol=1e-10)
        assert diag.residuals[-1] < 1e-8
        assert np.abs(phi.data - phi_ex).max() < 1e-10

    def test_fd_interpolant_order_two(self):
        res = []
        for M in (16, 32, 64):
            prob, phi_ex = manufactured_problem(M)
            res.append(interpolant_residual(phi_ex, prob))
        orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
        assert all(o >= 1.9 for o in orders)


# ---------------------------------------------------------------------------
# conclusion verification
# ---------------------------------------------------------------------------


class TestConclusion:
    def test_constant_case_exact(self):
        prob = normalize_problem(constant_problem())
        phi, _ = solve(prob)
        rep = verify_conclusion(phi, prob)
        assert rep.c1_positive and rep.c2_positive and rep.schur_positive
        assert rep.eta_match < 1e-12

    def test_perturbed_case_positive_margins(self):
        prob = normalize_problem(fixture_problem("hermite-einstein", 64))
        phi, _ = solve(prob, tol=1e-10)
        rep = verify_conclusion(phi, prob)
        assert rep.c1_min_eig > 0 and rep.c2_min > 0 and rep.schur_min > 0
        assert rep.eta_match < 1e-8

    def test_rank_one_display_consistency(self):
        # for r = 1 the equation (dd^c phi + c_1)^2 = eta + c_2 must give
        # back c_1(G)^2 - c_2(G) = eta identically: the two displays agree
        M, r = 32, 1
        x1, x2 = grid_coordinates(M)
        c1 = np.broadcast_to(np.eye(2), (M, M, 2, 2)).copy() + ddc_potential(
            0.03 * np.sin(2 * np.pi * x1)
        )
        c2 = np.full((M, M), 0.1)
        eta = 1 + 0.05 * np.cos(2 * np.pi * x2)
        prob = normalize_problem(
            MAProblem(
                r,
                TorusField("(1,1)", c1),
                TorusField("(2,2)", c2),
                TorusField("(2,2)", eta),
            )
        )
        phi, _ = solve(prob, tol=1e-11)
        rep = verify_conclusion(phi, prob)
        assert rep.eta_match < 1e-9

    def test_exterior_forms_crosscheck(self):
        M, r = 32, 2
        x1, x2 = grid_coordinates(M)
        theta = np.zeros((M, M, r, r, 2, 2))
        bump = 0.1 * np.sin(2 * np.pi * x1)
        theta[:, :, 0, 0] = np.eye(2) + ddc_potential(0.03 * np.cos(2 * np.pi * x2))
        theta[:, :, 1, 1] = 1.5 * np.eye(2)
        for a, b in ((0, 1), (1, 0)):
            theta[:, :, a, b, 0, 1] = bump
            theta[:, :, a, b, 1, 0] = bump
        eta = TorusField("(2,2)", 1.0 + 0.05 * np.cos(2 * np.pi * x1))
        prob = normalize_problem(MAProblem.from_theta(r, theta, eta))
        phi, _ = solve(prob)
        assert chern_crosscheck(prob, phi.data, theta, stride=8) < 1e-12

    def test_conformal_fields_algebra(self):
        # c1^2 - c2 of the conformal change minus eta equals the equation
        # residual: zero at the solution by construction
        prob = normalize_problem(fixture_problem("hermite-einstein", 32))
        phi, _ = solve(prob, tol=1e-11)
        c1G, c2G = conformal_fields(prob, phi.data)
        schur = wedge_density(c1G, c1G) - c2G
        assert np.abs(schur - prob.eta.data).max() < 1e-9


# ---------------------------------------------------------------------------
# inexact Newton-Krylov step
# ---------------------------------------------------------------------------


def reference_P(problem, g, v):
    """The spectral inverse of J's constant-coefficient part, by complex FFT."""
    r, M = problem.rank, problem.grid
    k = 2 * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    k1, k2 = k[:, None], k[None, :]
    gbar = g.mean(axis=(0, 1))
    symbol = -(r * (r + 1) / 4) * (
        gbar[1, 1] * k1**2 - 2 * gbar[0, 1] * k1 * k2 + gbar[0, 0] * k2**2
    )
    inv = np.zeros_like(symbol)
    inv[symbol != 0] = 1.0 / symbol[symbol != 0]
    out = np.fft.ifft2(np.fft.fft2(v) * inv).real
    return out - out.mean()


def reference_J(problem, g, delta):
    """The Newton Jacobian of r(r+1) det(g) through spectral_hessian."""
    r = problem.rank
    H = spectral_hessian(delta - delta.mean())
    out = (r * (r + 1) / 4) * (
        g[..., 1, 1] * H[..., 0, 0] - 2 * g[..., 0, 1] * H[..., 0, 1] + g[..., 0, 0] * H[..., 1, 1]
    )
    return out - out.mean()


def unclosed_problem(M=32, r=2):
    """c_1 with d c_1 != 0, its (0,0) coefficient varying along x_2, and the
    solution phi* = 0.02 sin(2 pi x_1) cos(2 pi x_2); returns (problem, phi*).
    phi* is L2-orthogonal to div div cof(c_1), so the mass of det g is the
    same at phi* as at 0."""
    x1, x2 = grid_coordinates(M)
    c1 = r * np.broadcast_to(np.eye(2), (M, M, 2, 2)).copy()
    c1[..., 0, 0] += 0.2 * r * np.cos(2 * np.pi * x2)
    c1[..., 0, 1] = c1[..., 1, 0] = 0.1 * r * np.sin(2 * np.pi * x1)
    phi = 0.02 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    F = r * (r + 1) * det_field(c1 / r + ddc_potential(phi))
    kl = np.full((M, M), 0.3)
    c2 = (2 * r * kl + (r - 1) * wedge_density(c1, c1)) / (2 * r)
    prob = MAProblem(
        r,
        TorusField("(1,1)", c1),
        TorusField("(2,2)", c2),
        TorusField("(2,2)", F - kl),
    )
    return prob, phi


class TestNewtonKrylov:
    @pytest.mark.parametrize("n", [5, 30, 60])
    def test_gmres_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        A = 2 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
        b = rng.normal(size=n)
        x, steps = masolver._gmres(lambda v: A @ v, b, 1e-13)
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert steps <= n + masolver.GMRES_RESTART
        if n > masolver.GMRES_RESTART:
            assert steps > masolver.GMRES_RESTART  # the solve restarted

    def test_gmres_stall_raises(self):
        # the cyclic shift: GMRES from x = 0 makes no progress before step n
        n = masolver.GMRES_MAX_ITERATIONS + 50
        b = np.zeros(n)
        b[0] = 1.0
        with pytest.raises(ConvergenceError, match="stalled"):
            masolver._gmres(lambda v: np.roll(v, 1), b, 1e-10)

    @pytest.mark.parametrize("M", [15, 16, 32, 33])
    @pytest.mark.parametrize("unclosed", [False, True])
    def test_fused_operator_matches_complex_fft(self, M, unclosed):
        prob = unclosed_problem(M)[0] if unclosed else fixture_problem("hermite-einstein", M)
        prob = normalize_problem(prob)
        rng = np.random.default_rng(M)
        phi = 0.01 * rng.normal(size=(M, M))
        g = prob.c1.data / prob.rank + ddc_potential(phi - phi.mean())
        apply_JP, pre = masolver._preconditioned_jacobian(prob, g, masolver._hessian_symbols(M))
        for _ in range(3):
            v = rng.normal(size=(M, M))
            Pv = reference_P(prob, g, v)
            got_P = np.fft.irfft2(pre * np.fft.rfft2(v), s=(M, M))
            assert np.abs(got_P - Pv).max() <= 1e-12 * np.abs(Pv).max()
            ref = reference_J(prob, g, Pv)
            got = apply_JP(v.ravel()).reshape(M, M)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_unclosed_c1_converges(self):
        M = 64
        prob, phi_ex = unclosed_problem(M)
        prob = normalize_problem(prob)
        assert abs(prob.eta_scale - 1.0) < 1e-12
        # the Jacobian at phi = 0 is not self-adjoint
        g = prob.c1.data / prob.rank
        x1, x2 = grid_coordinates(M)
        u, v = np.cos(2 * np.pi * x2), np.sin(2 * np.pi * (x1 + x2))
        Ju_v = (reference_J(prob, g, u) * v).sum()
        u_Jv = (u * reference_J(prob, g, v)).sum()
        assert abs(Ju_v - u_Jv) > 0.1 * abs(Ju_v)
        phi, diag = solve(prob, tol=1e-10)
        assert diag.converged and diag.residuals[-1] < 1e-10
        assert len(diag.gmres) == diag.iterations and min(diag.gmres) >= 1
        assert np.abs(phi.data - phi_ex).max() < 1e-10

    @pytest.mark.parametrize(
        "fixture,M,rank",
        [
            pytest.param("constant", 256, 2, id="constant-256"),
            pytest.param("perturbed", 256, 2, id="perturbed-256"),
            pytest.param("hermite-einstein", 224, 2, id="hermite-einstein-224"),
            pytest.param("hermite-einstein", 256, 2, id="hermite-einstein-256"),
            pytest.param("hermite-einstein", 511, 2, id="hermite-einstein-511"),
            pytest.param("hermite-einstein", 512, 2, id="hermite-einstein-512"),
            pytest.param("hermite-einstein", 512, 3, id="hermite-einstein-512-rank3"),
            pytest.param("hermite-einstein", 512, 64, id="hermite-einstein-512-rank64"),
        ],
    )
    def test_masolve_fine_grids(self, tmp_path, fixture, M, rank):
        """Every fixture converges at the default tol in at most 6 undamped
        Newton steps, up to M = 512 and rank 64."""
        cfg = tmp_path / "ma.json"
        cfg.write_text(json.dumps({"fixture": fixture, "M": M, "rank": rank}))
        assert cli.main(["masolve", "--input", str(cfg), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "masolve_report.json").read_text())
        assert rep["pass"] and rep["finalResidual"] < 1e-10
        assert len(rep["gmresIterations"]) == rep["iterations"] <= 6
        assert rep["damping"] == [1.0] * rep["iterations"]

    @pytest.mark.parametrize("tol", [1e-15, 1e-16, 1e-17])
    def test_tol_below_roundoff_floor_named(self, tol):
        prob = normalize_problem(fixture_problem("hermite-einstein", 128))
        with pytest.raises(ConvergenceError, match="below the roundoff floor") as exc:
            solve(prob, tol=tol)
        assert f"tol {tol:.1e}" in str(exc.value)
        assert "residual reached" in str(exc.value)

    @pytest.mark.parametrize("M", [16, 512])
    def test_tol_just_below_the_floor_named(self, M):
        """A stall names tol as below the floor estimate exactly when it is;
        either way the message names the residual reached and the floor."""
        prob = normalize_problem(fixture_problem("hermite-einstein", M))
        floor = masolver._roundoff_floor(prob)
        for tol, below in ((0.99 * floor, True), (1.01 * floor, False)):
            with pytest.raises(ConvergenceError) as exc:
                solve(prob, tol=tol, max_iter=1)
            message = str(exc.value)
            assert ("below the roundoff floor" in message) == below
            assert ("no convergence after 1 iterations" in message) != below
            assert "residual reached" in message
            assert f"roundoff floor {floor:.1e})" in message

    def test_roundoff_floor_does_not_grow_with_M(self):
        floors = [masolver._roundoff_floor(normalize_problem(fixture_problem("hermite-einstein", M)))
                  for M in (16, 128, 512)]
        assert max(floors) <= 1.01 * min(floors) and max(floors) < 1e-13

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, parachern.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        src = str(Path(masolver.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": ""},
        )
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exterior-forms crosscheck over a batch of nodes
# ---------------------------------------------------------------------------


def pointwise_forms_densities(phi, theta, stride):
    """The per-node reference: at each node of range(0, M, stride) squared,
    one scalar chern_forms call on Theta_H + (del delbar phi) Id.  Returns
    {(ix, iy): (c1 coefficient matrix, c2 density)}."""
    M, r = theta.shape[0], theta.shape[2]
    d = ddc_potential(phi)
    out = {}
    for ix in range(0, M, stride):
        for iy in range(0, M, stride):
            entries = []
            for a in range(r):
                row = []
                for b in range(r):
                    f = FormValue.zero(2)
                    for p in range(2):
                        for q in range(2):
                            coeff = theta[ix, iy, a, b, p, q]
                            if a == b:
                                coeff = coeff + d[ix, iy, p, q]
                            f = f + FormValue.monomial(2, (p,), (q,), complex(coeff))
                    row.append(f)
                entries.append(row)
            c = chern_forms(CurvatureMatrix(entries))
            c1_mat = np.array(
                [[c[1].coefficient((p,), (q,)) for q in range(2)] for p in range(2)],
                dtype=complex,
            )
            out[ix, iy] = c1_mat, -complex(c[2].coefficient((0, 1), (0, 1))).real
    return out


def pointwise_chern_crosscheck(problem, phi, theta, stride=8):
    """chern_crosscheck node by node, as it was computed before the nodes
    were batched; the reference for the batched version.  Returns the max
    deviation and the per-node densities of pointwise_forms_densities."""
    c1G, c2G = conformal_fields(problem, phi)
    densities = pointwise_forms_densities(phi, theta, stride)
    dev = 0.0
    for (ix, iy), (c1_mat, c2_density) in densities.items():
        dev = max(dev, float(np.abs(c1_mat - c1G[ix, iy]).max()))
        dev = max(dev, abs(c2_density - c2G[ix, iy]))
    return dev, densities


def crosscheck_case(M, r, closed):
    """(problem, phi, theta): a seeded smooth curvature field of H and a
    smooth phi.  closed: diagonal blocks b Id + dd^c psi and symmetric
    off-diagonal blocks theta_ab = theta_ba.  Otherwise the diagonal blocks
    are symmetric but not closed, and each off-diagonal block is drawn on
    its own with theta_ab[p, q] != theta_ab[q, p]."""
    rng = np.random.default_rng([M, r, closed])
    x1, x2 = grid_coordinates(M)

    def wave():
        k1, k2 = rng.integers(-2, 3, size=2)
        a, b = rng.normal(size=2)
        arg = 2 * np.pi * (k1 * x1 + k2 * x2)
        return a * np.cos(arg) + b * np.sin(arg)

    theta = np.zeros((M, M, r, r, 2, 2))
    for a in range(r):
        theta[:, :, a, a] = (1 + 0.2 * a) * np.eye(2)
        if closed:
            theta[:, :, a, a] += 0.002 * ddc_potential(wave())
        else:
            theta[:, :, a, a, 0, 0] += 0.05 * wave()
            theta[:, :, a, a, 1, 1] += 0.05 * wave()
            theta[:, :, a, a, 0, 1] = theta[:, :, a, a, 1, 0] = 0.05 * wave()
        for b in range(r):
            if b == a or (closed and b < a):
                continue
            for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
                theta[:, :, a, b, p, q] = 0.05 * wave()
            if closed:
                theta[:, :, a, b, 1, 0] = theta[:, :, a, b, 0, 1]
                theta[:, :, b, a] = theta[:, :, a, b]
    phi = 0.002 * (np.sin(2 * np.pi * x1) + np.cos(2 * np.pi * (x1 + 2 * x2)))
    eta = TorusField("(2,2)", np.ones((M, M)))
    return MAProblem.from_theta(r, theta, eta), phi, theta


class TestBatchedCrosscheck:
    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
    @pytest.mark.parametrize("stride", [1, 3, 5, 8])
    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize("r", [2, 3])
    def test_batch_matches_pointwise_reference(self, r, M, stride, closed):
        prob, phi, theta = crosscheck_case(M, r, closed)
        if not closed:
            assert np.abs(theta[..., 0, 1] - theta[..., 1, 0]).max() > 0
            assert np.abs(theta[:, :, 0, 1] - theta[:, :, 1, 0]).max() > 0
        nodes = (slice(None, None, stride),) * 2
        c1, c2 = masolver._forms_chern_densities(theta[nodes], ddc_potential(phi)[nodes])
        reference_dev, reference = pointwise_chern_crosscheck(prob, phi, theta, stride)
        assert len(reference) == c2.size == len(range(0, M, stride)) ** 2
        for (ix, iy), (c1_ref, c2_ref) in reference.items():
            scale = max(np.abs(c1_ref).max(), abs(c2_ref))
            i, j = ix // stride, iy // stride
            assert np.abs(c1[i, j] - c1_ref).max() <= 1e-15 * scale
            assert abs(c2[i, j] - c2_ref) <= 1e-15 * scale
        batched = chern_crosscheck(prob, phi, theta, stride=stride)
        assert type(batched) is float
        assert batched <= 1e-12 and reference_dev <= 1e-12

    @pytest.mark.parametrize("block", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("stride", [1, 3, 5, 8])
    def test_every_sampled_node_is_checked(self, stride, block):
        # a diagonal bump moves c1 by 2 delta; an off-diagonal bump
        # eps Id of theta_01 moves only c2, by -eps tr(theta_10) = -2 delta
        M, r, delta = 32, 2, 1e-6
        prob, phi, theta = crosscheck_case(M, r, closed=False)
        base = chern_crosscheck(prob, phi, theta, stride=stride)
        last = (M - 1) // stride * stride
        nodes = [((last, last), True)]
        if stride > 1:
            nodes.append(((last + 1, last - 1), False))
        for node, sampled in nodes:
            bumped = theta.copy()
            if block == "diagonal":
                for a in range(r):
                    bumped[node + (a, a)] += delta * np.eye(2)
            else:
                bumped[node + (0, 1)] += 2 * delta / np.trace(theta[node + (1, 0)]) * np.eye(2)
            dev = chern_crosscheck(prob, phi, bumped, stride=stride)
            if sampled:
                assert dev >= delta
            else:
                assert dev == base

    def test_one_spectral_hessian_per_crosscheck(self, monkeypatch):
        """The forms route and the closed formulas share one dd^c phi."""
        prob, phi, theta = crosscheck_case(16, 2, closed=True)
        expected = chern_crosscheck(prob, phi, theta, stride=3)
        calls = []

        def counted(f):
            calls.append(f.shape)
            return spectral_hessian(f)

        monkeypatch.setattr(masolver, "spectral_hessian", counted)
        assert chern_crosscheck(prob, phi, theta, stride=3) == expected
        assert calls == [phi.shape]

    @pytest.mark.parametrize("stride", [0, -1, -3, 2.0, 2.5, "8", None])
    def test_bad_stride_rejected(self, stride):
        prob, phi, theta = crosscheck_case(16, 2, closed=True)
        shifted = theta.copy()
        for a in range(2):
            shifted[:, :, a, a] += 0.5 * np.eye(2)
        assert chern_crosscheck(prob, phi, shifted, stride=3) >= 0.5
        with pytest.raises(ValueError, match="stride"):
            chern_crosscheck(prob, phi, shifted, stride=stride)

    @pytest.mark.parametrize(
        "shape",
        [(8, 8, 2, 2, 2, 2), (16, 16, 3, 3, 2, 2), (16, 16, 2, 2, 2), (16, 16, 2, 2, 3, 3)],
    )
    def test_bad_theta_shape_rejected(self, shape):
        prob, phi, _ = crosscheck_case(16, 2, closed=True)
        with pytest.raises(ValueError, match="theta"):
            chern_crosscheck(prob, phi, np.ones(shape))
