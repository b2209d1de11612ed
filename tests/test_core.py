import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import zero_state
from epe.core import (
    ConfigError,
    H1Violated,
    InvalidGrid,
    NonPositiveParameter,
    RunConfig,
    build_config,
    make_time_grid,
    parse_config_file,
    validate_params,
)
from epe.schemes import Sources, run

GOOD = dict(epsilon=1, sigma=2, L=1, mu=1, lambda_c=2, G=1, alpha=1, c0=1, kappa=2)


class TestValidateParams:
    def test_headline_values_accepted(self):
        p = validate_params(**GOOD)
        assert p.sigma == 2.0 and p.kappa == 2.0
        assert p.L < math.sqrt(p.sigma * p.kappa)

    def test_zero_coupling_needs_override(self):
        with pytest.raises(H1Violated):
            validate_params(**{**GOOD, "L": 0.0})
        p = validate_params(allow_decoupled=True, **{**GOOD, "L": 0.0})
        assert p.L == 0.0

    def test_coupling_bound_rejected(self):
        with pytest.raises(H1Violated) as err:
            validate_params(**{**GOOD, "L": 2, "sigma": 1, "kappa": 1})
        assert err.value.L == 2.0

    def test_bound_is_strict(self):
        with pytest.raises(H1Violated):
            validate_params(**{**GOOD, "L": 2.0})  # L^2 = sigma*kappa exactly

    @pytest.mark.parametrize("name", sorted(GOOD))
    def test_nonpositive_rejected(self, name):
        with pytest.raises((NonPositiveParameter, H1Violated)):
            validate_params(**{**GOOD, name: -1.0})

    def test_override_never_admits_large_L(self):
        with pytest.raises(H1Violated):
            validate_params(allow_decoupled=True, **{**GOOD, "L": 5.0})

    def test_quadratic_form_nonnegative(self):
        # discrete shadow of the coupled coercivity bound
        p = validate_params(**GOOD)
        rng = np.random.default_rng(0)
        e = rng.standard_normal((1000, 3))
        g = rng.standard_normal((1000, 3))
        q = (
            p.sigma * np.einsum("ij,ij->i", e, e)
            - 2.0 * p.L * np.einsum("ij,ij->i", e, g)
            + p.kappa * np.einsum("ij,ij->i", g, g)
        )
        assert np.all(q >= 0.0)


class TestTimeGrid:
    def test_headline_grid(self):
        g = make_time_grid(0.1, 40)
        assert g.tau == 0.0025
        assert (g.T, g.N) == (0.1, 40)

    def test_single_step(self):
        g = make_time_grid(1.0, 1)
        assert g.tau == 1.0 and g.N == 1

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidGrid):
            make_time_grid(0.1, 0)
        with pytest.raises(InvalidGrid):
            make_time_grid(-1.0, 4)

    def test_uniform_spacing_to_rounding(self, config, disc2):
        # the time levels a run steps through: t_n = t_{n-1} + tau, ending at T
        g = make_time_grid(0.3, 7)
        res = run(
            replace(config, mesh_n=2, grid=g), Sources(), None, disc=disc2,
            start_state=zero_state(disc2.layouts),
        )
        times = np.array([s.t for s in res.steps])
        diffs = np.diff(times)
        # two units of rounding at the time magnitude
        assert np.all(np.abs(diffs - g.tau) <= 2 * np.spacing(np.maximum(times[1:], g.tau)))
        assert np.all(diffs > 0)
        assert times[0] == 0.0 and times[-1] == pytest.approx(g.T, rel=1e-14)


class TestRunConfig:
    def test_defaults_match_headline_study(self, config):
        assert config.grid.T == 0.1 and config.grid.tau == 0.0025
        assert config.scheme == "splitting"
        assert config.params.lambda_c == 2.0

    def test_invariants(self, config):
        with pytest.raises(ConfigError):
            RunConfig(params=config.params, grid=config.grid, mesh_n=0)
        with pytest.raises(ConfigError):
            RunConfig(params=config.params, grid=config.grid, mesh_n=2, spd_tol=2.0)
        for quad_error in (3, 7):  # the rules of quadrature.py stop at degree 6
            with pytest.raises(ConfigError):
                RunConfig(params=config.params, grid=config.grid, mesh_n=2, quad_error=quad_error)
        with pytest.raises(ConfigError):
            RunConfig(params=config.params, grid=config.grid, mesh_n=2, scheme="magic")


class TestConfigFile:
    def test_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# headline-like setup\n"
            "kappa = 4.0\n"
            "tau = 0.05   # coarse\n"
            "mesh_n = 3\n"
            "scheme = monolithic\n"
        )
        values = parse_config_file(cfg)
        assert values == {"kappa": 4.0, "tau": 0.05, "mesh_n": 3, "scheme": "monolithic"}
        built = build_config(values)
        assert built.params.kappa == 4.0 and built.mesh_n == 3
        assert built.grid.N == 2

    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("kappa = 4.0\n")
        built = build_config(parse_config_file(cfg), {"kappa": 8.0})
        assert built.params.kappa == 8.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("kappa 4.0\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_tau_must_divide_T(self):
        with pytest.raises(InvalidGrid):
            build_config(None, {"T": 0.1, "tau": 0.03})
