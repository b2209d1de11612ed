import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import zero_state
from epe.core import (
    CONFIG_KEYS,
    DEFAULT_OPTIONS,
    ConfigError,
    H1Violated,
    InvalidGrid,
    NonPositiveParameter,
    RunConfig,
    build_config,
    grid_for_step,
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
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonPositiveParameter, match=f"{name}' must be finite, got {value}"):
                validate_params(**{**GOOD, name: value})

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
        g = grid_for_step(0.1, 0.1 / 40)
        assert g.tau == 0.0025
        assert (g.T, g.N) == (0.1, 40)

    def test_single_step(self):
        g = grid_for_step(1.0, 1.0)
        assert (g.T, g.N, g.tau) == (1.0, 1, 1.0)

    def test_zero_steps_rejected(self):
        # T = 0 is zero steps of any tau; a tau below the divisibility slack passes that check,
        # so the final-time check is what refuses it
        with pytest.raises(InvalidGrid, match="final time must be positive"):
            grid_for_step(0.0, 1e-10)

    def test_negative_final_time_rejected(self):
        with pytest.raises(InvalidGrid, match="does not divide"):
            grid_for_step(-1.0, 0.25)
        # |T| below the divisibility slack passes that check and reaches the final-time check
        with pytest.raises(InvalidGrid, match="final time must be positive"):
            grid_for_step(-1e-10, 1e-10)

    def test_uniform_spacing_to_rounding(self, config, disc2):
        # the time levels a run steps through: t_n = t_{n-1} + tau, ending at T
        g = grid_for_step(0.3, 0.3 / 7)
        assert (g.T, g.N, g.tau) == (0.3, 7, 0.3 / 7)
        levels = []
        run(
            replace(config, mesh_n=2, grid=g), Sources(), None, disc=disc2,
            start_state=zero_state(disc2.layouts), observers=[lambda n, t, *_: levels.append(t)],
        )
        times = np.array(levels)
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

    def test_every_key_reads_from_a_file_as_from_an_override(self, tmp_path):
        """Each key, of each value type, parses to its default's type and builds the same RunConfig."""
        values = {
            "epsilon": 1.5, "mu": 0.5, "sigma": 3.0, "L": 0.25, "lambda_c": 4.0, "G": 2.5,
            "alpha": 0.75, "c0": 0.125, "kappa": 1.5, "T": 0.2, "tau": 0.05, "mesh_n": 3,
            "allow_decoupled": True, "scheme": "monolithic", "spd_tol": 1e-8, "saddle_tol": 1e-7,
            "quad_error": 6, "out": "elsewhere",
        }
        assert set(values) == CONFIG_KEYS
        assert all(values[key] != DEFAULT_OPTIONS[key] for key in values)
        assert {type(v) for v in values.values()} == {int, float, bool, str}
        cfg = tmp_path / "every_key.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        parsed = parse_config_file(cfg)
        assert parsed == values and all(type(parsed[k]) is type(v) for k, v in values.items())
        built = build_config(parsed)
        assert built == build_config(None, values)
        assert built.grid.N == 4 and built.scheme == "monolithic" and built.params.c0 == 0.125

    def test_an_int_key_refuses_a_non_integral_value(self):
        """An override is checked as a file value is: mesh_n = 4.7 is refused, not run at n = 4."""
        for bad in (4.7, "4.7", "4.0", True, math.inf, math.nan):
            with pytest.raises(ConfigError):
                build_config(None, {"mesh_n": bad})
        built = build_config(None, {"mesh_n": 5.0})
        assert built.mesh_n == 5 and type(built.mesh_n) is int

    @pytest.mark.parametrize(
        "key,text",
        [("allow_decoupled", "false"), ("allow_decoupled", "On"), ("mesh_n", "3"), ("kappa", "4e0"),
         ("scheme", "monolithic"), ("quad_error", "6"), ("allow_decoupled", "maybe"), ("G", "x")],
    )
    def test_a_string_override_parses_as_a_file_value(self, tmp_path, key, text):
        """A string override gives the RunConfig, or the ConfigError, that the same file line gives."""
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {text}\n")

        def outcome(build):
            try:
                return build()
            except ConfigError as exc:
                return type(exc)

        from_file = outcome(lambda: build_config(parse_config_file(cfg)))
        assert outcome(lambda: build_config(None, {key: text})) == from_file

    def test_a_false_string_leaves_allow_decoupled_off(self):
        with pytest.raises(H1Violated):
            build_config(None, {"L": 0.0, "allow_decoupled": "false"})
        assert build_config(None, {"L": 0.0, "allow_decoupled": "true"}).params.L == 0.0

    def test_tau_must_divide_T(self):
        with pytest.raises(InvalidGrid):
            build_config(None, {"T": 0.1, "tau": 0.03})
        # a step count that is not a finite number is refused, not an OverflowError
        for T, tau in ((math.inf, 0.1), (math.nan, 0.1), (0.1, math.nan), (1e300, 1e-300)):
            with pytest.raises(InvalidGrid):
                build_config(None, {"T": T, "tau": tau})
