"""Physical parameters, time grid, run configuration, and their validation.

All model constants live in dimensionless units. The coupling constant L is
required to satisfy the strict inequality L^2 < sigma * kappa, which is what
makes the coupled electric/pressure quadratic form nonnegative and the
backward-Euler schemes stable. The only admissible override is L = 0
(fully decoupled smoke tests).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from epe.fem.quadrature import MAX_DEGREE


class ParameterError(ValueError):
    """Invalid physical parameter set."""


class NonPositiveParameter(ParameterError):
    def __init__(self, name: str, value: float):
        super().__init__(f"parameter {name!r} must be strictly positive, got {value!r}")
        self.name = name
        self.value = value


class H1Violated(ParameterError):
    """Coupling bound 0 < L < sqrt(sigma*kappa) does not hold."""

    def __init__(self, L: float, sigma: float, kappa: float):
        bound = math.sqrt(sigma * kappa) if sigma > 0 and kappa > 0 else float("nan")
        super().__init__(
            f"coupling constant violates 0 < L < sqrt(sigma*kappa): "
            f"L={L!r} with sqrt(sigma*kappa)={bound!r} (sigma={sigma!r}, kappa={kappa!r})"
        )
        self.L = L
        self.sigma = sigma
        self.kappa = kappa


class InvalidGrid(ValueError):
    """Nonpositive final time or step count."""


class ConfigError(ValueError):
    """Malformed configuration file or inconsistent option values."""


PARAM_NAMES = ("epsilon", "mu", "sigma", "L", "lambda_c", "G", "alpha", "c0", "kappa")

#: Parameter values of the headline numerical study; also the CLI defaults.
DEFAULT_PARAM_VALUES = {
    "epsilon": 1.0,
    "mu": 1.0,
    "sigma": 2.0,
    "L": 1.0,
    "lambda_c": 2.0,
    "G": 1.0,
    "alpha": 1.0,
    "c0": 1.0,
    "kappa": 2.0,
}


@dataclass(frozen=True)
class PhysicalParams:
    """The nine positive material constants of the coupled model.

    epsilon: electric permittivity
    mu: magnetic permeability
    sigma: electric conductivity
    L: electrokinetic coupling constant
    lambda_c: bulk elastic constant
    G: shear modulus
    alpha: Biot-Willis coefficient
    c0: storage coefficient
    kappa: hydraulic conductivity
    """

    epsilon: float
    mu: float
    sigma: float
    L: float
    lambda_c: float
    G: float
    alpha: float
    c0: float
    kappa: float


def validate_params(allow_decoupled: bool = False, **raw: float) -> PhysicalParams:
    """Validate the nine named constants and return an immutable parameter set.

    Every constant must be strictly positive and L must satisfy the strict
    bound L < sqrt(sigma*kappa). With ``allow_decoupled`` the single value
    L = 0 is also accepted; L^2 >= sigma*kappa is never accepted.
    """
    missing = [n for n in PARAM_NAMES if n not in raw]
    if missing:
        raise ParameterError(f"missing parameters: {missing}")
    unknown = [n for n in raw if n not in PARAM_NAMES]
    if unknown:
        raise ParameterError(f"unknown parameters: {unknown}")

    vals = {n: float(raw[n]) for n in PARAM_NAMES}
    for name, value in vals.items():
        if not math.isfinite(value):
            raise NonPositiveParameter(name, value)
        if name == "L" and value == 0.0:
            continue  # strictness of the lower L bound is handled below
        if value <= 0.0:
            raise NonPositiveParameter(name, value)
    L, sigma, kappa = vals["L"], vals["sigma"], vals["kappa"]
    if L == 0.0 and not allow_decoupled:
        raise H1Violated(L, sigma, kappa)
    if L * L >= sigma * kappa:
        raise H1Violated(L, sigma, kappa)
    return PhysicalParams(**vals)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N backward-Euler steps."""

    T: float
    N: int
    tau: float


def make_time_grid(T: float, N: int) -> TimeGrid:
    """Build the grid t_n = n*tau, tau = T/N, with t_0 = 0 and t_N = T."""
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidGrid(f"step count must be an integer >= 1, got {N!r}")
    T = float(T)
    if not (math.isfinite(T) and T > 0.0):
        raise InvalidGrid(f"final time must be positive, got {T!r}")
    return TimeGrid(T=T, N=int(N), tau=T / N)


SCHEMES = ("splitting", "monolithic")


@dataclass(frozen=True)
class RunConfig:
    """Everything a single simulation run needs besides sources and data."""

    params: PhysicalParams
    grid: TimeGrid
    mesh_n: int
    scheme: str = "splitting"
    spd_tol: float = 1e-10
    saddle_tol: float = 1e-9
    quad_error: int = 5
    out: str = "report"

    def __post_init__(self):
        if self.mesh_n < 1:
            raise ConfigError(f"mesh_n must be >= 1, got {self.mesh_n}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        for name in ("spd_tol", "saddle_tol"):
            tol = getattr(self, name)
            if not (0.0 < tol < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {tol!r}")
        if not (4 <= self.quad_error <= MAX_DEGREE):
            raise ConfigError(f"quad_error must lie in 4..{MAX_DEGREE}, got {self.quad_error}")


#: Default scalar option values; a missing config key falls back to these.
#: The RunConfig fields with a default take it from the dataclass.
DEFAULT_OPTIONS = {
    "T": 0.1,
    "tau": 0.0025,
    "mesh_n": 4,
    "allow_decoupled": False,
    **{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING},
}

_INT_KEYS = {"mesh_n", "quad_error"}
_FLOAT_KEYS = set(PARAM_NAMES) | {"T", "tau", "spd_tol", "saddle_tol"}
_BOOL_KEYS = {"allow_decoupled"}
_STR_KEYS = {"scheme", "out"}
CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS


def parse_config_file(path: str | Path) -> dict:
    """Parse a line-oriented ``key = value`` file with ``#`` comments.

    Returns a dict of typed values; unknown keys raise ConfigError.
    """
    values: dict = {}
    text = Path(path).read_text()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {rawline!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, where=f"{path}:{lineno}")
    return values


def _coerce(key: str, value: str, where: str = "") -> object:
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key} = {value!r}") from exc


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config-file values, and override flags into a RunConfig.

    Precedence, lowest to highest: built-in defaults (the headline study
    setup), config-file values, explicit overrides (CLI flags).
    """
    values: dict = dict(DEFAULT_PARAM_VALUES)
    values.update(DEFAULT_OPTIONS)
    for src in (file_values, overrides):
        if src:
            for key, val in src.items():
                if val is None:
                    continue
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"unknown configuration key {key!r}")
                values[key] = val

    params = validate_params(
        allow_decoupled=bool(values["allow_decoupled"]),
        **{name: values[name] for name in PARAM_NAMES},
    )
    T, tau = float(values["T"]), float(values["tau"])
    if tau <= 0.0:
        raise InvalidGrid(f"tau must be positive, got {tau!r}")
    N = max(1, round(T / tau))
    if abs(N * tau - T) > 1e-9 * max(1.0, T):
        raise InvalidGrid(f"tau={tau!r} does not divide T={T!r} into whole steps")
    grid = make_time_grid(T, N)
    return RunConfig(
        params=params,
        grid=grid,
        mesh_n=int(values["mesh_n"]),
        scheme=str(values["scheme"]),
        spd_tol=float(values["spd_tol"]),
        saddle_tol=float(values["saddle_tol"]),
        quad_error=int(values["quad_error"]),
        out=str(values["out"]),
    )

