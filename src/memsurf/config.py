"""Run configuration: one YAML file drives every CLI command.

The file is a nested key/value document; unknown keys are rejected so a
config cannot silently misspell a parameter.  Parsing normalizes the
document, validates every parameter against its module's constructor, and
the canonical re-serialization round-trips.  A short hash of the canonical
form stamps every output file for provenance.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import yaml

from .constitutive import IsotropicModel
from .errors import ConfigError, InvalidModelError
from .geometry import make_surface
from .maps import make_initial_map
from .mesh import build_mesh
from .minimizer import MinimizeOptions

__all__ = ["RunConfig", "parse_config", "parse_config_file", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "surface": {"kind": "plane"},
    "model": IsotropicModel().to_dict(),
    "domain": {"kind": "unit_square", "resolution": 0.125},
    "initial_map": {"kind": "identity"},
    "minimize": {
        "max_iter": 5000,
        "grad_tol": None,
        "armijo_c": 1e-4,
        "backtrack_ratio": 0.5,
        "initial_step": 1.0,
        "j_floor": 1e-8,
    },
    "verify": {
        "rotation_samples": 1000,
        "convexity_samples": 100_000,
        "stress_growth_samples": 100_000,
        "perturbation_samples": 10_000,
        "perturbation_delta": 0.01,
        "growth_samples": 100_000,
    },
    "diagnostics": {
        "injectivity": True,
        "degree_points": 100,
        "residual_fields": 12,
    },
    "output_dir": "runs/out",
    "seed": 42,
}

_SURFACE_KEYS = {
    "plane": {"normal_dir", "offset", "orientation_sign"},
    "sphere": {"radius", "orientation_sign"},
    "torus": {"major_radius", "minor_radius", "orientation_sign"},
    "ellipsoid": {"semi_axes", "orientation_sign"},
    "graph": {"coeffs", "orientation_sign", "extent"},
}

_DOMAIN_KEYS = {
    "unit_square": {"resolution"},
    "disk": {"resolution", "radius"},
    "annulus": {"resolution", "inner_radius", "outer_radius"},
}

_MAP_KEYS = {
    "identity": set(),
    "affine": {"matrix"},
    "stereographic_cap": {"latitude"},
    "torus_band": {"theta_range", "psi_range"},
}


def _merge_defaults(data, defaults, path=""):
    """Fill missing keys from defaults; reject unknown keys in known blocks."""
    out = {}
    for key, dval in defaults.items():
        if key in data:
            val = data[key]
            if isinstance(dval, dict) and isinstance(val, dict) and key not in (
                "surface",
                "domain",
                "initial_map",
            ):
                out[key] = _merge_defaults(val, dval, f"{path}{key}.")
            else:
                out[key] = val
        else:
            out[key] = dval
    for key in data:
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {path}{key!r}")
    return out


def _split_kind(block, table, label):
    """Kind and parameters of a ``{kind: ...}`` block, checked against ``table``."""
    params = dict(block)
    kind = params.pop("kind", None)
    if kind not in table:
        raise ConfigError(f"{label}.kind must be one of {sorted(table)}")
    for key in params:
        if key not in table[kind]:
            raise ConfigError(f"unknown {label} parameter {key!r} for kind {kind!r}")
    return kind, params


def _is_int(val):
    """True for a YAML integer; booleans are not numbers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


@dataclass
class RunConfig:
    """Validated run configuration with constructors for every module."""

    data: dict

    @property
    def seed(self):
        return int(self.data["seed"])

    @property
    def output_dir(self):
        return str(self.data["output_dir"])

    def surface(self):
        kind, params = _split_kind(self.data["surface"], _SURFACE_KEYS, "surface")
        try:
            return make_surface(kind, **params)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"surface: {exc}") from exc

    def model(self):
        try:
            return IsotropicModel.from_dict(self.data["model"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: malformed block ({exc})") from exc
        except InvalidModelError as exc:
            raise ConfigError(f"model: {exc}") from exc

    def _domain(self):
        kind, params = _split_kind(self.data["domain"], _DOMAIN_KEYS, "domain")
        resolution = params.pop("resolution", None)
        if not _is_number(resolution) or resolution <= 0:
            raise ConfigError("domain.resolution must be a positive number")
        return kind, float(resolution), params

    def mesh(self):
        kind, resolution, params = self._domain()
        return build_mesh(kind, resolution, **params)

    def initial_map(self, surface):
        kind, params = _split_kind(self.data["initial_map"], _MAP_KEYS, "initial_map")
        return make_initial_map(surface, kind, **params)

    def minimize_options(self):
        block = self.data["minimize"]
        for key, val in block.items():
            if val is not None and not _is_number(val):
                raise ConfigError(
                    f"minimize.{key} must be a number, got {val!r} "
                    "(write an exponent with a decimal point: 5.0e-2, not 5e-2)"
                )
        if isinstance(block["max_iter"], float) and not block["max_iter"].is_integer():
            raise ConfigError("minimize.max_iter must be an integer")
        try:
            return MinimizeOptions(
                max_iter=int(block["max_iter"]),
                grad_tol=None if block["grad_tol"] is None else float(block["grad_tol"]),
                armijo_c=float(block["armijo_c"]),
                backtrack_ratio=float(block["backtrack_ratio"]),
                initial_step=float(block["initial_step"]),
                j_floor=float(block["j_floor"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"minimize: {exc}") from exc

    def verify_params(self):
        return dict(self.data["verify"])

    def diagnostics_params(self):
        return dict(self.data["diagnostics"])

    def to_dict(self):
        return self.data

    def serialize(self):
        return yaml.safe_dump(self.data, sort_keys=True, default_flow_style=False)

    @property
    def config_hash(self):
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    def validate(self):
        """Construct every parameterized object once, before any computation."""
        surface = self.surface()
        self.model()
        self.minimize_options()
        self._domain()
        self.initial_map(surface)
        verify = self.data["verify"]
        for key, val in verify.items():
            if key == "perturbation_delta":
                if not (_is_number(val) and 0 < val < 1):
                    raise ConfigError("verify.perturbation_delta must lie in (0, 1)")
            elif not (_is_int(val) and val > 0):
                raise ConfigError(f"verify.{key} must be a positive integer")
        diag = self.data["diagnostics"]
        if not isinstance(diag["injectivity"], bool):
            raise ConfigError("diagnostics.injectivity must be boolean")
        for key in ("degree_points", "residual_fields"):
            if not (_is_int(diag[key]) and diag[key] >= 0):
                raise ConfigError(f"diagnostics.{key} must be a nonnegative integer")
        if not _is_int(self.data["seed"]):
            raise ConfigError("seed must be an integer")
        return self


def parse_config(text):
    """Parse and validate a YAML configuration document."""
    try:
        raw = yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        raise ConfigError(f"{where}{getattr(exc, 'problem', exc)}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a mapping at the top level")
    merged = _merge_defaults(raw, DEFAULT_CONFIG)
    return RunConfig(merged).validate()


def parse_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
