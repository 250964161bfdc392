"""Run configuration: one YAML file drives every CLI command.

The file is a nested key/value document; unknown keys are rejected so a
config cannot silently misspell a parameter, and a boolean or a string is
not read as a number.  Parsing normalizes the document, validates every
parameter against its module's constructor (``minimize`` takes only
``grad_tol``), and the canonical re-serialization round-trips.  A short hash
of the canonical form stamps every output file for provenance.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import io
import math
from dataclasses import dataclass

import yaml

from .constitutive import IsotropicModel
from .errors import ConfigError, InvalidModelError
from .geometry import SURFACE_KINDS, make_surface
from .maps import MAP_KINDS, make_initial_map
from .mesh import DOMAIN_KINDS, build_mesh
from .minimizer import check_grad_tol
from .verification import PERTURBATION_DELTA, max_perturbation_delta

__all__ = ["RunConfig", "parse_config", "parse_config_file", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "surface": {"kind": "plane"},
    "model": IsotropicModel().to_dict(),
    "domain": {"kind": "unit_square", "resolution": 0.125},
    "initial_map": {"kind": "identity"},
    "minimize": {"grad_tol": None},
    "diagnostics": {
        "injectivity": True,
        "degree_points": 100,
        "residual_fields": 12,
    },
    "output_dir": "runs/out",
    "seed": 42,
}

# The {kind: ...} blocks and the kind table of each block's factory.
_KIND_TABLES = {
    "surface": SURFACE_KINDS,
    "domain": DOMAIN_KINDS,
    "initial_map": MAP_KINDS,
}


def _merge_defaults(data, defaults, path=""):
    """Fill missing keys from defaults; reject unknown keys in known blocks.

    A value whose default is a float must be a number, stored as a float
    (``b: 2`` and ``b: 2.0`` hash alike; an integer too large for a float is
    left for the model to reject).  The entries of ``model.ogden_terms`` must
    be mappings with exactly the default's keys.
    """
    out = {}
    for key, dval in defaults.items():
        val, where = data.get(key, dval), f"{path}{key}"
        if isinstance(dval, dict) and isinstance(val, dict) and key not in _KIND_TABLES:
            val = _merge_defaults(val, dval, f"{where}.")
        elif isinstance(dval, float):
            if not _is_number(val):
                raise ConfigError(f"{where} must be a number, got {val!r}")
            try:
                val = float(val)
            except OverflowError:
                pass
        elif isinstance(dval, list) and isinstance(val, list):  # model.ogden_terms
            if not all(isinstance(t, dict) and set(t) >= set(dval[0]) for t in val):
                raise ConfigError(f"{where} entries must be mappings with keys {list(dval[0])}")
            val = [_merge_defaults(t, dval[0], f"{where}[{i}].") for i, t in enumerate(val)]
        out[key] = val
    for key in data:
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {path}{key!r}")
    return out


def _is_int(val):
    """True for a YAML integer; booleans are not numbers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_numeric(val):
    """A number or a (nested) list of numbers."""
    if isinstance(val, list):
        return all(_is_numeric(v) for v in val)
    return _is_number(val)


@dataclass
class RunConfig:
    """Validated run configuration with constructors for every module."""

    data: dict

    @property
    def seed(self):
        return int(self.data["seed"])

    @property
    def output_dir(self):
        return self.data["output_dir"]

    def _kind_params(self, label, supplied=0):
        """Kind and parameters of a ``{kind: ...}`` block, checked against its table.

        Each parameter must name a keyword of the kind's builder, past the
        ``supplied`` leading arguments its factory passes itself, and be a
        number or a list of numbers (YAML booleans are neither).
        """
        table = _KIND_TABLES[label]
        block = self.data[label]
        params = dict(block) if isinstance(block, dict) else {}
        kind = params.pop("kind", None)
        if not (isinstance(kind, str) and kind in table):
            raise ConfigError(f"{label}.kind must be one of {sorted(table)}")
        # Read only when needed: for a class without __init__, such as Plane,
        # inspect parses object's text signature (about 1 ms on first use).
        keywords = list(inspect.signature(table[kind]).parameters)[supplied:] if params else []
        for key, val in params.items():
            if key not in keywords:
                raise ConfigError(f"unknown {label} parameter {key!r} for kind {kind!r}")
            if not _is_numeric(val):
                raise ConfigError(
                    f"{label}.{key} must be a number or a list of numbers, got {val!r}"
                )
        return kind, params

    def _build(self, label, factory, *args):
        """Call a block's factory as ``factory(*args, kind, **params)``."""
        kind, params = self._kind_params(label, len(args))
        try:
            return factory(*args, kind, **params)
        except (ValueError, TypeError, IndexError) as exc:
            raise ConfigError(f"{label}: {exc}") from exc

    def surface(self):
        return self._build("surface", make_surface)

    def model(self):
        try:
            return IsotropicModel.from_dict(self.data["model"])
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"model: malformed block ({exc})") from exc
        except InvalidModelError as exc:
            raise ConfigError(f"model: {exc}") from exc

    def mesh(self):
        return self._build("domain", build_mesh)

    def initial_map(self, surface):
        return self._build("initial_map", make_initial_map, surface)

    def grad_tol(self):
        """The minimize block's gradient tolerance; None takes ``minimize``'s default."""
        val = self.data["minimize"]["grad_tol"]
        if val is not None and not _is_number(val):
            raise ConfigError(
                f"minimize.grad_tol must be a number, got {val!r} "
                "(write an exponent with a decimal point: 5.0e-2, not 5e-2)"
            )
        try:
            check_grad_tol(val)
        except ValueError as exc:
            raise ConfigError(f"minimize: {exc}") from exc
        return val

    def diagnostics_params(self):
        return dict(self.data["diagnostics"])

    def serialize(self):
        return yaml.safe_dump(self.data, sort_keys=True, default_flow_style=False)

    @functools.cached_property
    def config_hash(self):
        """Short hash of the canonical form, computed once per config.

        Every output file stamps it; a config is not edited after parsing.
        """
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    def validate(self):
        """Construct every parameterized object once, before any computation.

        The mesh is the exception: parsing only checks its block's keys and
        resolution, and ``mesh()`` reports its other values.
        """
        for label in ("model", "minimize", "diagnostics"):
            if not isinstance(self.data[label], dict):
                raise ConfigError(f"{label} must be a mapping, got {self.data[label]!r}")
        output_dir = self.data["output_dir"]
        if not (isinstance(output_dir, str) and output_dir):
            raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
        surface = self.surface()
        model = self.model()
        self.grad_tol()
        resolution = self._kind_params("domain")[1].get("resolution")
        if not (_is_number(resolution) and 0 < resolution < math.inf):
            raise ConfigError("domain.resolution must be a finite positive number")
        self.initial_map(surface)
        bound = max_perturbation_delta(model)
        if not PERTURBATION_DELTA < bound:
            raise ConfigError(
                f"model: 1/(2K) = {bound:.6g} must exceed the perturbation size "
                f"{PERTURBATION_DELTA} of the verify battery (K: stress-growth constant)"
            )
        diag = self.data["diagnostics"]
        if not isinstance(diag["injectivity"], bool):
            raise ConfigError("diagnostics.injectivity must be boolean")
        for key in ("degree_points", "residual_fields"):
            if not (_is_int(diag[key]) and diag[key] >= 0):
                raise ConfigError(f"diagnostics.{key} must be a nonnegative integer")
        if not (_is_int(self.data["seed"]) and self.data["seed"] >= 0):
            raise ConfigError("seed must be a nonnegative integer")
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
    # A copy, so a caller that edits its config leaves the defaults alone.
    merged = _merge_defaults(raw, copy.deepcopy(DEFAULT_CONFIG))
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
