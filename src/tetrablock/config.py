"""Shared tolerance and budget configuration.

A single frozen dataclass carries every knob the library reads, so a
run is reproducible from (config, seed) alone.  The defaults are the
pinned values used by the acceptance suite; override selectively via
``ToolConfig(tol_solve=1e-8)`` or load from a JSON file with
:func:`ToolConfig.from_json`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

__all__ = ["ToolConfig", "DEFAULT_CONFIG"]

# The least value of each integer budget.
_INT_MINIMA = {"cf_grid": 16, "z_samples": 3, "sup_samples": 1, "falsify_trials": 0}


@dataclass(frozen=True)
class ToolConfig:
    """Numerical tolerances and search budgets.

    The four tolerances must be finite positive real numbers, the seed
    a nonnegative int, and the four integer budgets ints at or above
    the least value given with each; a bool is none of these.

    Attributes
    ----------
    tol_algebraic:
        Tolerance for identities that hold exactly in exact arithmetic
        (commutation defects, isometry defects, residuals of structured
        equations).
    rank_tol:
        Eigenvalue cutoff used when extracting the range of a defect
        operator: eigenvalues of the squared defect at or below this
        value are treated as zero.
    tol_solve:
        Residual bound for the structured-equation solver that extracts
        fundamental operators.
    falsify_margin:
        A candidate inequality violation must clear the estimated sup
        by this margin before it is promoted to a verdict.
    cf_grid:
        Number of roots of unity on which the minimal-norm extension
        search fits its polynomials; at least 16.
    z_samples:
        Number of roots of unity at which a symbol pair's pencil norm
        is sampled to bound its sup on the circle; at least 3.
    sup_samples:
        Default boundary sample count for polynomial sup estimates;
        at least 1.
    falsify_trials:
        Default number of random triples tried by the falsifier; at
        least 0.
    seed:
        Master seed; every randomized routine derives per-trial seeds
        from it deterministically.
    output_format:
        Default report rendering for the command line, "json" or
        "text".
    """

    tol_algebraic: float = 1e-9
    rank_tol: float = 1e-8
    tol_solve: float = 1e-9
    falsify_margin: float = 1e-3
    cf_grid: int = 512
    z_samples: int = 64
    sup_samples: int = 4096
    falsify_trials: int = 200
    seed: int = 1729
    output_format: str = "json"

    def __post_init__(self):
        for name in (
            "tol_algebraic",
            "rank_tol",
            "tol_solve",
            "falsify_margin",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a nonnegative int, got {seed!r}")
        for name, least in _INT_MINIMA.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.output_format not in ("json", "text"):
            raise ValueError(
                f"output_format must be 'json' or 'text', got {self.output_format!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ToolConfig":
        """Build a config from a dict; ValueError for a non-dict or an unknown key."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "ToolConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


DEFAULT_CONFIG = ToolConfig()
