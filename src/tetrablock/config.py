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
from dataclasses import dataclass

__all__ = ["ToolConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class ToolConfig:
    """Numerical tolerances and search budgets.

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
        search fits and scores its polynomials.
    z_samples:
        Number of roots of unity used to certify contractivity of an
        operator pencil on the circle.
    sup_samples:
        Default boundary sample count for polynomial sup estimates.
    falsify_trials:
        Default number of random triples tried by the falsifier.
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output_format not in ("json", "text"):
            raise ValueError(
                f"output_format must be 'json' or 'text', got {self.output_format!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ToolConfig":
        """Build a config from a dict, rejecting unknown keys."""
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
