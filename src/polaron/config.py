"""Run configuration: a single flat JSON document with dotted keys.

Example:

    {
      "grid.n": 3000, "grid.rmax": 30.0,
      "momentum.n": 4000, "momentum.pmax": 10.0,
      "solver.mixing": 0.5, "solver.tol_energy": 1e-10,
      "solver.tol_psi": 1e-8, "solver.max_iter": 300,
      "cutoff.shape": "bump", "cutoff.eps_list": [0.5, 0.2, 0.1, 0.05],
      "output.dir": "out"
    }

Every key is optional; omitted keys take the defaults above.  Validation
errors name the offending dotted key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunConfig:
    grid_n: int = 3000
    grid_rmax: float = 30.0
    momentum_n: int = 4000
    momentum_pmax: float = 10.0
    solver_mixing: float = 0.5
    solver_tol_energy: float = 1e-10
    solver_tol_psi: float = 1e-8
    solver_max_iter: int = 300
    cutoff_shape: str = "bump"
    cutoff_eps_list: list[float] = field(default_factory=lambda: [0.5, 0.2, 0.1, 0.05])
    output_dir: str = "out"

    def validate(self) -> None:
        for key in ("grid.n", "momentum.n", "solver.max_iter"):
            val = getattr(self, _attr(key))
            if not isinstance(val, int) or isinstance(val, bool) or val < 2:
                raise ConfigError(f"{key} must be an integer >= 2, got {val!r}")
        for key in ("grid.rmax", "momentum.pmax", "solver.tol_energy", "solver.tol_psi"):
            val = getattr(self, _attr(key))
            if not _finite(val) or not val > 0:
                raise ConfigError(f"{key} must be a positive finite number, got {val!r}")
        # inside where the run's floats leave their range: the initial norm h²e^{-2h}
        # underflows above h ≈ 350, ρΦ ~ h⁻⁴ below ~1e-77, 1/p² below ~1e-100, p⁷ above ~1e44
        h, pmax = self.grid_rmax / self.grid_n, self.momentum_pmax
        if not 1e-50 <= h <= 300:
            raise ConfigError(f"grid.rmax / grid.n must lie in [1e-50, 300], got {h!r}")
        if not 1e-50 * self.momentum_n <= pmax <= 1e40:
            raise ConfigError(f"momentum.pmax must lie in [1e-50 * momentum.n, 1e40], got {pmax!r}")
        if not _finite(self.solver_mixing) or not (0 < self.solver_mixing <= 1):
            raise ConfigError(f"solver.mixing must lie in (0, 1], got {self.solver_mixing!r}")
        if self.cutoff_shape not in ("bump", "gaussian", "one"):
            raise ConfigError(f"cutoff.shape must be bump|gaussian|one, got {self.cutoff_shape!r}")
        eps = self.cutoff_eps_list
        if (not isinstance(eps, list) or not eps
                or any(not _finite(e) or e <= 0 for e in eps)
                or any(b >= a for a, b in zip(eps, eps[1:]))):
            raise ConfigError(
                f"cutoff.eps_list must be a strictly decreasing list of positive finite numbers, got {eps!r}"
            )
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output.dir must be a non-empty string, got {self.output_dir!r}")

    def to_flat_dict(self) -> dict:
        return {key: getattr(self, _attr(key)) for key in _KEYS}

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_flat_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_KEYS = (
    "grid.n", "grid.rmax",
    "momentum.n", "momentum.pmax",
    "solver.mixing", "solver.tol_energy", "solver.tol_psi", "solver.max_iter",
    "cutoff.shape", "cutoff.eps_list",
    "output.dir",
)


def _finite(val) -> bool:
    """A finite JSON number: NaN and ±Infinity (which json accepts) and bools are not."""
    if isinstance(val, bool):
        return False
    return isinstance(val, int) or (isinstance(val, float) and math.isfinite(val))


def _attr(key: str) -> str:
    return key.replace(".", "_")


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    cfg = RunConfig(**{_attr(k): v for k, v in doc.items()})
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
