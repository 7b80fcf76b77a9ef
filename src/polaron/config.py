"""Run configuration: a single flat JSON document with dotted keys.

Example:

    {"grid.n": 3000, "grid.rmax": 30.0,
     "momentum.n": 4000, "momentum.pmax": 10.0,
     "solver.tol_psi": 1e-8,
     "cutoff.shape": "bump", "cutoff.eps_list": [0.5, 0.2, 0.1, 0.05]}

Every key is optional; omitted keys take the defaults above.  Validation
errors name the offending dotted key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path


# Upper bound on the grid sizes, far above any grid the paper's numbers need: on 10^6
# nodes over rmax 40 a `solve` peaks at 253 MB and a `verify` with momentum.n 10^3 at
# 253 MB (ru_maxrss), and profiles.csv takes about 92 B per node.
_MAX_NODES = 10**7


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunConfig:
    grid_n: int = 3000
    grid_rmax: float = 30.0
    momentum_n: int = 4000
    momentum_pmax: float = 10.0
    solver_tol_psi: float = 1e-8
    cutoff_shape: str = "bump"
    cutoff_eps_list: list[float] = field(default_factory=lambda: [0.5, 0.2, 0.1, 0.05])

    def validate(self) -> None:
        for key in ("grid.n", "momentum.n"):
            val = getattr(self, _attr(key))
            if not isinstance(val, int) or isinstance(val, bool) or not 2 <= val <= _MAX_NODES:
                raise ConfigError(f"{key} must be an integer in [2, {_MAX_NODES}], got {val!r}")
        for key in ("grid.rmax", "momentum.pmax", "solver.tol_psi"):
            val = getattr(self, _attr(key))
            if not _finite(val) or not val > 0:
                raise ConfigError(f"{key} must be a positive finite number, got {val!r}")
        # inside where the run's floats leave their range: the norm h²e^{-5h/8} of the flow
        # oracle's start r e^{-5r/16} underflows above h ≈ 1150, ρΦ ~ h⁻⁴ below ~1e-77,
        # 1/p² below ~1e-100, p⁷ above ~1e44
        h, pmax = self.grid_rmax / self.grid_n, self.momentum_pmax
        if not 1e-50 <= h <= 300:
            raise ConfigError(f"grid.rmax / grid.n must lie in [1e-50, 300], got {h!r}")
        if not 1e-50 * self.momentum_n <= pmax <= 1e40:
            raise ConfigError(f"momentum.pmax must lie in [1e-50 * momentum.n, 1e40], got {pmax!r}")
        if self.cutoff_shape not in ("bump", "gaussian"):
            raise ConfigError(f"cutoff.shape must be bump|gaussian, got {self.cutoff_shape!r}")
        eps = self.cutoff_eps_list
        if (not isinstance(eps, list) or not eps
                or any(not _finite(e) or e <= 0 for e in eps)
                or any(b >= a for a, b in zip(eps, eps[1:]))):
            raise ConfigError(
                f"cutoff.eps_list must be a strictly decreasing list of positive finite numbers, got {eps!r}"
            )
        if eps[0] * pmax > 1e150:  # keeps εp, and the gaussian cutoff's (εp)², finite
            raise ConfigError(f"cutoff.eps_list times momentum.pmax must not exceed 1e150, got {eps[0]!r}")

    def to_flat_dict(self) -> dict:
        return {key: getattr(self, _attr(key)) for key in _KEYS}


_KEYS = tuple(f.name.replace("_", ".", 1) for f in fields(RunConfig))


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
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    return config_from_dict(doc)
