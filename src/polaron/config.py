"""Run configuration: a single flat JSON document with dotted keys.

Example:

    {"grid.n": 3000, "grid.rmax": 30.0,
     "momentum.n": 4000, "momentum.pmax": 10.0,
     "cutoff.shape": "bump", "cutoff.eps_list": [0.5, 0.2, 0.1, 0.05]}

Every key is optional; omitted keys take the defaults above.  The validated
configuration is that document, a dict of all six keys.  Validation errors
name the offending dotted key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


# Upper bound on the grid sizes, far above any grid the paper's numbers need: on 10^6
# nodes over rmax 40 a `solve` and a `verify` with momentum.n 10^3 each peak at 153 MB
# (ru_maxrss), and profiles.csv takes about 92 B per node.
_MAX_NODES = 10**7


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _finite(val) -> bool:
    """A JSON number that a float holds: bools, NaN and ±Infinity (which json
    accepts) and integers beyond the largest float are not."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def config_from_dict(doc: dict) -> dict:
    """The document over the defaults, validated."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    # a new dict and list per call, so no caller can change another's defaults
    cfg = {"grid.n": 3000, "grid.rmax": 30.0, "momentum.n": 4000, "momentum.pmax": 10.0,
           "cutoff.shape": "bump", "cutoff.eps_list": [0.5, 0.2, 0.1, 0.05]}
    unknown = set(doc) - set(cfg)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    cfg.update(doc)
    for key in ("grid.n", "momentum.n"):
        val = cfg[key]
        if not isinstance(val, int) or isinstance(val, bool) or not 2 <= val <= _MAX_NODES:
            raise ConfigError(f"{key} must be an integer in [2, {_MAX_NODES}], got {val!r}")
    for key in ("grid.rmax", "momentum.pmax"):
        val = cfg[key]
        if not _finite(val) or not val > 0:
            raise ConfigError(f"{key} must be a positive finite number, got {val!r}")
    # inside where the run's floats leave their range: the norm h²e^{-5h/8} of the flow
    # oracle's start r e^{-5r/16} underflows above h ≈ 1150, ρΦ ~ h⁻⁴ below ~1e-77,
    # 1/p² below ~1e-100, p⁷ above ~1e44
    h, pmax = cfg["grid.rmax"] / cfg["grid.n"], cfg["momentum.pmax"]
    if not 1e-50 <= h <= 300:
        raise ConfigError(f"grid.rmax / grid.n must lie in [1e-50, 300], got {h!r}")
    if not 1e-50 * cfg["momentum.n"] <= pmax <= 1e40:
        raise ConfigError(f"momentum.pmax must lie in [1e-50 * momentum.n, 1e40], got {pmax!r}")
    if cfg["cutoff.shape"] not in ("bump", "gaussian"):
        raise ConfigError(f"cutoff.shape must be bump|gaussian, got {cfg['cutoff.shape']!r}")
    eps = cfg["cutoff.eps_list"]
    if (not isinstance(eps, list) or not eps
            or any(not _finite(e) or e <= 0 for e in eps)
            or any(b >= a for a, b in zip(eps, eps[1:]))):
        raise ConfigError(
            f"cutoff.eps_list must be a strictly decreasing list of positive finite numbers, got {eps!r}"
        )
    if eps[0] * pmax > 1e150:  # keeps εp, and the gaussian cutoff's (εp)², finite
        raise ConfigError(f"cutoff.eps_list times momentum.pmax must not exceed 1e150, got {eps[0]!r}")
    return cfg


def load_config(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    return config_from_dict(doc)
