"""Flat key = value configuration for the CLI and scenario pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, ValidationError
from .flow import FlowParams

__all__ = ["Config", "parse_config", "parse_formats", "load_config"]

_FORMATS = ("csv", "json", "svg")
GAMMA_RATIO_MAX = 0.2  # largest gamma1/gamma2
COUNT_MAX = 1000  # most n_times samples and k_grid wave numbers


@dataclass(frozen=True)
class Config:
    gamma0: float = 0.15
    gamma1: float = 0.03
    gamma2: float = 0.8
    nu: float = 1e-3
    M: Optional[float] = None
    delta: float = 0.01
    n_times: int = 9
    k_grid: str = "auto"

    def params(self, M: Optional[float] = None) -> FlowParams:
        m = M if M is not None else (self.M if self.M is not None else 1.0)
        return FlowParams(m, self.gamma0, self.gamma1, self.gamma2, self.nu)

    def k_grid_values(self, k_upper: float):
        """Wave-number grid for the eigenvalue curve.

        'auto' spans [0.9 min(1, hi), hi], hi = max(k_upper - 0.004, 0.9 k_upper),
        with 8 points strictly inside (0, k_upper); an explicit spec is 'start:stop:count'.
        """
        import numpy as np

        if self.k_grid == "auto":
            hi = max(k_upper - 0.004, 0.9 * k_upper)
            return np.linspace(0.9 * min(1.0, hi), hi, 8)
        return np.linspace(*_k_grid_spec(self.k_grid))


_FLOAT_KEYS = {"gamma0", "gamma1", "gamma2", "nu", "M", "delta"}
_INT_KEYS = {"n_times"}
_STR_KEYS = {"k_grid"}


def parse_formats(text: str) -> tuple:
    """Output formats from a comma-separated subset of csv, json, svg (``--format``)."""
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    for f in fmts:
        if f not in _FORMATS:
            raise ValidationError(f"--format must be a subset of {{csv, json, svg}}, got {f!r}")
    return fmts


def _k_grid_spec(spec: str):
    """(start, stop, count) of a validated 'start:stop:count' k_grid."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValidationError("k_grid must be 'auto' or 'start:stop:count'") from None
    if not 0 <= count <= COUNT_MAX:
        raise ValidationError(f"k_grid count must be nonnegative and at most {COUNT_MAX}")
    # the grid runs from start to stop, so its ends bound every wave number
    if count and not (start > 0.0 and (count == 1 or stop > 0.0)):
        raise ValidationError("k_grid wave numbers must be positive")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError("k_grid ends must be finite")
    return start, stop, count


def parse_config(text: str) -> Config:
    """Parse flat 'key = value' text ('#' comments) into a validated Config.

    Unknown and duplicate keys are rejected with their line number; value
    validation failures name the violated invariant.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ParseError(lineno, f"{key} must be a number, got {val!r}")
            if not math.isfinite(values[key]):
                raise ParseError(lineno, f"{key} must be finite, got {val!r}")
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ParseError(lineno, f"{key} must be an integer, got {val!r}")
        else:
            values[key] = val
    cfg = Config(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: Config) -> None:
    try:
        cfg.params()  # FlowParams checks gamma0, gamma1, gamma2, nu and M
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if cfg.gamma1 / cfg.gamma2 > GAMMA_RATIO_MAX:
        raise ValidationError(
            f"gamma1/gamma2 = {cfg.gamma1 / cfg.gamma2:g} exceeds {GAMMA_RATIO_MAX:g}"
        )
    if not 0.0 < cfg.delta < 1.0:
        raise ValidationError("delta must lie in (0,1)")
    if not 8 <= cfg.n_times <= COUNT_MAX:
        raise ValidationError(f"n_times must be at least 8 and at most {COUNT_MAX}")
    if cfg.k_grid != "auto":
        _k_grid_spec(cfg.k_grid)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
