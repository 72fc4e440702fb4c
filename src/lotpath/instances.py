"""Problem instances: schema, JSON round-trip and the synthetic generators."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .cycles import CostParams
from .errors import InputError

__all__ = ["InstanceSpec", "load_instance", "save_instance", "generate_instances"]


@dataclass(frozen=True)
class InstanceSpec:
    """One single-item lot-sizing instance.

    Period demand t is Normal with mean ``means[t-1]`` and standard
    deviation ``cv * means[t-1]``. Orders may be placed at the start of any
    period; the first period always holds a review.
    """

    horizon: int
    means: Tuple[float, ...]
    cv: float
    K: float
    z: float
    h: float
    b: float
    seed: Optional[int] = None
    initial_inventory: float = 0.0
    pattern: str = "explicit"
    name: str = ""

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError(f"field 'horizon': must be >= 1, got {self.horizon}")
        if len(self.means) != self.horizon:
            raise InputError(
                f"field 'means': expected {self.horizon} entries, got {len(self.means)}"
            )
        for t, m in enumerate(self.means, start=1):
            if not (isinstance(m, (int, float)) and math.isfinite(m)) or m < 0:
                raise InputError(f"field 'means': period {t} value {m!r} is not a finite non-negative number")
        if not (0.0 < self.cv <= 1.0):
            raise InputError(f"field 'cv': must lie in (0, 1], got {self.cv}")
        # products, not powers: a float power raises OverflowError instead of giving inf
        total_var = sum((self.cv * m) * (self.cv * m) for m in self.means)
        if not (math.isfinite(sum(self.means)) and math.isfinite(total_var)):
            raise InputError(
                "field 'means': the horizon totals of the means and of the variances "
                "(cv * mean)^2 must be finite"
            )
        if not math.isfinite(self.initial_inventory):
            raise InputError("field 'initial_inventory': must be finite")
        try:
            self.params  # cost validation lives in CostParams
        except ValueError as exc:
            raise InputError(f"field 'K/z/h/b': {exc}") from exc

    @property
    def params(self) -> CostParams:
        return CostParams(K=self.K, z=self.z, h=self.h, b=self.b)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "means": list(self.means),
            "cv": self.cv,
            "K": self.K,
            "z": self.z,
            "h": self.h,
            "b": self.b,
            "seed": self.seed,
            "initial_inventory": self.initial_inventory,
            "pattern": self.pattern,
            "name": self.name,
        }


_REQUIRED = ("horizon", "means", "cv", "K", "z", "h", "b")
_OPTIONAL = {"seed": None, "initial_inventory": 0.0, "pattern": "explicit", "name": ""}


def _beyond_float(v) -> bool:
    """Whether ``v`` is an integer too large to convert to a float."""
    try:
        float(v)
    except OverflowError:
        return True
    return False


def _from_mapping(data: dict, origin: str = "instance") -> InstanceSpec:
    if not isinstance(data, dict):
        raise InputError(f"{origin}: expected a JSON object, got {type(data).__name__}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise InputError(f"{origin}: missing required field '{missing[0]}'")
    unknown = [k for k in data if k not in _REQUIRED and k not in _OPTIONAL]
    if unknown:
        raise InputError(f"{origin}: unknown field '{unknown[0]}'")
    kwargs = {}
    for k in _REQUIRED:
        kwargs[k] = data[k]
    for k, default in _OPTIONAL.items():
        kwargs[k] = data.get(k, default)
    if not isinstance(kwargs["horizon"], int) or isinstance(kwargs["horizon"], bool):
        raise InputError(f"{origin}: field 'horizon' must be an integer")
    if not isinstance(kwargs["means"], list):
        raise InputError(f"{origin}: field 'means' must be an array")
    if len(kwargs["means"]) == 0:
        raise InputError(f"{origin}: field 'means' must not be empty")
    for t, m in enumerate(kwargs["means"], start=1):
        if not isinstance(m, (int, float)) or isinstance(m, bool):
            raise InputError(f"{origin}: field 'means': period {t} value {m!r} is not a number")
        if _beyond_float(m):
            raise InputError(f"{origin}: field 'means': period {t} value is beyond the float range")
    for fname in ("cv", "K", "z", "h", "b", "initial_inventory"):
        v = kwargs[fname]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InputError(f"{origin}: field '{fname}' must be a number, got {v!r}")
        if _beyond_float(v):
            raise InputError(f"{origin}: field '{fname}' is beyond the float range")
    kwargs["means"] = tuple(float(m) for m in kwargs["means"])
    return InstanceSpec(**kwargs)


def load_instance(source: Union[str, Path, dict]) -> InstanceSpec:
    """Read an instance from a JSON file path or an already-parsed mapping."""
    if isinstance(source, dict):
        return _from_mapping(source)
    path = Path(source)
    text = path.read_text()  # OSError propagates: unreadable file is an I/O failure
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _from_mapping(data, origin=str(path))


def save_instance(spec: InstanceSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# synthetic demand patterns
# ---------------------------------------------------------------------------


def _pattern_means(pattern: str, horizon: int, rng: np.random.Generator) -> np.ndarray:
    if pattern == "erratic":
        return rng.uniform(0.0, 100.0, size=horizon)
    if pattern == "lumpy":
        # occasional demand spikes on a low base
        spike = rng.uniform(size=horizon) < 0.2
        high = rng.uniform(0.0, 420.0, size=horizon)
        low = rng.uniform(0.0, 20.0, size=horizon)
        return np.where(spike, high, low)
    raise InputError(f"unknown demand pattern {pattern!r}")


def generate_instances(
    pattern: str,
    horizon: int,
    rho: float,
    K: float,
    b: float,
    count: int = 1,
    h: float = 1.0,
    z: float = 0.0,
    seed: int = 0,
) -> List[InstanceSpec]:
    """Draw ``count`` instances of the given demand pattern.

    ``rho`` is the coefficient of variation applied to every period mean.
    Deterministic for a given seed; replicate r uses its own child stream so
    the set is stable under reordering.
    """
    out = []
    for r in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        means = _pattern_means(pattern, horizon, rng)
        name = f"{pattern}-T{horizon}-rho{rho:g}-b{b:g}-K{K:g}-r{r}"
        out.append(
            InstanceSpec(
                horizon=horizon,
                means=tuple(round(float(m), 6) for m in means),
                cv=rho,
                K=K,
                z=z,
                h=h,
                b=b,
                seed=seed,
                pattern=pattern,
                name=name,
            )
        )
    return out
