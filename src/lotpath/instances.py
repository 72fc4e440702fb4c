"""Problem instances: schema, JSON round-trip and the synthetic generators."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import InputError

__all__ = ["InstanceSpec", "load_instance", "save_instance", "generate_instances"]


@dataclass(frozen=True)
class InstanceSpec:
    """One single-item lot-sizing instance.

    Period demand t is Normal with mean ``means[t-1]`` and standard
    deviation ``cv * means[t-1]``; ``K``, ``z``, ``h`` and ``b`` are the
    fixed order, unit, holding and penalty costs. Orders may be placed at
    the start of any period; the first period always holds a review.
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
        """The one validation of an instance's fields; stores ``means`` as floats."""
        check_horizon(self.horizon)
        try:
            means = tuple(self.means)
        except TypeError:
            raise InputError(
                f"field 'means' must be a sequence of numbers, got {type(self.means).__name__}"
            ) from None
        if len(means) == 0:
            raise InputError("field 'means' must not be empty")
        if len(means) != self.horizon:
            raise InputError(
                f"field 'means': expected one entry per period of the horizon, got {len(means)}"
            )
        means = tuple(
            _number(f"field 'means': period {t} value", m) for t, m in enumerate(means, start=1)
        )
        for t, m in enumerate(means, start=1):
            if not math.isfinite(m) or m < 0:
                raise InputError(f"field 'means': period {t} value {m!r} is not a finite non-negative number")
        object.__setattr__(self, "means", means)
        cv, K, z, h, b, stock = (
            _number(f"field '{name}' value", getattr(self, name))
            for name in ("cv", "K", "z", "h", "b", "initial_inventory")
        )
        if not (0.0 < cv <= 1.0):
            raise InputError(f"field 'cv': must lie in (0, 1], got {cv}")
        # products, not powers: a float power raises OverflowError instead of giving inf
        total_var = sum((cv * m) * (cv * m) for m in means)
        if not (math.isfinite(sum(means)) and math.isfinite(total_var)):
            raise InputError(
                "field 'means': the horizon totals of the means and of the variances "
                "(cv * mean)^2 must be finite"
            )
        if not math.isfinite(stock):
            raise InputError("field 'initial_inventory': must be finite")
        for name, v in (("K", K), ("z", z), ("h", h), ("b", b)):
            if not math.isfinite(v):
                raise InputError(f"field 'K/z/h/b': {name} must be finite, got {v}")
        if K < 0:
            raise InputError(f"field 'K/z/h/b': fixed order cost K must be >= 0, got {K}")
        if h <= 0:
            raise InputError(f"field 'K/z/h/b': holding cost h must be > 0, got {h}")
        if b <= h:
            # keeps the newsvendor fractile above one half
            raise InputError(f"field 'K/z/h/b': penalty cost b must exceed holding cost h, got b={b} h={h}")
        if not 0 <= z < b:
            raise InputError(f"field 'K/z/h/b': unit cost z must satisfy 0 <= z < b, got z={z} b={b}")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise InputError(f"field 'seed' must be an integer or null, got {self.seed!r}")
        for name in ("pattern", "name"):
            if not isinstance(getattr(self, name), str):
                raise InputError(f"field '{name}' must be a string, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        """The fields in declaration order, ``means`` as a list: the JSON form."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"means": list(self.means)}


_REQUIRED = tuple(f.name for f in fields(InstanceSpec) if f.default is MISSING)
_OPTIONAL = {f.name: f.default for f in fields(InstanceSpec) if f.default is not MISSING}


def _number(what: str, v) -> float:
    """``v`` as a float, or :class:`InputError` unless it is an int or a
    float (not a bool) within the float range; ``what`` names the value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"{what} {v!r} is not a number")
    try:
        return float(v)
    except OverflowError:
        raise InputError(f"{what} is beyond the float range") from None


def check_horizon(horizon) -> None:
    """:class:`InputError` unless ``horizon`` is an int (not a bool) of at least 1."""
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise InputError("field 'horizon' must be an integer")
    if _number("field 'horizon' value", horizon) < 1:
        raise InputError("field 'horizon': must be >= 1")


def check_seed(seed) -> None:
    """:class:`InputError` unless ``seed`` is a non-negative int (not a bool),
    which is what :class:`numpy.random.SeedSequence` takes."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def _from_mapping(data: dict, origin: str = "instance") -> InstanceSpec:
    """Check the JSON shape of an instance; :class:`InstanceSpec` checks its values."""
    if not isinstance(data, dict):
        raise InputError(f"{origin}: expected a JSON object, got {type(data).__name__}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise InputError(f"{origin}: missing required field '{missing[0]}'")
    unknown = [k for k in data if k not in _REQUIRED and k not in _OPTIONAL]
    if unknown:
        raise InputError(f"{origin}: unknown field '{unknown[0]}'")
    if not isinstance(data["means"], list):
        raise InputError(f"{origin}: field 'means' must be an array")
    try:
        return InstanceSpec(**{**_OPTIONAL, **data})
    except InputError as exc:
        raise InputError(f"{origin}: {exc}") from None


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

PATTERNS = ("erratic", "lumpy")


def _pattern_means(pattern: str, horizon: int, rng: np.random.Generator) -> np.ndarray:
    if pattern == "erratic":
        return rng.uniform(0.0, 100.0, size=horizon)
    # lumpy: occasional demand spikes on a low base
    spike = rng.uniform(size=horizon) < 0.2
    high = rng.uniform(0.0, 420.0, size=horizon)
    low = rng.uniform(0.0, 20.0, size=horizon)
    return np.where(spike, high, low)


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
    the set is stable under reordering. ``count`` = 0 gives no instances; a
    negative count is refused.
    """
    check_seed(seed)
    check_horizon(horizon)
    if pattern not in PATTERNS:
        raise InputError(f"unknown demand pattern {pattern!r}")
    if isinstance(count, bool) or not isinstance(count, int):
        raise InputError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    for what, v in (("rho", rho), ("K", K), ("b", b)):
        _number(f"{what} value", v)  # each instance's name formats them as numbers
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
