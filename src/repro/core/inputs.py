"""Floating-point input generation (Section III-D).

The input module generates the five kinds of floating-point numbers the
paper defines:

* **normal** numbers (IEEE 754-2008 normal range),
* **subnormal** numbers,
* **almost-infinity** numbers — "close to infinity (+INF or -INF), but
  still a normal number",
* **almost-subnormal** numbers — "close to being a subnormal number, but
  still a normal number",
* **zero** (positive and negative).

Integer kernel parameters are loop bounds and are drawn uniformly from the
configured trip-count range.  Array parameters receive a single fill value
(the emitted ``main()`` initializes every element to it, and the simulated
backend does the same, so both backends execute identical data).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from ..config import GeneratorConfig
from ..rng import Rng
from .nodes import Program
from .types import FPType


class FPCategory(enum.Enum):
    """The five input kinds of Section III-D."""

    NORMAL = "normal"
    SUBNORMAL = "subnormal"
    ALMOST_INF = "almost_inf"
    ALMOST_SUBNORMAL = "almost_subnormal"
    ZERO = "zero"


@dataclass(frozen=True)
class FPLimits:
    """IEEE 754 binary32/binary64 boundary magnitudes."""

    max_normal: float
    min_normal: float
    min_subnormal: float


LIMITS: dict[FPType, FPLimits] = {
    FPType.FLOAT: FPLimits(max_normal=3.4028234663852886e38,
                           min_normal=1.1754943508222875e-38,
                           min_subnormal=1.401298464324817e-45),
    FPType.DOUBLE: FPLimits(max_normal=1.7976931348623157e308,
                            min_normal=2.2250738585072014e-308,
                            min_subnormal=5e-324),
}

#: Draw weights: ordinary values dominate, extreme categories keep a solid
#: presence — they are what shakes out numerical-exception control flow
#: (Section V-B attributes about half the GCC fast outliers to NaNs).
CATEGORY_WEIGHTS: tuple[tuple[FPCategory, float], ...] = (
    (FPCategory.NORMAL, 0.55),
    (FPCategory.SUBNORMAL, 0.12),
    (FPCategory.ALMOST_INF, 0.12),
    (FPCategory.ALMOST_SUBNORMAL, 0.11),
    (FPCategory.ZERO, 0.10),
)


def sample_category(rng: Rng, category: FPCategory, fp_type: FPType) -> float:
    """Draw one value of the given category for the given precision."""
    lim = LIMITS[fp_type]
    sign = -1.0 if rng.coin() else 1.0
    if category is FPCategory.ZERO:
        return sign * 0.0
    if category is FPCategory.NORMAL:
        mantissa = rng.uniform(1.0, 10.0)
        exp = rng.randint(-8, 8)
        return sign * mantissa * (10.0 ** exp)
    if category is FPCategory.SUBNORMAL:
        # strictly between the smallest subnormal and the normal threshold
        scale = rng.uniform(0.001, 0.999)
        v = lim.min_normal * scale
        return sign * max(v, lim.min_subnormal)
    if category is FPCategory.ALMOST_INF:
        return sign * lim.max_normal * rng.uniform(0.90, 0.9999)
    if category is FPCategory.ALMOST_SUBNORMAL:
        return sign * lim.min_normal * rng.uniform(1.0, 4.0)
    raise ValueError(f"unknown category {category}")  # pragma: no cover


def classify(value: float, fp_type: FPType) -> FPCategory:
    """Classify a finite value into the paper's five categories.

    ``ALMOST_INF`` / ``ALMOST_SUBNORMAL`` use the same bands the sampler
    draws from, so ``classify(sample_category(c)) == c`` for every c.
    """
    lim = LIMITS[fp_type]
    mag = abs(value)
    if mag == 0.0:
        return FPCategory.ZERO
    if not math.isfinite(value):
        raise ValueError("classify expects a finite value")
    if mag < lim.min_normal:
        return FPCategory.SUBNORMAL
    if mag >= lim.max_normal * 0.90:
        return FPCategory.ALMOST_INF
    if mag <= lim.min_normal * 4.0:
        return FPCategory.ALMOST_SUBNORMAL
    return FPCategory.NORMAL


@dataclass
class TestInput:
    """One concrete input vector for a generated program.

    ``values`` maps parameter name to its value (int bounds, fp scalars,
    and the single fill value for each array parameter).  ``categories``
    records the drawn category per fp parameter for later analysis.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    program_name: str
    index: int
    values: dict[str, float | int] = field(default_factory=dict)
    categories: dict[str, FPCategory] = field(default_factory=dict)

    def argv(self, program: Program) -> list[str]:
        """Serialize in kernel-parameter order for the native backend."""
        out: list[str] = []
        for p in program.params:
            v = self.values[p.name]
            out.append(str(int(v)) if p.is_int else f"{float(v):.17g}")
        return out

    def to_payload(self, program: Program) -> dict:
        """JSON-ready form for artifact dumps and reproducer bundles.

        Floats serialize as their ``repr`` (round-trips exactly), ints
        stay ints, and ``argv`` is the vector the emitted ``main()``
        takes — one schema shared by every ``input.json`` on disk.
        """
        return {
            "program": self.program_name,
            "input_index": self.index,
            "values": {k: (v if isinstance(v, int) else repr(float(v)))
                       for k, v in self.values.items()},
            "categories": {k: c.value for k, c in self.categories.items()},
            "argv": self.argv(program),
        }

    def extreme_count(self) -> int:
        """How many fp parameters fall in the two *hard* extreme
        categories (subnormal, almost-infinity).  The latent miscompile
        crash model requires at least two: a miscompiled range check only
        faults when the data actually leaves the ordinary range."""
        return sum(c in (FPCategory.SUBNORMAL, FPCategory.ALMOST_INF)
                   for c in self.categories.values())


class InputGenerator:
    """Generates reproducible input vectors for a program (Fig. 1 step (a))."""

    def __init__(self, cfg: GeneratorConfig | None = None, seed: int = 0):
        self.cfg = cfg if cfg is not None else GeneratorConfig()
        self.seed = seed
        self._root = Rng(seed, mode=self.cfg.rng_mode)

    def generate(self, program: Program, index: int = 0) -> TestInput:
        """The ``index``-th input vector for ``program``."""
        rng = self._root.child(f"input:{program.name}:{index}")
        cfg = self.cfg
        inp = TestInput(program_name=program.name, index=index)
        for p in program.params:
            if p.is_int:
                inp.values[p.name] = rng.randint(cfg.loop_trip_min,
                                                 cfg.loop_trip_max)
                continue
            cat = rng.weighted_choice(CATEGORY_WEIGHTS)
            inp.values[p.name] = sample_category(rng, cat, program.fp_type)
            inp.categories[p.name] = cat
        return inp

    def batch(self, program: Program, n: int) -> list[TestInput]:
        """``INPUT_SAMPLES_PER_RUN`` distinct inputs for one program."""
        return [self.generate(program, i) for i in range(n)]
