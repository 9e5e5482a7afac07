"""Configuration dataclasses for generation, execution, and analysis.

The paper drives the whole pipeline from a single configuration file
(Fig. 1, step (a)).  We mirror that: :class:`CampaignConfig` aggregates the
generator parameters (Section III-C / V-A), the machine model, the outlier
thresholds (Section IV), and campaign sizing (Section V-A: 200 programs x
3 inputs x 3 implementations).

Defaults reproduce the paper's evaluation configuration:

========================  ======= =====================================
Parameter                 Paper   Field
========================  ======= =====================================
MAX_EXPRESSION_SIZE       5       ``max_expression_size``
MAX_NESTING_LEVELS        3       ``max_nesting_levels``
MAX_LINES_IN_BLOCK        10      ``max_lines_in_block``
ARRAY_SIZE                1000    ``array_size``
MAX_SAME_LEVEL_BLOCKS     3       ``max_same_level_blocks``
MATH_FUNC_ALLOWED         True    ``math_func_allowed``
MATH_FUNC_PROBABILITY     0.01    ``math_func_probability``
INPUT_SAMPLES_PER_RUN     3       ``inputs_per_program``
num_threads               32      ``num_threads``
alpha                     0.2     ``alpha``
beta                      1.5     ``beta``
optimization level        -O3     ``opt_level``
min analyzed time         1000us  ``min_time_us``
========================  ======= =====================================
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from .errors import ConfigError

#: the execution engines of :mod:`repro.driver.engine` (plus the fleet
#: adapter of :mod:`repro.fleet`) — the single source of truth for
#: config validation, the engine factory, and the CLI
ENGINE_NAMES = ("serial", "process", "fleet")

#: the program sources of :mod:`repro.corpus` — "random" is the paper's
#: pure-random stream (and the compatibility default), "mutation" edits
#: corpus parents with the surgery kit, "adaptive" steers draws and
#: mutations toward uncovered directive/shape combinations
PROGRAM_SOURCES = ("random", "mutation", "adaptive")


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters bounding random program generation (Section III-C).

    Besides the paper's documented knobs this adds explicit bounds the
    paper leaves implicit (how many kernel parameters, loop trip-count
    ranges, probability of choosing each block class) plus a simulation
    budget ``max_total_iterations`` that caps the product of nested loop
    trip counts so a pure-Python interpreter can execute the programs.
    """

    # --- the paper's documented parameters (Section III-C, V-A) ---
    max_expression_size: int = 5
    max_nesting_levels: int = 3
    max_lines_in_block: int = 10
    array_size: int = 1000
    max_same_level_blocks: int = 3
    math_func_allowed: bool = True
    math_func_probability: float = 0.01

    # --- structure of the kernel signature ---
    min_fp_scalar_params: int = 3
    max_fp_scalar_params: int = 8
    min_array_params: int = 1
    max_array_params: int = 4
    min_int_params: int = 1
    max_int_params: int = 3

    # --- loop sizing (implicit in the paper; explicit here) ---
    loop_trip_min: int = 2
    loop_trip_max: int = 400
    max_total_iterations: int = 60_000

    # --- block class weights (uniform choice over block kinds, but the
    #     OpenMP block is rarer than plain assignments in real Varity
    #     output; weights keep feature frequencies realistic) ---
    weight_assignments: float = 4.0
    weight_if_block: float = 2.0
    weight_for_block: float = 3.0
    weight_omp_block: float = 2.0

    # --- OpenMP shape probabilities (Section III-E/F) ---
    reduction_probability: float = 0.35
    critical_probability: float = 0.45
    omp_for_probability: float = 0.85
    # probability that an eligible referenced variable is made private /
    # firstprivate rather than left shared (remainder stays shared)
    private_probability: float = 0.3
    firstprivate_probability: float = 0.3

    # --- directive-diversity feature flags ---
    # Each flag opens one directive family beyond the paper's Listing-2
    # grammar; the companion probability sets how often an eligible site
    # uses it.  ``CampaignConfig.directive_mix`` flips these in presets.
    enable_parallel_for: bool = True      # combined `omp parallel for`
    enable_schedules: bool = True         # schedule(static|dynamic|guided)
    enable_collapse: bool = True          # collapse(2)
    enable_atomic: bool = True            # `omp atomic` updates
    enable_single: bool = True            # `omp single` blocks
    enable_barrier: bool = True           # explicit `omp barrier`
    enable_minmax_reduction: bool = True  # reduction(min|max : comp)
    # The worksharing-graph families (see repro.core.taskgraph).  Off by
    # default: their scheduling is graph-shaped rather than loop-shaped,
    # so they are opened by the dedicated ``tasks`` mix (every pinned
    # stream of the loop-shaped mixes stays byte-identical).
    enable_sections: bool = False         # `omp sections`/`section` arms
    enable_tasks: bool = False            # `omp task` + `taskwait`

    parallel_for_probability: float = 0.30
    schedule_probability: float = 0.50
    collapse_probability: float = 0.15
    atomic_probability: float = 0.30
    single_probability: float = 0.25
    barrier_probability: float = 0.15
    sections_probability: float = 0.45
    task_probability: float = 0.55

    # --- correctness (Section III-G / III-E limitation) ---
    allow_data_races: bool = False

    # --- misc ---
    fp_double_probability: float = 0.7  # P(test uses double rather than float)
    num_threads: int = 32
    #: RNG stream-derivation mode (see :mod:`repro.rng`): ``"compat"``
    #: draws the byte-identical program/input streams of the seed
    #: reproduction (all pinned campaign numbers); ``"fast"`` derives
    #: stream identities with a SplitMix64 mixer instead of SHA-256 —
    #: a different but equally deterministic program space.
    rng_mode: str = "compat"

    def __post_init__(self) -> None:
        if self.max_expression_size < 1:
            raise ConfigError("max_expression_size must be >= 1")
        if self.max_nesting_levels < 1:
            raise ConfigError("max_nesting_levels must be >= 1")
        if self.max_lines_in_block < 1:
            raise ConfigError("max_lines_in_block must be >= 1")
        if self.array_size < 1:
            raise ConfigError("array_size must be >= 1")
        if self.max_same_level_blocks < 1:
            raise ConfigError("max_same_level_blocks must be >= 1")
        if not 0.0 <= self.math_func_probability <= 1.0:
            raise ConfigError("math_func_probability must be in [0, 1]")
        if self.loop_trip_min < 1 or self.loop_trip_max < self.loop_trip_min:
            raise ConfigError("invalid loop trip-count range")
        if self.max_total_iterations < self.loop_trip_min:
            raise ConfigError("max_total_iterations too small for one loop")
        for name in ("reduction_probability", "critical_probability",
                     "omp_for_probability", "private_probability",
                     "firstprivate_probability", "fp_double_probability",
                     "parallel_for_probability", "schedule_probability",
                     "collapse_probability", "atomic_probability",
                     "single_probability", "barrier_probability",
                     "sections_probability", "task_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.private_probability + self.firstprivate_probability > 1.0:
            raise ConfigError(
                "private_probability + firstprivate_probability must be <= 1")
        if self.num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        from .rng import RNG_MODES
        if self.rng_mode not in RNG_MODES:
            raise ConfigError(
                f"unknown rng_mode {self.rng_mode!r}; "
                f"choose from {', '.join(RNG_MODES)}")


#: Named directive mixes a campaign can select (``CampaignConfig.
#: directive_mix``).  Each preset pins the generator's directive-family
#: feature flags; every other generator knob is left untouched, so a mix
#: composes with hand-tuned probabilities.
DIRECTIVE_MIXES: dict[str, dict[str, bool]] = {
    # the paper's exact Listing-2 language: parallel + for + critical +
    # {+,*} reductions, nothing from the diversity expansion
    "paper": dict(enable_parallel_for=False, enable_schedules=False,
                  enable_collapse=False, enable_atomic=False,
                  enable_single=False, enable_barrier=False,
                  enable_minmax_reduction=False,
                  enable_sections=False, enable_tasks=False),
    # worksharing stressor: combined parallel-for, explicit schedules,
    # collapsed nests — where compiler/runtime chunking logic diverges
    "worksharing": dict(enable_parallel_for=True, enable_schedules=True,
                        enable_collapse=True, enable_atomic=False,
                        enable_single=False, enable_barrier=False,
                        enable_minmax_reduction=False,
                        enable_sections=False, enable_tasks=False),
    # synchronization stressor: atomics, singles, barriers on top of the
    # paper's criticals
    "sync": dict(enable_parallel_for=False, enable_schedules=False,
                 enable_collapse=False, enable_atomic=True,
                 enable_single=True, enable_barrier=True,
                 enable_minmax_reduction=False,
                 enable_sections=False, enable_tasks=False),
    # reduction stressor: all four reduction operators over both plain
    # and combined regions
    "reductions": dict(enable_parallel_for=True, enable_schedules=False,
                       enable_collapse=False, enable_atomic=False,
                       enable_single=False, enable_barrier=False,
                       enable_minmax_reduction=True,
                       enable_sections=False, enable_tasks=False),
    # irregular-parallelism stressor: sections arms and explicit tasks —
    # the worksharing-graph families (repro.core.taskgraph), where real
    # runtimes' scheduling diverges most; barriers ride along to exercise
    # the graph's barrier edges
    "tasks": dict(enable_parallel_for=False, enable_schedules=False,
                  enable_collapse=False, enable_atomic=False,
                  enable_single=False, enable_barrier=True,
                  enable_minmax_reduction=False,
                  enable_sections=True, enable_tasks=True),
    # every loop-shaped family at once (the GeneratorConfig defaults).
    # The graph families stay off here so the pinned full-mix stream —
    # and with it every full-mix verdict — remains byte-identical to the
    # pre-graph reproduction; select them explicitly with ``tasks``.
    "full": dict(enable_parallel_for=True, enable_schedules=True,
                 enable_collapse=True, enable_atomic=True,
                 enable_single=True, enable_barrier=True,
                 enable_minmax_reduction=True,
                 enable_sections=False, enable_tasks=False),
}


def apply_directive_mix(generator: GeneratorConfig,
                        mix: str) -> GeneratorConfig:
    """Return ``generator`` with the named mix's feature flags applied."""
    try:
        flags = DIRECTIVE_MIXES[mix]
    except KeyError:
        raise ConfigError(
            f"unknown directive mix {mix!r}; "
            f"choose from {', '.join(sorted(DIRECTIVE_MIXES))}") from None
    return dataclasses.replace(generator, **flags)


@dataclass(frozen=True)
class MachineConfig:
    """Simulated host: the paper's 2x18-core Xeon E5-2695 node @ 2.1 GHz."""

    cores: int = 36
    ghz: float = 2.1
    # Virtual timeout for HANG classification (the paper waits ~3 minutes
    # before SIGINT-ing a stuck binary; we scale down to virtual time).
    timeout_us: float = 5_000_000.0

    @property
    def cycles_per_us(self) -> float:
        return self.ghz * 1_000.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        if self.ghz <= 0:
            raise ConfigError("ghz must be positive")
        if self.timeout_us <= 0:
            raise ConfigError("timeout_us must be positive")


@dataclass(frozen=True)
class OutlierConfig:
    """Thresholds of the outlier detector (Section IV-B)."""

    alpha: float = 0.2
    beta: float = 1.5
    min_time_us: float = 1000.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.beta <= 1.0:
            raise ConfigError("beta must be > 1 (Eq. 2 compares to midpoint)")
        if self.min_time_us < 0:
            raise ConfigError("min_time_us must be >= 0")


@dataclass(frozen=True)
class TriageConfig:
    """Knobs of the outlier triage stage (:mod:`repro.reduce`).

    Reduction is deterministic for a fixed configuration: the passes
    enumerate candidates in a fixed order and the first accepted
    candidate wins, so the only tunables are which pass families run
    and how much work one case may consume.
    """

    #: full pipeline sweeps before reduction settles (each round runs
    #: every enabled pass to its greedy fixpoint)
    max_rounds: int = 8
    #: hard ceiling on oracle evaluations per case — each evaluation is
    #: one conformance + race check plus, if those pass, one full
    #: differential re-run across the campaign's backends
    max_candidates: int = 4000
    #: also shrink the failing input vector toward canonical values
    shrink_inputs: bool = True
    #: run the clause-stripping pass (schedule/collapse/reduction/
    #: private/firstprivate removal)
    strip_clauses: bool = True
    #: run the loop-bound shrinking pass
    shrink_loop_bounds: bool = True
    #: run the expression-simplification pass
    simplify_expressions: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1")


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the fleet supervisor daemon (:mod:`repro.fleet.supervisor`).

    Deliberately *not* part of :class:`CampaignConfig`: none of these
    change a verdict, so they stay outside campaign identity — the same
    campaign can be supervised with different restart budgets on
    different hosts.
    """

    #: coordinator restarts before the supervisor gives up (and, if
    #: ``degrade`` is set, finishes the grid inline instead)
    max_restarts: int = 5
    #: base of the exponential restart backoff
    restart_backoff_s: float = 0.5
    #: backoff ceiling
    max_restart_backoff_s: float = 30.0
    #: completion-pump poll interval
    poll_s: float = 0.05
    #: how often the status snapshot is refreshed (seconds)
    status_every_s: float = 1.0
    #: base/ceiling of the buffered store-write retry backoff
    store_retry_backoff_s: float = 0.25
    store_retry_max_backoff_s: float = 30.0
    #: when the restart budget is spent, finish the remaining grid
    #: in-process (with a loud warning) instead of raising
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.restart_backoff_s < 0:
            raise ConfigError("restart_backoff_s must be >= 0")
        if self.max_restart_backoff_s < self.restart_backoff_s:
            raise ConfigError(
                "max_restart_backoff_s must be >= restart_backoff_s")
        if self.poll_s <= 0:
            raise ConfigError("poll_s must be positive")
        if self.status_every_s <= 0:
            raise ConfigError("status_every_s must be positive")
        if self.store_retry_backoff_s < 0:
            raise ConfigError("store_retry_backoff_s must be >= 0")
        if self.store_retry_max_backoff_s < self.store_retry_backoff_s:
            raise ConfigError(
                "store_retry_max_backoff_s must be >= store_retry_backoff_s")


@dataclass(frozen=True)
class CampaignConfig:
    """Full Figure-1 pipeline configuration."""

    n_programs: int = 200
    inputs_per_program: int = 3
    seed: int = 20240915
    opt_level: str = "-O3"
    compilers: tuple[str, ...] = ("gcc", "clang", "intel")
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    machine: MachineConfig = field(default_factory=MachineConfig)
    outliers: OutlierConfig = field(default_factory=OutlierConfig)
    triage: TriageConfig = field(default_factory=TriageConfig)
    # Execution engine for the campaign grid: "serial", "process" (see
    # repro.driver.engine), or "fleet" (lease-queue worker processes,
    # see repro.fleet); jobs = worker count for the process/fleet
    # engines (None = one per CPU).
    engine: str = "serial"
    jobs: int | None = None
    #: Work units dispatched per process-engine submission.  Each unit is
    #: one program with its input batch; batching ``chunk_size`` of them
    #: amortizes future bookkeeping, pickling, and progress accounting
    #: over the chunk.  ``None`` sizes chunks automatically from the grid
    #: and worker count (about four chunks per worker, capped at 16);
    #: the serial engine ignores chunking.  Verdicts are byte-identical
    #: for every chunk size — units are pure functions of their indices.
    chunk_size: int | None = None
    #: Kernel execution backend for the simulator hot loop: "auto",
    #: "c", or "interp" (see repro.sim.backend).  ``None`` leaves
    #: the process default (``REPRO_KERNEL_BACKEND`` or "auto") in
    #: charge.  Verdicts are byte-identical across backends — this is a
    #: speed knob, not a semantics knob — so it is excluded from the
    #: fleet store's campaign identity like the other execution knobs.
    kernel_backend: str | None = None
    # Where to save generated tests (None = keep in memory only).
    output_dir: str | None = None
    # Named directive mix applied to the generator's feature flags
    # ("paper", "worksharing", "sync", "reductions", "tasks", "full");
    # None keeps
    # the generator config exactly as given.  Applied at construction, so
    # every consumer of ``config.generator`` sees the mixed flags.
    directive_mix: str | None = None
    #: Program source planning the campaign grid (see
    #: :mod:`repro.corpus`): "random" (default, the paper's stream),
    #: "mutation", or "adaptive".  Identity-bearing — two campaigns with
    #: different sources run different programs, so this participates in
    #: the fleet store's campaign key (unlike the execution knobs).
    program_source: str = "random"
    #: Random-stream indices whose programs seed ``MutationSource``
    #: parents — typically the ``program_index`` values of a previous
    #: campaign's reduced reproducers (``repro-omp reduce`` output; see
    #: :func:`repro.corpus.corpus_from_triage`).  Empty = mutate the
    #: random stream itself.  Identity-bearing.
    mutation_corpus: tuple[int, ...] = ()

    #: Fields that name *what grid is run*.  They participate in the
    #: fleet store's campaign identity: change one and you have a
    #: different campaign.  Together with :attr:`EXECUTION_FIELDS` this
    #: must cover every field — ``campaign_key`` refuses unclassified
    #: fields, so adding a config knob forces an explicit decision here
    #: (``kernel_backend`` was nearly mis-keyed under the old
    #: hand-maintained strip list).
    IDENTITY_FIELDS: ClassVar[frozenset[str]] = frozenset({
        "n_programs", "inputs_per_program", "seed", "opt_level",
        "compilers", "generator", "machine", "outliers", "triage",
        "directive_mix", "program_source", "mutation_corpus",
    })
    #: Fields that only say *how or where* the grid runs.  Verdicts are
    #: byte-identical across their values, so campaign identity replaces
    #: them with their dataclass defaults before hashing.
    EXECUTION_FIELDS: ClassVar[frozenset[str]] = frozenset({
        "engine", "jobs", "chunk_size", "kernel_backend", "output_dir",
    })

    def __post_init__(self) -> None:
        if self.directive_mix is not None:
            # frozen dataclass: resolve the mix in place so engines,
            # sessions, and checkpoints all see the effective generator
            object.__setattr__(self, "generator",
                               apply_directive_mix(self.generator,
                                                   self.directive_mix))
        if self.n_programs < 1:
            raise ConfigError("n_programs must be >= 1")
        if self.inputs_per_program < 1:
            raise ConfigError("inputs_per_program must be >= 1")
        if len(self.compilers) < 2:
            raise ConfigError("differential testing needs >= 2 compilers")
        if len(set(self.compilers)) != len(self.compilers):
            raise ConfigError("duplicate compiler names")
        if self.opt_level not in ("-O0", "-O1", "-O2", "-O3"):
            raise ConfigError(f"unsupported opt level {self.opt_level!r}")
        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; "
                f"choose from {', '.join(ENGINE_NAMES)}")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be >= 1 (or None for auto)")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1 (or None for auto)")
        if self.kernel_backend is not None:
            from .sim.backend import BACKENDS
            if self.kernel_backend not in BACKENDS:
                raise ConfigError(
                    f"unknown kernel backend {self.kernel_backend!r}; "
                    f"choose from {', '.join(BACKENDS)}")
        if self.program_source not in PROGRAM_SOURCES:
            raise ConfigError(
                f"unknown program_source {self.program_source!r}; "
                f"choose from {', '.join(PROGRAM_SOURCES)}")
        if any(not isinstance(i, int) or i < 0 for i in self.mutation_corpus):
            raise ConfigError(
                "mutation_corpus must be non-negative program indices")

    @property
    def total_runs(self) -> int:
        return self.n_programs * self.inputs_per_program * len(self.compilers)


# ----------------------------------------------------------------------
# (de)serialization — the "config file" of Fig. 1 step (a)
# ----------------------------------------------------------------------

#: CampaignConfig fields added after the serialization format was
#: pinned.  At their defaults they are omitted from serialized forms so
#: that pre-existing configs keep byte-identical JSON documents,
#: checkpoint headers, and store campaign-key hashes; they only appear
#: (and only perturb hashes) once actually used.
_OMIT_WHEN_DEFAULT: tuple[tuple[str, Any], ...] = (
    ("program_source", "random"),
    ("mutation_corpus", ()),
)


def _to_dict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: _to_dict(getattr(obj, f.name))
               for f in dataclasses.fields(obj)}
        if isinstance(obj, CampaignConfig):
            for name, default in _OMIT_WHEN_DEFAULT:
                if getattr(obj, name) == default:
                    del out[name]
        return out
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def campaign_to_json(cfg: CampaignConfig) -> str:
    """Serialize a campaign configuration to a JSON document."""
    return json.dumps(_to_dict(cfg), indent=2, sort_keys=True)


def campaign_from_dict(data: dict[str, Any]) -> CampaignConfig:
    """Build a :class:`CampaignConfig` from a plain dict (parsed JSON)."""
    try:
        gen = GeneratorConfig(**data.get("generator", {}))
        mach = MachineConfig(**data.get("machine", {}))
        out = OutlierConfig(**data.get("outliers", {}))
        tri = TriageConfig(**data.get("triage", {}))
        top = {k: v for k, v in data.items()
               if k not in ("generator", "machine", "outliers", "triage")}
        if "compilers" in top:
            top["compilers"] = tuple(top["compilers"])
        if "mutation_corpus" in top:
            top["mutation_corpus"] = tuple(top["mutation_corpus"])
        return CampaignConfig(generator=gen, machine=mach, outliers=out,
                              triage=tri, **top)
    except TypeError as exc:  # unknown key
        raise ConfigError(f"bad campaign config: {exc}") from exc


def load_campaign(path: str | Path) -> CampaignConfig:
    """Load a campaign configuration from a JSON file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return campaign_from_dict(data)


def save_campaign(cfg: CampaignConfig, path: str | Path) -> None:
    """Write a campaign configuration to a JSON file."""
    Path(path).write_text(campaign_to_json(cfg))
