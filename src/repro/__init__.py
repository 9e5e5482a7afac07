"""repro — randomized differential testing of OpenMP implementations.

A faithful, laptop-scale reproduction of *"Testing the Unknown: A Framework
for OpenMP Testing via Random Program Generation"* (SC 2024): a Varity-style
random generator of OpenMP C++ test programs, floating-point input
generation, a differential execution pipeline over multiple (simulated or
native) OpenMP implementations, and slow/fast/correctness outlier detection.

Quickstart — one differential test::

    from repro import quick_differential_test

    result = quick_differential_test(seed=42)
    print(result.table())

Quickstart — a campaign through the session API::

    from repro import CampaignConfig, CampaignSession

    cfg = CampaignConfig(n_programs=20, inputs_per_program=3)
    session = CampaignSession(cfg, engine="process", jobs=4)

    for verdict in session.stream():        # verdicts as they complete
        if verdict.outliers:
            print(*verdict.outliers, sep="\\n")

    session.checkpoint("campaign.jsonl")    # ... interrupt any time ...
    session = CampaignSession.resume("campaign.jsonl")
    result = session.run()                  # finishes the remaining grid
    print(result.table.total_outlier_tests(), "outlier tests")

The pipeline is organized in three pluggable layers:

* **backends** (:mod:`repro.backends.registry`) — every OpenMP
  implementation behind one ``compile``/``execute`` contract; register
  your own with :func:`~repro.backends.registry.register_backend`;
* **engines** (:mod:`repro.driver.engine`) — serial, process-pool, or
  fleet scheduling of the campaign grid;
* **sessions** (:mod:`repro.harness.session`) — streaming, resumable
  campaign state on top of both.
"""

from .config import (
    DIRECTIVE_MIXES,
    CampaignConfig,
    GeneratorConfig,
    MachineConfig,
    OutlierConfig,
    TriageConfig,
    apply_directive_mix,
    load_campaign,
    save_campaign,
)
from .core import (
    FPCategory,
    FPType,
    InputGenerator,
    Program,
    ProgramGenerator,
    TestInput,
    check_conformance,
    extract_features,
    find_races,
    is_race_free,
)
from .errors import (
    AnalysisError,
    BackendUnavailable,
    CompilationError,
    ConfigError,
    ExecutionError,
    GenerationError,
    GrammarError,
    ReproError,
    UnknownBackendError,
)

__version__ = "1.1.0"

__all__ = [
    "AnalysisError",
    "BackendUnavailable",
    "CampaignConfig",
    "DIRECTIVE_MIXES",
    "CampaignSession",
    "CompilationError",
    "ConfigError",
    "ExecutionError",
    "FPCategory",
    "FPType",
    "GenerationError",
    "GeneratorConfig",
    "apply_directive_mix",
    "GrammarError",
    "InputGenerator",
    "MachineConfig",
    "OutlierConfig",
    "Program",
    "ProgramGenerator",
    "ReproError",
    "TestInput",
    "TriageConfig",
    "UnknownBackendError",
    "reduce_case",
    "available_backends",
    "check_conformance",
    "create_engine",
    "extract_features",
    "find_races",
    "get_backend",
    "is_race_free",
    "load_campaign",
    "register_backend",
    "save_campaign",
    "quick_differential_test",
    "__version__",
]


def __getattr__(name: str):
    """Lazy re-exports of the session/backend/engine layer.

    Importing them eagerly would pull the whole harness (and the
    backends registry) into every ``import repro``; resolving on first
    access keeps ``import repro`` light for generator-only users.
    """
    if name == "CampaignSession":
        from .harness.session import CampaignSession

        return CampaignSession
    if name in ("register_backend", "get_backend", "available_backends"):
        from . import backends

        return getattr(backends, name)
    if name == "create_engine":
        from .driver.engine import create_engine

        return create_engine
    if name == "reduce_case":
        from .reduce import reduce_case

        return reduce_case
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quick_differential_test(seed: int = 42, program_index: int = 0):
    """Generate one program + input and run it through all three simulated
    OpenMP implementations; returns the differential comparison.

    Convenience entry point used by the quickstart example and docs.
    """
    from .harness.campaign import differential_test_single

    return differential_test_single(seed=seed, program_index=program_index)
