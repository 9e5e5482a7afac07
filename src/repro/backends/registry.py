"""Backend protocol and registry: one contract for every OpenMP toolchain.

Fig. 1 step (b) says "compile with every OpenMP implementation".  The
simulated vendors (:func:`~repro.vendors.toolchain.compile_binary` +
:func:`~repro.driver.execution.run_binary`) and the native GCC toolchain
(``backends.gcc_native``'s ``compile_native``/``run_native``) speak
different dialects; this module unifies them behind a single
:class:`Backend` contract:

    ``compile(program, opt_level) -> Executable``
    ``execute(executable, test_input, machine=None) -> RunRecord``

and a process-wide registry (:func:`register_backend` /
:func:`get_backend` / :func:`available_backends`), the one map from
implementation *names* to implementations: engines, case studies, the
reducer and the CLI all resolve compiler names against it.  The three
simulated vendors of the paper's evaluation and the native g++ backend
are pre-registered at import time; users plug in additional
implementations::

    from repro.backends import register_backend

    register_backend(MyBackend())          # name taken from backend.name
    cfg = CampaignConfig(compilers=("gcc", "clang", "my-backend"))

Because campaign work units are described by *names* (not live objects),
registered backends are resolved independently inside every worker of a
:class:`~repro.driver.engine.ProcessPoolEngine` — backends registered at
module import time are therefore visible to all engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from ..config import MachineConfig
from ..core.inputs import TestInput
from ..core.nodes import Program
from ..driver.records import RunRecord
from ..errors import ConfigError, UnknownBackendError
from ..vendors.base import VendorModel
from ..vendors.clang import CLANG
from ..vendors.gcc import GCC
from ..vendors.intel import INTEL
from . import gcc_native

#: opaque executable artifact; a Binary for simulated backends, a
#: NativeBinary for the native toolchain — engines never look inside
Executable = Any


@runtime_checkable
class Backend(Protocol):
    """One OpenMP implementation the campaign can differential-test.

    Implementations must be cheap to construct and stateless across
    tests: ``compile`` may be called once per program and its result
    reused for every input (batched compilation), and ``execute`` must
    not mutate the executable.
    """

    name: str

    def is_available(self) -> bool:
        """Can this backend run on the current host?"""
        ...

    def compile(self, program: Program, opt_level: str = "-O3") -> Executable:
        """Produce an executable artifact for ``program``."""
        ...

    def execute(self, executable: Executable, test_input: TestInput,
                machine: MachineConfig | None = None, *,
                collect_profile: bool = False) -> RunRecord:
        """Run one executable with one input; outcomes are RunRecords,
        never exceptions."""
        ...


@dataclass(frozen=True)
class SimulatedBackend:
    """A simulated vendor (compiler + runtime + fault model) as a Backend."""

    vendor: VendorModel

    @property
    def name(self) -> str:
        return self.vendor.name

    def is_available(self) -> bool:
        return True  # pure Python, always runnable

    def compile(self, program: Program, opt_level: str = "-O3") -> Executable:
        from ..vendors.toolchain import compile_binary

        return compile_binary(program, self.vendor, opt_level)

    def execute(self, executable: Executable, test_input: TestInput,
                machine: MachineConfig | None = None, *,
                collect_profile: bool = False) -> RunRecord:
        from ..driver.execution import run_binary

        return run_binary(executable, test_input, machine,
                          collect_profile=collect_profile)


@dataclass(frozen=True)
class NativeGccBackend:
    """The host ``g++ -fopenmp`` toolchain as a Backend.

    ``num_threads`` rewrites each program's team size before compiling
    (the paper's 32 threads oversubscribe small CI hosts);
    ``fp_contract`` pins ``-ffp-contract`` for cross-checks against the
    simulated backends.  Native timings are real wall-clock microseconds,
    so mixing this backend with simulated vendors in one campaign yields
    meaningful *correctness* differentials but apples-to-oranges
    performance comparisons.
    """

    name: str = "gcc-native"
    num_threads: int | None = 4
    fp_contract: str | None = None
    timeout_s: float = 60.0

    def is_available(self) -> bool:
        return gcc_native.available()

    def compile(self, program: Program, opt_level: str = "-O3") -> Executable:
        return gcc_native.compile_native(
            program, opt_level=opt_level, fp_contract=self.fp_contract,
            num_threads_override=self.num_threads)

    def execute(self, executable: Executable, test_input: TestInput,
                machine: MachineConfig | None = None, *,
                collect_profile: bool = False) -> RunRecord:
        """Run the native binary.  ``machine`` (a simulated-host model)
        and ``collect_profile`` (simulator-only symbol profiles) do not
        apply to real executions and are accepted but ignored; native
        records always carry ``profile=None``."""
        return gcc_native.run_native(executable, test_input,
                                     timeout_s=self.timeout_s)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register ``backend`` under ``backend.name``; returns it for chaining.

    Re-registering an existing name raises unless ``replace=True`` —
    silently shadowing an implementation mid-campaign would make verdicts
    unreproducible.
    """
    name = backend.name
    if not name or not isinstance(name, str):
        raise ConfigError(f"backend has no usable name: {backend!r}")
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"backend {name!r} is already registered "
            f"(pass replace=True to override)")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (no-op for unknown names)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Backend:
    """Look up a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}") from None


def registered_backends() -> tuple[str, ...]:
    """Names of every registered backend, available on this host or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends runnable on this host."""
    return tuple(sorted(n for n, b in _REGISTRY.items() if b.is_available()))


# the paper's three simulated implementations + the native toolchain
for _vendor in (GCC, CLANG, INTEL):
    register_backend(SimulatedBackend(_vendor))
register_backend(NativeGccBackend())
del _vendor
