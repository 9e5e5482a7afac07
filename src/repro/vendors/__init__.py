"""Simulated OpenMP implementations (compiler + runtime + fault models)."""

from .base import (
    CompilerTraits,
    FaultModel,
    OpCosts,
    ProfileSymbols,
    RuntimeParams,
    VendorModel,
)
from .binary import Binary
from .clang import CLANG
from .gcc import GCC
from .intel import INTEL
from .toolchain import compile_binary

__all__ = [
    "Binary",
    "CLANG",
    "CompilerTraits",
    "FaultModel",
    "GCC",
    "INTEL",
    "OpCosts",
    "ProfileSymbols",
    "RuntimeParams",
    "VendorModel",
    "compile_binary",
]
