"""AC power-flow track: grid model, Newton-Raphson solver, Kirchhoff
mismatch potential, scenario datasets, and mismatch metrics."""

from .data import (
    PowerFlowDataset,
    Split,
    generate_dataset,
    injections_from_features,
    load_dataset,
    save_dataset,
)
from .grid import BUNDLED_CASES, Branch, Bus, Generator, GridCase, load_case, parse_case, validate_case
from .metrics import MetricsReport, evaluate, peak_mismatches
from .solver import (
    Injections,
    KirchhoffPotential,
    NewtonResult,
    PowerFlowState,
    flat_start,
    grid_residual,
    grid_residual_grad,
    load_injections,
    mismatch,
    newton_raphson,
    nominal_injections,
    pack_state,
    power_jacobian,
    unpack_state,
)
from .ybus import YBus, build_ybus

__all__ = [
    "BUNDLED_CASES",
    "Branch",
    "Bus",
    "Generator",
    "GridCase",
    "Injections",
    "KirchhoffPotential",
    "MetricsReport",
    "NewtonResult",
    "PowerFlowDataset",
    "PowerFlowState",
    "Split",
    "YBus",
    "build_ybus",
    "evaluate",
    "flat_start",
    "generate_dataset",
    "grid_residual",
    "grid_residual_grad",
    "injections_from_features",
    "load_case",
    "load_dataset",
    "load_injections",
    "mismatch",
    "newton_raphson",
    "nominal_injections",
    "pack_state",
    "parse_case",
    "peak_mismatches",
    "power_jacobian",
    "save_dataset",
    "unpack_state",
    "validate_case",
]
