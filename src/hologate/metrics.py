"""Quantitative verification of realized transfers against target unitaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmt import TransferResult
from .errors import DimensionMismatch
from .modes import ModeSet, PlaneWaveMode, Role

#: Default pass/fail threshold on process fidelity.
DEFAULT_FIDELITY_THRESHOLD = 1.0 - 1e-6


@dataclass(frozen=True)
class FidelityReport:
    fidelity: float
    global_phase: float
    max_elementwise_error: float
    passed: bool
    threshold: float


def process_fidelity(
    target: np.ndarray,
    realized: np.ndarray,
    threshold: float = DEFAULT_FIDELITY_THRESHOLD,
) -> FidelityReport:
    """Global-phase-invariant similarity |trace(U^dag V)| / N.

    Equals 1 exactly when V = exp(i phi) U; the reported
    `max_elementwise_error` is measured after removing that phase.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"fidelity threshold must lie in [0, 1], got {threshold}")
    target = np.asarray(target, dtype=complex)
    realized = np.asarray(realized, dtype=complex)
    if target.shape != realized.shape or target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise DimensionMismatch(
            f"matrices must be square and equal-sized, got {target.shape} and {realized.shape}"
        )
    if not (np.isfinite(target).all() and np.isfinite(realized).all()):
        raise ValueError("target and realized matrices must be finite")
    n = target.shape[0]
    overlap = complex(np.trace(target.conj().T @ realized))
    fidelity = abs(overlap) / n
    phase = float(np.angle(overlap)) if abs(overlap) > 0.0 else 0.0
    max_err = float(np.abs(realized * np.exp(-1j * phase) - target).max())
    return FidelityReport(
        fidelity=float(fidelity),
        global_phase=phase,
        max_elementwise_error=max_err,
        passed=bool(fidelity >= threshold),
        threshold=float(threshold),
    )


def diffraction_efficiency(
    result: TransferResult,
    input_mode: PlaneWaveMode,
    output_mode: PlaneWaveMode,
) -> float:
    """Power fraction landing in `output_mode` for unit input in `input_mode`."""
    row = result.position(output_mode)
    col = result.position(input_mode)
    return float(abs(result.transfer[row, col]) ** 2)


def realized_unitary(
    result: TransferResult,
    modes: ModeSet,
    output_space: Role,
) -> np.ndarray:
    """N x N block mapping signal inputs to the chosen output cone.

    Reference for a bare multiplexed element; Signal for a stack that
    ends in a redirection pass.
    """
    if result.modes != modes.universe:
        raise DimensionMismatch("result universe does not match the given mode set")
    n = modes.dimension
    rows = slice(0, n) if output_space is Role.SIGNAL else slice(n, 2 * n)
    return result.transfer[rows, 0:n].copy()
