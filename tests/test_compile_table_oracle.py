"""The compilers' fringe tables against the Exposure-building compilers they replaced.

`reference_multiplex`, `reference_redirection` and
`reference_signed_permutation_stack` keep the former compilers: each
builds one `Exposure` per row, keyed by mode.  `reference_table` keeps the
former `_fringe_table` and its four-argument table, which numbered modes
partners first.  The table's `modes` now run in first use, components
before partner, so fringes are compared in universe positions; every
array is compared byte for byte, and so is the plan each stack writes.
"""

import json
import math
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

from hologate.compiler import (
    DEFAULT_INDEX_MODULATION,
    Exposure,
    GratingStack,
    Hologram,
    _COEFF_NORM_TOL,
    _NEGLIGIBLE_COEFF,
    _norm_squared,
    _signed_permutation_entries,
    as_unitary,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.errors import NotUnitary
from hologate.formats import plan_to_dict
from hologate.modes import make_cone_basis

from conftest import geometry, haar_unitary


def reference_multiplex(unitary, modes, index_modulation):
    """The former `compile_multiplex`, up to its exposures."""
    n = modes.dimension
    unitary = as_unitary(unitary, n)
    rows = [
        {
            modes.signals[j]: np.conj(unitary[i, j])
            for j in range(n)
            if abs(unitary[i, j]) > _NEGLIGIBLE_COEFF
        }
        for i in range(n)
    ]
    for i, coefficients in enumerate(rows):
        total = _norm_squared(coefficients.values())
        if not abs(total - 1.0) <= _COEFF_NORM_TOL:
            raise NotUnitary(
                f"row {i + 1} has squared norm {total}, which is not within "
                f"{_COEFF_NORM_TOL:g} of 1, so it cannot be recorded as one exposure"
            )
    return tuple(
        Exposure(partner=modes.references[i], coefficients=coefficients,
                 index_modulation=index_modulation)
        for i, coefficients in enumerate(rows)
    )


def reference_redirection(modes, index_modulation):
    """The former `compile_redirection`, up to its exposures."""
    return tuple(
        Exposure(partner=signal, coefficients={reference: 1.0 + 0.0j},
                 index_modulation=index_modulation)
        for signal, reference in zip(modes.signals, modes.references)
    )


def reference_signed_permutation_stack(unitary, modes, index_modulation):
    """The former `compile_signed_permutation_stack`, as (label, exposure) per grating."""
    entries = _signed_permutation_entries(np.asarray(unitary, dtype=complex), modes.dimension)
    gratings, returns = [], []
    for row, col, entry in entries:
        if row == col and abs(entry - 1.0) <= 1e-12:
            continue
        gratings.append((f"forward S{col + 1}->R{row + 1}", Exposure(
            partner=modes.references[row], coefficients={modes.signals[col]: np.conj(entry)},
            index_modulation=index_modulation, phase=0.0)))
        returns.append(row)
    for row in sorted(returns):
        gratings.append((f"return R{row + 1}->S{row + 1}", Exposure(
            partner=modes.signals[row], coefficients={modes.references[row]: 1.0},
            index_modulation=index_modulation, phase=math.pi)))
    return gratings


def reference_table(exposures):
    """The former `_fringe_table` and four-argument `_FringeTable`."""
    columns = {}
    rows = [(columns.setdefault(e.partner, len(columns)), len(e.coefficients),
             e.index_modulation, e.phase) for e in exposures]
    components = [columns.setdefault(m, len(columns)) for e in exposures for m in e.coefficients]
    values = [c for e in exposures for c in e.coefficients.values()]
    partners, counts, delta_n, phase = zip(*rows)
    row = np.repeat(np.arange(len(counts)), counts)
    return SimpleNamespace(
        modes=tuple(columns), row=row, bounds=tuple(accumulate(counts, initial=0)),
        component=np.asarray(components, dtype=np.intp),
        partner=np.asarray(partners, dtype=np.intp)[row],
        coefficient=np.array(values, dtype=complex),
        weight=np.array([abs(c) for c in values], dtype=float),
        delta_n=np.array(delta_n, dtype=float), phase=np.array(phase, dtype=float),
    )


def assert_same_table(hologram, exposures, modes):
    table, reference = hologram._fringes, reference_table(exposures)

    def positions(t, index):
        return [modes.position(t.modes[k]) for k in index.tolist()]

    assert positions(table, table.component) == positions(reference, reference.component)
    assert positions(table, table.partner) == positions(reference, reference.partner)
    assert sorted(map(modes.position, table.modes)) == sorted(map(modes.position, reference.modes))
    for name in ("coefficient", "weight", "delta_n", "phase", "row"):
        ours, theirs = getattr(table, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    assert table.bounds == reference.bounds
    assert hologram.exposures == tuple(exposures)


def assert_same_plan(stack, reference_holograms, modes):
    reference = GratingStack(tuple(reference_holograms), modes)
    # json.dumps keeps the sign of -0.0, which == on the dicts would not.
    assert json.dumps(plan_to_dict(stack)) == json.dumps(plan_to_dict(reference))


def sparse_unitary(n, rng):
    """Two Haar blocks with exact zeros, entries below 1e-14 and one just above it."""
    h = n // 2
    unitary = np.zeros((n, n), dtype=complex)
    unitary[:h, :h], unitary[h:, h:] = haar_unitary(h, rng), haar_unitary(n - h, rng)
    unitary[0, n - 1], unitary[n - 1, 0], unitary[h, 0] = 3e-15, -9.9e-15j, 2e-14 - 1e-15j
    unitary[1, h] = 1e-14  # at the threshold: not recorded
    return unitary


SIZES = [2, 3, 4, 5, 8, 13, 16, 32, 64]


@pytest.mark.parametrize("index_modulation", [DEFAULT_INDEX_MODULATION, 3.7e-4])
@pytest.mark.parametrize("n, kind", [(n, "haar") for n in SIZES]
                         + [(n, "sparse") for n in SIZES if n >= 4])
def test_multiplex_and_redirection(n, kind, index_modulation):
    modes = make_cone_basis(geometry(n))
    rng = np.random.default_rng(1000 + n)
    unitary = haar_unitary(n, rng) if kind == "haar" else sparse_unitary(n, rng)
    multiplex = compile_multiplex(unitary, modes, index_modulation=index_modulation)
    redirection = compile_redirection(modes, index_modulation=index_modulation)
    exposures = reference_multiplex(unitary, modes, index_modulation)
    returns = reference_redirection(modes, index_modulation)
    if kind == "sparse":
        assert len(multiplex._fringes.coefficient) < n * n
    assert_same_table(multiplex, exposures, modes)
    assert_same_table(redirection, returns, modes)
    assert_same_plan(GratingStack((multiplex, redirection), modes),
                     (Hologram(exposures, label="multiplex"),
                      Hologram(returns, label="redirection")), modes)


def test_unrecordable_row_is_named_as_before():
    modes = make_cone_basis(geometry(4))
    unitary = haar_unitary(4, np.random.default_rng(4))
    unitary[2] *= 1.0 + 4e-12  # unitary to 1e-10, but the row norm is off by 8e-12
    with pytest.raises(NotUnitary) as ours:
        compile_multiplex(unitary, modes)
    with pytest.raises(NotUnitary) as theirs:
        reference_multiplex(unitary, modes, DEFAULT_INDEX_MODULATION)
    assert str(ours.value) == str(theirs.value) and "row 3" in str(ours.value)


def signed_permutation(n, kind, rng):
    # Column 1 stays in place, so "plain" and "negative-zero" have an identity column.
    permutation = [1, 0] if n == 2 else np.concatenate([[0], 1 + rng.permutation(n - 1)])
    entries = {
        "plain": np.ones(n, dtype=complex),
        "signed": rng.choice([1.0, -1.0], n).astype(complex),
        "phased": np.exp(1j * rng.uniform(-np.pi, np.pi, n)),
        # -0.0 parts: conj(1 - 0j) is 1 + 0j, and a column of 1 - 0j on the
        # diagonal is an identity column; -0.0 + 1j and -1 - 0j are not.
        "negative-zero": np.array([complex(1.0, -0.0), complex(-0.0, 1.0),
                                   complex(-1.0, -0.0), complex(-0.0, -1.0)] * n)[:n],
    }[kind]
    unitary = np.zeros((n, n), dtype=complex)
    unitary[permutation, np.arange(n)] = entries
    return unitary


@pytest.mark.parametrize("index_modulation", [DEFAULT_INDEX_MODULATION, 2.5e-4])
@pytest.mark.parametrize("kind", ["plain", "signed", "phased", "negative-zero"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_signed_permutation_stack(n, kind, index_modulation):
    modes = make_cone_basis(geometry(n))
    unitary = signed_permutation(n, kind, np.random.default_rng(2000 + n))
    stack = compile_signed_permutation_stack(unitary, modes, index_modulation=index_modulation)
    gratings = reference_signed_permutation_stack(unitary, modes, index_modulation)
    assert [h.label for h in stack.holograms] == [label for label, _ in gratings]
    for hologram, (_, exposure) in zip(stack.holograms, gratings):
        assert_same_table(hologram, (exposure,), modes)
    assert_same_plan(stack, [Hologram((e,), label=label) for label, e in gratings], modes)

