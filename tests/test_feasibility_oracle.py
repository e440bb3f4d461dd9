"""feasibility_report's one-array scan against the per-component loop it replaced.

`loop_report` keeps the former `feasibility_report` verbatim: one
`np.linalg.norm` per (partner, component) pair.  `feasibility_report`
takes every difference as one array and recomputes that exact norm only
on the rows near the smallest approximate norm; every report field must
be equal, and `q_ratio` bit for bit.
"""

import math
import sys

import numpy as np
import pytest

from hologate.circuit import CNOT_MATRIX
from hologate.compiler import (
    VOLUME_REGIME_Q,
    Exposure,
    FeasibilityReport,
    GratingStack,
    Hologram,
    MaterialSpec,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
    feasibility_report,
)
from hologate.modes import TWO_PI, ConeGeometry, make_cone_basis, wave_vector

from conftest import geometry, haar_unitary


def loop_report(stack, material):
    """The former feasibility_report."""
    geometry = stack.mode_set.geometry
    recordings = sum(len(h.exposures) for h in stack.holograms)
    required = recordings * material.meters_per_recording
    per_dimension = geometry.dimension * material.meters_per_recording

    smallest_k = math.inf
    modulation_ok = True
    for hologram in stack.holograms:
        for exposure in hologram.exposures:
            if exposure.index_modulation > material.max_index_modulation:
                modulation_ok = False
            partner_k = wave_vector(exposure.partner)
            for mode in exposure.coefficients:
                smallest_k = min(smallest_k, float(np.linalg.norm(wave_vector(mode) - partner_k)))
    if math.isfinite(smallest_k) and smallest_k > 0.0 and required > 0.0:
        period = TWO_PI / smallest_k
        q_ratio = required * geometry.wavelength / period**2
    else:
        q_ratio = 0.0

    # First-null input tilt of a grating occupying the full required depth,
    # driven at half transfer (coupling angle pi/2): sqrt(3)*pi / (d k sin(theta_s)).
    if required > 0.0:
        selectivity = math.sqrt(3.0) * math.pi / (
            required * geometry.wavenumber * math.sin(geometry.signal_half_angle)
        )
    else:
        selectivity = math.inf
    selectivity_ok = selectivity < geometry.azimuthal_spacing

    return FeasibilityReport(
        recordings=recordings,
        dimension=geometry.dimension,
        required_thickness=required,
        per_dimension_thickness=per_dimension,
        q_ratio=q_ratio,
        volume_regime=q_ratio >= VOLUME_REGIME_Q,
        angular_selectivity=selectivity,
        selectivity_ok=selectivity_ok,
        dimension_ok=required <= material.max_total_thickness,
        modulation_ok=modulation_ok,
        max_dimension=int(material.max_total_thickness // (2.0 * material.meters_per_recording)),
    )


MATERIALS = [
    MaterialSpec(max_total_thickness=2.5e-2, max_index_modulation=1e-3),
    # Below the default modulation and the multiplex depth: both budgets fail.
    MaterialSpec(max_total_thickness=3e-3, max_index_modulation=5e-5,
                 meters_per_recording=2e-4),
]


def assert_same(stack):
    for material in MATERIALS:
        report, reference = feasibility_report(stack, material), loop_report(stack, material)
        assert report == reference
        assert report.q_ratio.hex() == reference.q_ratio.hex()


def multiplex_stack(unitary, modes):
    return GratingStack(
        holograms=(compile_multiplex(unitary, modes), compile_redirection(modes)),
        mode_set=modes,
    )


def signed_permutation(n, rng):
    matrix = np.zeros((n, n), dtype=complex)
    matrix[rng.permutation(n), np.arange(n)] = rng.choice([1, -1, 1j, -1j], size=n)
    return matrix


@pytest.mark.parametrize("n", [2, 8, 16, 64])
def test_haar_multiplex(n):
    rng = np.random.default_rng(1500 + n)
    modes = make_cone_basis(geometry(n))
    for _ in range(3):
        unitary = haar_unitary(n, rng)
        assert_same(multiplex_stack(unitary, modes))
        assert_same(GratingStack((compile_multiplex(unitary, modes),), modes))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_redirection(n):
    modes = make_cone_basis(geometry(n))
    assert_same(GratingStack((compile_redirection(modes),), modes))


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_signed_permutation_stacks(n):
    rng = np.random.default_rng(1600 + n)
    modes = make_cone_basis(geometry(n))
    for _ in range(4):
        assert_same(compile_signed_permutation_stack(signed_permutation(n, rng), modes))


def test_cnot():
    modes = make_cone_basis(geometry(4))
    assert_same(compile_signed_permutation_stack(CNOT_MATRIX, modes))


def test_azimuth_offsets():
    modes = make_cone_basis(ConeGeometry(
        dimension=8, signal_half_angle=0.08, reference_half_angle=0.16,
        wavelength=6.33e-7, aperture_breadth=5e-3,
        signal_azimuth_offset=0.3, reference_azimuth_offset=2.0,
    ))
    rng = np.random.default_rng(1700)
    assert_same(multiplex_stack(haar_unitary(8, rng), modes))
    assert_same(compile_signed_permutation_stack(signed_permutation(8, rng), modes))


def test_empty_plan():
    stack = compile_signed_permutation_stack(np.eye(4), make_cone_basis(geometry(4)))
    assert stack.holograms == ()
    assert_same(stack)
    report = feasibility_report(stack, MATERIALS[0])
    assert report.q_ratio == 0.0 and report.angular_selectivity == math.inf


# Two hand-built difference rows each, whose exact norms (np.linalg.norm)
# differ by one ulp.  On numpy with OpenBLAS, one row einsum-summed norm
# lands one ulp off its exact norm:
# - REVERSED: the row with the larger exact norm has the smaller summed
#   norm, so taking the exact norm of the summed argmin alone is wrong;
# - BELOW: the summed norm of the exact minimum is one ulp below it, so
#   returning the smallest summed norm without the recompute is wrong.
REVERSED = [
    ("0x1.bc8a8ba149e8ep+13", "0x1.684e38dec57c9p+12", "-0x1.2495c58be4312p+18"),
    ("0x1.b15346c200e6ap+15", "0x1.42ff8182dbd9dp+14", "-0x1.1f359b364cb71p+18"),
]
BELOW = [
    ("0x1.b15346c200e6ap+15", "0x1.42ff8182dbd9dp+14", "-0x1.1f359b364cb71p+18"),
    ("0x1.294cc873298d5p+17", "-0x1.ca3db7c5a2386p+15", "-0x1.ebbe4735cc01ep+17"),
]


@pytest.mark.parametrize("rows", [REVERSED, BELOW], ids=["reversed", "below"])
def test_one_ulp_near_tie(monkeypatch, rows):
    """Two exposures S1 -> R1 and S2 -> R2 whose wave vectors are set by hand."""
    modes = make_cone_basis(geometry(2))
    s1, s2 = modes.signals
    r1, r2 = modes.references
    vectors = {
        s1: np.array([float.fromhex(v) for v in rows[0]]),
        s2: np.array([float.fromhex(v) for v in rows[1]]),
        r1: np.zeros(3),
        r2: np.zeros(3),
    }
    exact = [float(np.linalg.norm(vectors[m])) for m in (s1, s2)]
    assert exact[1] == np.nextafter(exact[0], math.inf)

    def fake_wave_vector(mode):
        return vectors[mode].copy()

    monkeypatch.setitem(vars(modes), "wave_vectors", np.array([vectors[m] for m in modes.universe]))
    monkeypatch.setattr(sys.modules[__name__], "wave_vector", fake_wave_vector)
    hologram = Hologram((
        Exposure(partner=r1, coefficients={s1: 1.0 + 0.0j}),
        Exposure(partner=r2, coefficients={s2: 1.0 + 0.0j}),
    ))
    stack = GratingStack((hologram,), modes)
    assert_same(stack)
    # The smallest |k| is the exact norm of the first row: q = d*lambda*(k/2pi)**2.
    material = MATERIALS[0]
    required = 2 * material.meters_per_recording
    period = TWO_PI / exact[0]
    expected = required * modes.geometry.wavelength / period**2
    assert feasibility_report(stack, material).q_ratio.hex() == expected.hex()
