import math

import numpy as np
import pytest

import hologate.compiler as compiler
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import simulate_stack, tune_stack
from hologate.compiler import (
    Exposure,
    GratingStack,
    Hologram,
    MaterialSpec,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
    feasibility_report,
)
from hologate.errors import (
    DimensionMismatch,
    NotSignedPermutation,
    NotUnitary,
    UnknownMode,
)
from hologate.metrics import process_fidelity
from hologate.modes import ConeGeometry, ModeSet, Role, make_cone_basis

from conftest import geometry, haar_unitary

SQRT1_2 = 1.0 / math.sqrt(2.0)


def signal_coeff_vector(exposure, modes):
    vec = np.zeros(modes.dimension, dtype=complex)
    for mode, value in exposure.coefficients.items():
        assert mode.role is Role.SIGNAL
        vec[mode.index - 1] = value
    return vec


class TestCompileMultiplex:
    def test_teleport_rows_reproduce_recordings(self, modes8):
        # The eight recorded superpositions of the canonical teleportation
        # element: (index pair, relative sign) per exposure.
        expected = [
            ((7, 1), +1.0),
            ((8, 2), +1.0),
            ((6, 4), +1.0),
            ((5, 3), +1.0),
            ((7, 1), -1.0),
            ((8, 2), -1.0),
            ((6, 4), -1.0),
            ((5, 3), -1.0),
        ]
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        assert len(hologram.exposures) == 8
        for i, (exposure, ((hi, lo), sign)) in enumerate(zip(hologram.exposures, expected)):
            assert exposure.partner == modes8.references[i]
            coeffs = {m.index: c for m, c in exposure.coefficients.items()}
            assert set(coeffs) == {hi, lo}
            assert abs(coeffs[hi] - SQRT1_2) < 1e-12
            assert abs(coeffs[lo] - sign * SQRT1_2) < 1e-12

    def test_identity_matches_redirection_with_roles_swapped(self, modes4):
        plan = compile_multiplex(np.eye(4), modes4)
        redirection = compile_redirection(modes4)
        for forward, backward in zip(plan.exposures, redirection.exposures):
            assert forward.partner.role is Role.REFERENCE
            assert backward.partner.role is Role.SIGNAL
            assert forward.partner.index == backward.partner.index
            (f_mode, f_coeff), = forward.coefficients.items()
            (b_mode, b_coeff), = backward.coefficients.items()
            assert f_mode.index == b_mode.index
            assert f_coeff == b_coeff == 1.0

    def test_complex_coefficients_are_conjugated(self, modes2):
        phase = np.exp(1j * 0.7)
        unitary = np.diag([phase, np.conj(phase)])
        hologram = compile_multiplex(unitary, modes2)
        (coeff,) = hologram.exposures[0].coefficients.values()
        assert abs(coeff - np.conj(phase)) < 1e-15

    def test_rejects_non_unitary(self, modes2):
        with pytest.raises(NotUnitary):
            compile_multiplex(np.array([[1.0, 0.0], [1.0, 0.0]]), modes2)

    def test_rejects_wrong_dimension(self, modes4):
        with pytest.raises(DimensionMismatch):
            compile_multiplex(np.eye(2), modes4)

    def test_exposures_pairwise_orthogonal_for_random_unitaries(self, modes8):
        rng = np.random.default_rng(8)
        for _ in range(10):
            hologram = compile_multiplex(haar_unitary(8, rng), modes8)
            vectors = [signal_coeff_vector(e, modes8) for e in hologram.exposures]
            gram = np.abs(np.conj(vectors) @ np.transpose(vectors))
            np.fill_diagonal(gram, 0.0)
            assert gram.max() < 1e-10


class TestCompileRedirection:
    def test_eight_exposures(self, modes8):
        hologram = compile_redirection(modes8)
        assert len(hologram.exposures) == 8
        for i, exposure in enumerate(hologram.exposures):
            assert exposure.partner == modes8.signals[i]
            assert exposure.coefficients == {modes8.references[i]: 1.0}

    def test_single_mode_set(self):
        # Degenerate single-pair redirection; ModeSet builds it directly
        # because make_cone_basis starts at dimension 2.
        geo = ConeGeometry(1, 0.08, 0.16, 6.33e-7, 5e-3)
        modes = ModeSet(geo)
        hologram = compile_redirection(modes)
        assert len(hologram.exposures) == 1

    def test_sorter_plus_redirection_is_identity(self, modes4, material):
        stack = GratingStack(
            holograms=(compile_multiplex(np.eye(4), modes4), compile_redirection(modes4)),
            mode_set=modes4,
        )
        result = simulate_stack(tune_stack(stack, material), material)
        block = result.transfer[:4, :4]
        assert process_fidelity(np.eye(4), block).fidelity > 1 - 1e-9


class TestCompileCnotStack:
    def test_grating_order_and_couplings(self, modes4):
        stack = compile_signed_permutation_stack(CNOT_MATRIX, modes4)
        couplings = []
        for hologram in stack.holograms:
            (exposure,) = hologram.exposures
            (mode,) = exposure.coefficients
            couplings.append(
                (mode.role.value, mode.index, exposure.partner.role.value,
                 exposure.partner.index)
            )
        assert couplings == [
            ("signal", 3, "reference", 4),
            ("signal", 4, "reference", 3),
            ("reference", 3, "signal", 3),
            ("reference", 4, "signal", 4),
        ]

    def test_first_grating_acts_as_single_redirector(self, modes4, material):
        stack = tune_stack(compile_signed_permutation_stack(CNOT_MATRIX, modes4), material)
        only_first = GratingStack(holograms=stack.holograms[:1], mode_set=modes4)
        transfer = simulate_stack(only_first, material).transfer
        # |S1><S1| + |S2><S2| + |R4><S3| + |S4><S4| up to the diffraction phase.
        for passive in (0, 1, 3):
            assert abs(transfer[passive, passive] - 1.0) < 1e-12
        assert abs(abs(transfer[7, 2]) - 1.0) < 1e-12  # S3 -> R4
        assert abs(transfer[2, 2]) < 1e-12

    def test_stack_realizes_cnot(self, modes4, material):
        stack = tune_stack(compile_signed_permutation_stack(CNOT_MATRIX, modes4), material)
        block = simulate_stack(stack, material).transfer[:4, :4]
        assert np.abs(block - CNOT_MATRIX).max() < 1e-9

    def test_first_two_signals_pass_undiffracted(self, modes4, material):
        stack = tune_stack(compile_signed_permutation_stack(CNOT_MATRIX, modes4), material)
        transfer = simulate_stack(stack, material).transfer
        assert abs(transfer[0, 0] - 1.0) < 1e-12
        assert abs(transfer[1, 1] - 1.0) < 1e-12

    def test_needs_dimension_four(self, modes8):
        with pytest.raises(DimensionMismatch):
            compile_signed_permutation_stack(CNOT_MATRIX, modes8)


class TestCompileSignedPermutationStack:
    def test_identity_gives_empty_stack(self, modes4):
        stack = compile_signed_permutation_stack(np.eye(4), modes4)
        assert stack.holograms == ()

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, 0.5]),              # one entry per column, one not unit-modulus
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # two columns on the same row
    ], ids=["not-unit-modulus", "shared-row"])
    def test_rejects_what_is_not_a_phased_permutation(self, matrix, modes2):
        with pytest.raises(NotSignedPermutation, match="not a signed/phased permutation"):
            compile_signed_permutation_stack(matrix, modes2)

    def test_diagonal_sign_flip(self, modes2, material):
        target = np.diag([1.0, -1.0]).astype(complex)
        stack = compile_signed_permutation_stack(target, modes2)
        assert len(stack.holograms) == 2
        (forward,) = stack.holograms[0].exposures
        assert forward.partner == modes2.references[1]
        (coeff,) = forward.coefficients.values()
        assert abs(coeff + 1.0) < 1e-12  # recorded fringe phase pi
        tuned = tune_stack(stack, material)
        block = simulate_stack(tuned, material).transfer[:2, :2]
        # Net amplitude on S2 is -1 relative to the undiffracted S1 path.
        assert abs(block[0, 0] - 1.0) < 1e-9
        assert abs(block[1, 1] + 1.0) < 1e-9

    def test_agrees_with_multiplex_route_up_to_global_phase(self, modes4, material):
        rng = np.random.default_rng(31)
        for _ in range(5):
            permutation = rng.permutation(4)
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=4))
            target = np.zeros((4, 4), dtype=complex)
            target[permutation, np.arange(4)] = phases
            stacked = tune_stack(compile_signed_permutation_stack(target, modes4), material)
            multiplexed = tune_stack(
                GratingStack(
                    holograms=(
                        compile_multiplex(target, modes4),
                        compile_redirection(modes4),
                    ),
                    mode_set=modes4,
                ),
                material,
            )
            block_a = simulate_stack(stacked, material).transfer[:4, :4]
            block_b = simulate_stack(multiplexed, material).transfer[:4, :4]
            assert process_fidelity(block_a, block_b).fidelity > 1 - 1e-9
            assert process_fidelity(target, block_a).fidelity > 1 - 1e-9

    def test_rejects_general_unitary(self, modes2):
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        with pytest.raises(NotSignedPermutation):
            compile_signed_permutation_stack(hadamard, modes2)


class TestPlanInvariants:
    def test_exposure_requires_normalized_coefficients(self, modes2):
        with pytest.raises(ValueError):
            Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: 0.5})

    @pytest.mark.parametrize("coefficient", [math.nan, complex(math.inf, 0.0), 1e308])
    def test_exposure_rejects_non_finite_coefficients(self, modes2, coefficient):
        with pytest.raises(ValueError, match="superposition norm"):
            Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: coefficient})

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_exposure_rejects_non_finite_phase(self, modes2, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            Exposure(
                partner=modes2.references[0],
                coefficients={modes2.signals[0]: 1.0},
                phase=phase,
            )

    def test_exposure_rejects_partner_in_superposition(self, modes2):
        with pytest.raises(ValueError):
            Exposure(
                partner=modes2.signals[0],
                coefficients={modes2.signals[0]: 1.0},
            )

    def test_hologram_rejects_overlapping_superpositions(self, modes2):
        first = Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: 1.0})
        second = Exposure(partner=modes2.references[1], coefficients={modes2.signals[0]: 1.0})
        with pytest.raises(ValueError):
            Hologram(exposures=(first, second))

    def test_stack_rejects_foreign_modes(self, modes2, modes4):
        hologram = compile_redirection(modes4)
        with pytest.raises(UnknownMode):
            GratingStack(holograms=(hologram,), mode_set=modes2)


    def test_with_thickness_does_not_revalidate_exposures(self, modes4, monkeypatch):
        hologram = compile_multiplex(CNOT_MATRIX, modes4)

        def revalidated(table):
            raise AssertionError("with_thickness re-ran the orthogonality check")

        monkeypatch.setattr(compiler, "_gram", revalidated)
        tuned = hologram.with_thickness(2e-3)
        assert tuned.thickness == 2e-3
        assert hologram.thickness is None
        assert tuned.exposures is hologram.exposures
        assert tuned.label == hologram.label

    @pytest.mark.parametrize("thickness", [0.0, -1e-3])
    def test_with_thickness_rejects_nonpositive(self, modes4, thickness):
        with pytest.raises(ValueError):
            compile_redirection(modes4).with_thickness(thickness)

    def test_hologram_is_unequal_to_other_types(self, modes4):
        hologram = compile_redirection(modes4)
        assert hologram == compile_redirection(modes4)
        assert hologram.__eq__(hologram.exposures) is NotImplemented
        assert hologram != hologram.exposures and hologram != "hologram"


class TestFeasibilityReport:
    def test_eight_recording_thickness(self, modes8, material):
        plan = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes8), material)
        assert report.recordings == 8
        assert report.required_thickness == pytest.approx(8e-3)
        assert report.per_dimension_thickness == pytest.approx(8e-3)
        assert report.dimension_ok

    def test_max_dimension_under_centimeter_budget(self, modes8, material):
        plan = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes8), material)
        assert 10 <= report.max_dimension <= 20
        assert report.max_dimension == 12

    def test_additive_over_stack_concatenation(self, modes4, material):
        stack = compile_signed_permutation_stack(CNOT_MATRIX, modes4)
        partial = GratingStack(holograms=stack.holograms[:2], mode_set=modes4)
        rest = GratingStack(holograms=stack.holograms[2:], mode_set=modes4)
        whole = feasibility_report(stack, material).required_thickness
        split = (
            feasibility_report(partial, material).required_thickness
            + feasibility_report(rest, material).required_thickness
        )
        assert whole == pytest.approx(split)

    def test_q_ratio_volume_regime(self, modes8, material, geom8):
        plan = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes8), material)
        # Independent check of the largest grating period among exposures.
        from hologate.modes import wave_vector

        norms = []
        for exposure in plan.exposures:
            pk = wave_vector(exposure.partner)
            norms += [
                np.linalg.norm(wave_vector(m) - pk) for m in exposure.coefficients
            ]
        period = 2 * math.pi / min(norms)
        expected = report.required_thickness * geom8.wavelength / period**2
        assert report.q_ratio == pytest.approx(expected, rel=1e-12)
        assert report.q_ratio >= 10.0
        assert report.volume_regime

    def test_dimension_limit_enforced(self, modes8):
        thin = MaterialSpec(max_total_thickness=5e-3, max_index_modulation=1e-3)
        plan = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes8), thin)
        assert not report.dimension_ok

    def test_centimeter_budget_covers_mid_teens_dimensions(self, material):
        # A bare multiplexed element up to roughly dimension 20 fits 25 mm.
        rng = np.random.default_rng(16)
        geo = geometry(16)
        modes = make_cone_basis(geo)
        plan = compile_multiplex(haar_unitary(16, rng), modes)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes), material)
        assert report.required_thickness == pytest.approx(16e-3)
        assert report.dimension_ok

    def test_selectivity_resolves_cone_spacing(self, modes8, material, geom8):
        plan = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes8), material)
        assert report.selectivity_ok
        assert report.angular_selectivity < geom8.azimuthal_spacing
