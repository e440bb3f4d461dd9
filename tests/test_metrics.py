import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hologate.circuit import TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import (
    build_coupling,
    ideal_transfer,
    optimal_thickness,
    simulate_stack,
    tune_stack,
)
from hologate.compiler import (
    Exposure,
    GratingStack,
    Hologram,
    compile_multiplex,
    compile_redirection,
)
from hologate.errors import DimensionMismatch, UnknownMode
from hologate.metrics import diffraction_efficiency, process_fidelity, realized_unitary
from hologate.modes import Role

from conftest import haar_unitary


class TestProcessFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(4, rng)
        report = process_fidelity(u, u)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.max_elementwise_error < 1e-12
        assert report.passed

    @given(phase=st.floats(-math.pi, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_global_phase_invariance(self, phase):
        rng = np.random.default_rng(2)
        u = haar_unitary(4, rng)
        report = process_fidelity(u, np.exp(1j * phase) * u)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.global_phase == pytest.approx(phase, abs=1e-9)

    def test_orthogonal_pair(self):
        report = process_fidelity(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
        assert report.fidelity == 0.0
        assert not report.passed

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u, v = haar_unitary(8, rng), haar_unitary(8, rng)
            assert process_fidelity(u, v).fidelity == pytest.approx(
                process_fidelity(v, u).fidelity, abs=1e-12
            )

    def test_bounded_and_tight(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = haar_unitary(4, rng), haar_unitary(4, rng)
            report = process_fidelity(u, v)
            assert 0.0 <= report.fidelity <= 1.0 + 1e-12
            if report.fidelity > 1 - 1e-12:
                assert report.max_elementwise_error < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            process_fidelity(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1e-9, 1.0 + 1e-9])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            process_fidelity(np.eye(2), np.eye(2), threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds_accepted(self, threshold):
        assert process_fidelity(np.eye(2), np.eye(2), threshold=threshold).passed


class TestDiffractionEfficiency:
    def test_tuned_pair(self, modes2, material):
        hologram = Hologram(
            exposures=(
                Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: 1.0}),
            )
        )
        system = build_coupling(hologram, modes2, material)
        d = optimal_thickness(system)
        result = ideal_transfer(system, d)
        assert diffraction_efficiency(
            result, modes2.signals[0], modes2.references[0]
        ) == pytest.approx(1.0, abs=1e-12)
        half = ideal_transfer(system, d / 2)
        assert diffraction_efficiency(
            half, modes2.signals[0], modes2.references[0]
        ) == pytest.approx(0.5, abs=1e-12)

    def test_outputs_sum_to_one(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        result = ideal_transfer(system, optimal_thickness(system) * 0.37)
        for input_mode in modes8.signals:
            total = sum(
                diffraction_efficiency(result, input_mode, out)
                for out in modes8.universe
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_unknown_mode(self, modes2, modes4, material):
        hologram = Hologram(
            exposures=(
                Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: 1.0}),
            )
        )
        result = ideal_transfer(build_coupling(hologram, modes2, material), 1e-3)
        with pytest.raises(UnknownMode):
            diffraction_efficiency(result, modes4.signals[1], modes4.references[1])


class TestRealizedUnitary:
    def test_bare_multiplexed_element_lands_on_reference_cone(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        result = ideal_transfer(system, optimal_thickness(system))
        block = realized_unitary(result, modes8, Role.REFERENCE)
        assert np.abs(block - 1j * TELEPORT_UNITARY_UNCONDITIONAL_Z).max() < 1e-9
        gram = block.conj().T @ block
        assert np.abs(gram - np.eye(8)).max() < 1e-9  # no leakage back to signals

    def test_full_stack_lands_on_signal_cone(self, modes8, material):
        stack = tune_stack(
            GratingStack(
                holograms=(
                    compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8),
                    compile_redirection(modes8),
                ),
                mode_set=modes8,
            ),
            material,
        )
        result = simulate_stack(stack, material, "ideal")
        block = realized_unitary(result, modes8, Role.SIGNAL)
        report = process_fidelity(TELEPORT_UNITARY_UNCONDITIONAL_Z, block)
        assert report.fidelity > 1 - 1e-9

    def test_empty_stack_is_identity(self, modes4, material):
        stack = GratingStack(holograms=(), mode_set=modes4)
        result = simulate_stack(stack, material, "ideal")
        assert np.array_equal(realized_unitary(result, modes4, Role.SIGNAL), np.eye(4))

    def test_universe_mismatch_rejected(self, modes2, modes4, material):
        stack = GratingStack(holograms=(), mode_set=modes4)
        result = simulate_stack(stack, material, "ideal")
        with pytest.raises(DimensionMismatch):
            realized_unitary(result, modes2, Role.SIGNAL)
