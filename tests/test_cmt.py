import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import hologate.cmt as cmt
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import (
    CouplingSystem,
    build_coupling,
    detuned_transfer,
    optimal_thickness,
    selectivity_sweep,
    simulate_stack,
    tune_stack,
)
from hologate.compiler import (
    Exposure,
    GratingStack,
    Hologram,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.errors import NonuniformCoupling, StepUnderflow, UnknownMode
from hologate.metrics import process_fidelity
from hologate.modes import PlaneWaveMode, Role

from conftest import haar_unitary

TWO_PI = 2.0 * math.pi


def two_mode_efficiency(nu, x):
    """Closed-form detuned transfer: eta = nu^2/(nu^2+x^2) sin^2(sqrt(nu^2+x^2))."""
    s = math.hypot(nu, x)
    if s == 0.0:
        return 0.0
    return (nu / s) ** 2 * math.sin(s) ** 2


def synthetic_pair(kappa, xi):
    """Two-mode system with prescribed coupling and detuning rates."""
    modes = (
        PlaneWaveMode(Role.SIGNAL, 1, 0.0, 0.1, TWO_PI),
        PlaneWaveMode(Role.REFERENCE, 1, math.pi, 0.2, TWO_PI),
    )
    return CouplingSystem(
        modes=modes,
        kappa=np.array([[0.0, kappa], [kappa, 0.0]], dtype=complex),
        xi=np.array([[0.0, xi], [-xi, 0.0]]),
        recorded_mask=np.ones((2, 2), dtype=bool),
        exposure_strengths=(kappa,),
    )


def synthetic_hermitian(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kappa = (z + z.conj().T) / 2.0
    np.fill_diagonal(kappa, 0.0)
    modes = tuple(
        PlaneWaveMode(Role.SIGNAL if i < n // 2 else Role.REFERENCE,
                      i % (n // 2) + 1, i * TWO_PI / n, 0.1, TWO_PI)
        for i in range(n)
    )
    return CouplingSystem(
        modes=modes,
        kappa=kappa,
        xi=np.zeros((n, n)),
        recorded_mask=np.ones((n, n), dtype=bool),
        exposure_strengths=(1.0,),
    )


def single_grating(modes, delta_n=1e-4):
    return Hologram(
        exposures=(
            Exposure(
                partner=modes.references[0],
                coefficients={modes.signals[0]: 1.0},
                index_modulation=delta_n,
            ),
        ),
        label="single",
    )


class TestBuildCoupling:
    @pytest.mark.parametrize("kappa, xi", [
        (math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_non_finite_coupling_is_rejected(self, kappa, xi):
        with pytest.raises(ValueError, match="must be finite"):
            synthetic_pair(kappa, xi)

    @pytest.mark.parametrize("kappa, xi, message", [
        (np.zeros((2, 3)), np.zeros((2, 2)), "must be square"),
        (np.zeros((2, 2)), np.zeros((3, 3)), "must be square"),
        (np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros((2, 2)), "kappa must be Hermitian"),
        (np.array([[0.0, 1j], [1j, 0.0]]), np.zeros((2, 2)), "kappa must be Hermitian"),
        (np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]]), "xi must be antisymmetric"),
    ], ids=["kappa-not-square", "xi-not-square", "kappa-asymmetric", "kappa-not-conjugate",
            "xi-symmetric"])
    def test_malformed_matrices_are_rejected(self, kappa, xi, message):
        pair = synthetic_pair(1.0, 0.0)
        with pytest.raises(ValueError, match=message):
            replace(pair, kappa=kappa, xi=xi)

    def test_modulation_beyond_float_range_is_named(self, modes2):
        with pytest.raises(ValueError, match="delta_n 1e[+]308"):
            build_coupling(single_grating(modes2, delta_n=1e308), modes2)
        with pytest.raises(ValueError, match="delta_n 1e[+]308"):
            tune_stack(GratingStack((single_grating(modes2, delta_n=1e308),), modes2))

    def test_recorded_pair_is_phase_matched(self, modes2, material):
        system = build_coupling(single_grating(modes2), modes2, material)
        s_pos, r_pos = 0, 2
        assert system.recorded_mask[s_pos, r_pos]
        assert system.xi[s_pos, r_pos] == 0.0

    def test_split_exposure_coupling_magnitudes(self, modes8, material):
        # Superposition (S1 + S7)/sqrt(2) against R1: both fringes at kappa0/sqrt(2).
        hologram = Hologram(
            exposures=(
                Exposure(
                    partner=modes8.references[0],
                    coefficients={
                        modes8.signals[0]: 1.0 / math.sqrt(2),
                        modes8.signals[6]: 1.0 / math.sqrt(2),
                    },
                ),
            ),
        )
        system = build_coupling(hologram, modes8, material)
        geometry = modes8.geometry
        kappa0 = math.pi * 1e-4 / (
            geometry.wavelength
            * math.sqrt(
                math.cos(geometry.signal_half_angle) * math.cos(geometry.reference_half_angle)
            )
        )
        r1 = 8
        assert abs(system.kappa[0, r1]) == pytest.approx(kappa0 / math.sqrt(2), rel=1e-12)
        assert abs(system.kappa[6, r1]) == pytest.approx(kappa0 / math.sqrt(2), rel=1e-12)
        assert system.exposure_strengths[0] == pytest.approx(kappa0, rel=1e-12)
        # Energy conservation of the resulting evolution.
        transfer = detuned_transfer(system, optimal_thickness(system)).transfer
        norms = np.linalg.norm(transfer, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_same_cone_pair_obliquity(self, modes4, material):
        # Hypothetical pair on one cone: kappa0 = pi * dn / (lambda cos(theta)).
        hologram = Hologram(
            exposures=(
                Exposure(
                    partner=modes4.signals[1],
                    coefficients={modes4.signals[0]: 1.0},
                    index_modulation=1e-4,
                ),
            ),
        )
        system = build_coupling(hologram, modes4, material)
        geometry = modes4.geometry
        expected = math.pi * 1e-4 / (
            geometry.wavelength * math.cos(geometry.signal_half_angle)
        )
        assert abs(system.kappa[0, 1]) == pytest.approx(expected, rel=1e-12)

    def test_kappa_hermitian_xi_antisymmetric(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        assert np.abs(system.kappa - system.kappa.conj().T).max() < 1e-12
        assert np.abs(system.xi + system.xi.T).max() < 1e-12

    def test_crosstalk_fringes_are_detuned(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        cross = (system.kappa != 0) & ~system.recorded_mask
        assert cross.any(), "symmetric cone layout should produce parasitic matches"
        assert np.all(np.abs(system.xi[cross]) > 1e3)

    def test_unknown_mode_rejected(self, modes2, modes4, material):
        # modes4.signals[1] sits at azimuth pi/2, which no dimension-2 basis has.
        hologram = Hologram(
            exposures=(
                Exposure(
                    partner=modes4.references[1],
                    coefficients={modes4.signals[1]: 1.0},
                ),
            ),
        )
        with pytest.raises(UnknownMode):
            build_coupling(hologram, modes2, material)

    def test_modulation_ceiling_enforced(self, modes2, material):
        hologram = single_grating(modes2, delta_n=5e-3)  # above 1e-3 ceiling
        with pytest.raises(ValueError):
            build_coupling(hologram, modes2, material)


class TestIdealTransfer:
    def test_quarter_and_half_transfer(self, modes2, material):
        system = build_coupling(single_grating(modes2), modes2, material)
        d_opt = optimal_thickness(system)
        full = detuned_transfer(system, d_opt)
        s_pos, r_pos = 0, 2
        assert abs(full.transfer[r_pos, s_pos]) ** 2 == pytest.approx(1.0, abs=1e-12)
        half = detuned_transfer(system, d_opt / 2.0)
        assert abs(half.transfer[r_pos, s_pos]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 8, 16):
            for _ in range(5):
                system = synthetic_hermitian(n, rng)
                d = float(rng.uniform(0.1, 2.0))
                ours = detuned_transfer(system, d).transfer
                oracle = scipy.linalg.expm(1j * d * system.kappa)
                assert np.linalg.norm(ours - oracle) < 1e-10

    def test_multiplexed_block_form(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        d = optimal_thickness(system)
        transfer = detuned_transfer(system, d).transfer
        n = 8
        assert np.abs(transfer[n:, :n] - 1j * TELEPORT_UNITARY_UNCONDITIONAL_Z).max() < 1e-9
        assert np.abs(transfer[:n, :n]).max() < 1e-9

    def test_block_form_random_unitaries(self, material):
        from conftest import geometry
        from hologate.modes import make_cone_basis

        rng = np.random.default_rng(77)
        for n in (2, 4, 8):
            modes = make_cone_basis(geometry(n))
            for _ in (range(7) if n < 8 else range(6)):
                unitary = haar_unitary(n, rng)
                system = build_coupling(compile_multiplex(unitary, modes), modes, material)
                kappa0 = system.exposure_strengths[0]
                d = float(rng.uniform(0.2, 1.3)) / kappa0
                transfer = detuned_transfer(system, d).transfer
                angle = kappa0 * d
                assert np.abs(
                    transfer[n:, :n] - 1j * math.sin(angle) * unitary
                ).max() < 1e-9
                assert np.abs(
                    transfer[:n, :n] - math.cos(angle) * np.eye(n)
                ).max() < 1e-9

    def test_reciprocity_single_grating(self, modes2, material):
        system = build_coupling(single_grating(modes2), modes2, material)
        transfer = detuned_transfer(system, optimal_thickness(system) * 0.61).transfer
        assert abs(abs(transfer[0, 2]) - abs(transfer[2, 0])) < 1e-12

    def test_per_mode_efficiency_fields(self, modes2, material):
        system = build_coupling(single_grating(modes2), modes2, material)
        d = optimal_thickness(system)
        result = detuned_transfer(system, d)
        assert result.per_mode_efficiency[0] == pytest.approx(1.0, abs=1e-12)
        assert result.thickness_used == d


class TestOptimalThickness:
    def test_inverts_coupling_strength(self):
        system = synthetic_pair(math.pi / (2 * 5e-3), 0.0)
        assert optimal_thickness(system) == pytest.approx(5e-3, rel=1e-12)

    def test_doubling_modulation_halves_thickness(self, modes2, material):
        thin = build_coupling(single_grating(modes2, 1e-4), modes2, material)
        thick = build_coupling(single_grating(modes2, 2e-4), modes2, material)
        assert optimal_thickness(thin) == pytest.approx(2 * optimal_thickness(thick), rel=1e-12)

    def test_full_transfer_at_optimum(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        result = detuned_transfer(system, optimal_thickness(system))
        for j in range(8):
            column = result.transfer[8:, j]
            assert np.vdot(column, column).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonuniform_strengths(self, modes2, material):
        exposures = (
            Exposure(partner=modes2.references[0], coefficients={modes2.signals[0]: 1.0},
                     index_modulation=1e-4),
            Exposure(partner=modes2.references[1], coefficients={modes2.signals[1]: 1.0},
                     index_modulation=2e-4),
        )
        system = build_coupling(Hologram(exposures=exposures), modes2, material)
        with pytest.raises(NonuniformCoupling):
            optimal_thickness(system)

    @pytest.mark.parametrize("strengths, message", [
        ((), "no exposures to tune"), ((0.0, 0.0), "all zero"),
    ], ids=["empty", "all-zero"])
    def test_rejects_strengths_without_a_coupling(self, strengths, message):
        system = replace(synthetic_pair(0.0, 0.0), exposure_strengths=strengths)
        with pytest.raises(NonuniformCoupling, match=message):
            optimal_thickness(system)


class TestDetunedTransfer:
    def test_matches_ideal_when_phase_matched(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        d = optimal_thickness(system)
        ideal = scipy.linalg.expm(1j * d * np.where(system.recorded_mask, system.kappa, 0.0))
        detuned = detuned_transfer(system, d).transfer
        assert np.linalg.norm(ideal - detuned) < 1e-9

    def test_two_mode_closed_form_grid(self):
        d = 1.0
        for nu in np.linspace(0.05, math.pi, 7):
            for x in np.linspace(0.0, 2 * math.pi, 9):
                system = synthetic_pair(nu / d, 2 * x / d)
                result = detuned_transfer(system, d)
                efficiency = abs(result.transfer[1, 0]) ** 2
                assert efficiency == pytest.approx(
                    two_mode_efficiency(nu, x), abs=1e-6
                ), f"nu={nu}, x={x}"

    def test_first_null_location(self):
        # At nu = pi/2 the first zero of transfer sits at sqrt(nu^2 + x^2) = pi.
        nu = math.pi / 2
        x_null = math.sqrt(math.pi**2 - nu**2)
        before = detuned_transfer(synthetic_pair(nu, 2 * (x_null - 0.3)), 1.0)
        at = detuned_transfer(synthetic_pair(nu, 2 * x_null), 1.0)
        assert abs(before.transfer[1, 0]) ** 2 > 1e-2
        assert abs(at.transfer[1, 0]) ** 2 < 1e-9

    def test_energy_conservation_with_crosstalk(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        d = optimal_thickness(system)
        result = detuned_transfer(system, d, include_crosstalk=True)
        gram = result.transfer.conj().T @ result.transfer
        assert np.linalg.norm(gram - np.eye(16)) < 1e-8

    def test_crosstalk_changes_the_answer(self, modes8, material):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        d = optimal_thickness(system)
        clean = detuned_transfer(system, d).transfer
        noisy = detuned_transfer(system, d, include_crosstalk=True).transfer
        deviation = np.abs(noisy - clean).max()
        assert 1e-5 < deviation < 0.05  # present but small

    def test_step_halving_convergence(self, modes2, material, monkeypatch):
        system = synthetic_pair(math.pi / 2, math.pi)
        coarse = detuned_transfer(system, 1.0).transfer
        monkeypatch.setattr(cmt, "_MIN_STEPS", 2 * cmt._MIN_STEPS)
        fine = detuned_transfer(system, 1.0).transfer
        assert np.linalg.norm(coarse - fine) < 1e-9

    def test_step_underflow(self):
        system = synthetic_pair(1.0, 1e12)
        with pytest.raises(StepUnderflow):
            detuned_transfer(system, 1.0)

    def test_rejects_nonpositive_thickness(self, modes2, material):
        system = build_coupling(single_grating(modes2), modes2, material)
        with pytest.raises(ValueError):
            detuned_transfer(system, 0.0)

    @pytest.mark.parametrize("thickness", [math.nan, math.inf])
    def test_rejects_non_finite_thickness(self, modes2, material, thickness):
        system = build_coupling(single_grating(modes2), modes2, material)
        with pytest.raises(ValueError, match="thickness must be positive and finite"):
            detuned_transfer(system, thickness)

    def test_synthetic_system_accepts_tilt(self):
        # No build stands behind this system; a tilt moves the tilted mode's
        # k_z alone, so xi_01 shifts by k (cos(theta + tilt) - cos(theta)).
        nu, x, tilt = math.pi / 2, 0.4, 0.05
        system = synthetic_pair(nu, 2 * x)
        signal = system.modes[0]
        shift = signal.wavenumber * (
            math.cos(signal.cone_half_angle + tilt) - math.cos(signal.cone_half_angle)
        )
        result = detuned_transfer(system, 1.0, tilt=tilt, tilt_mode=signal)
        assert abs(result.transfer[1, 0]) ** 2 == pytest.approx(
            two_mode_efficiency(nu, x + shift / 2), abs=1e-9
        )
        assert abs(shift) > 0.01


def potential_system(n, rng):
    """Random Hermitian coupling whose detunings come from a per-mode potential."""
    system = synthetic_hermitian(n, rng)
    potential = rng.uniform(-3.0, 3.0, size=n)
    system = replace(
        system,
        kappa=system.kappa / math.sqrt(n),
        xi=potential[:, None] - potential[None, :],
    )
    return system, potential


def refuse_integration(*args):
    raise AssertionError("slab went to the RK4 integrator")


class TestExactRoute:
    """Detunings from a per-mode potential take the rotating-frame closed form."""

    def test_matches_integrator_and_expm_oracle(self, monkeypatch):
        rng = np.random.default_rng(2024)
        integrate = cmt._integrate
        monkeypatch.setattr(cmt, "_integrate", refuse_integration)
        for n in (2, 4, 8, 16):
            for _ in range(3):
                system, potential = potential_system(n, rng)
                kappa, xi = system.kappa, system.xi
                d = float(rng.uniform(0.5, 2.0))
                ours = detuned_transfer(system, d).transfer
                oracle = np.diag(np.exp(1j * d * potential)) @ scipy.linalg.expm(
                    1j * d * (kappa - np.diag(potential))
                )
                reference = integrate(kappa, xi, d, cmt._step_count(kappa, xi, d))
                assert np.abs(ours - oracle).max() <= 1e-9
                assert np.abs(ours - reference).max() <= 1e-9
                assert np.linalg.norm(ours.conj().T @ ours - np.eye(n)) < 1e-9

    def test_potential_recovers_detunings(self):
        rng = np.random.default_rng(5)
        system, _ = potential_system(6, rng)
        kappa = system.kappa.copy()
        kappa[0, 1:] = kappa[1:, 0] = 0.0  # mode 0 isolated: a component of its own
        potential, residual = cmt._potential(kappa, system.xi)
        fitted = potential[:, None] - potential[None, :]
        assert residual < 1e-12
        assert np.abs(fitted - system.xi)[1:, 1:].max() < 1e-12
        assert potential[0] == 0.0

    def test_inconsistent_cycle_goes_to_integrator(self):
        # Three mutually coupled modes whose detunings sum to 0.7 around the
        # loop: no per-mode potential explains them.
        kappa = np.array([[0.0, 1.0, 0.7j], [1.0, 0.0, 0.5], [-0.7j, 0.5, 0.0]])
        xi = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
        _, residual = cmt._potential(kappa, xi)
        assert residual == pytest.approx(0.7, rel=1e-12)
        system = CouplingSystem(
            modes=synthetic_hermitian(4, np.random.default_rng(0)).modes[:3],
            kappa=kappa,
            xi=xi,
            recorded_mask=np.ones((3, 3), dtype=bool),
            exposure_strengths=(1.0,),
        )
        ours = detuned_transfer(system, 1.0).transfer
        integrated = cmt._integrate(kappa, xi, 1.0, cmt._step_count(kappa, xi, 1.0))
        assert np.array_equal(ours, integrated)

    def test_crosstalk_teleport_goes_to_integrator(self, modes8, material, monkeypatch):
        hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
        system = build_coupling(hologram, modes8, material)
        d = optimal_thickness(system)
        kappa, xi = cmt._select_system(system, True, None)
        assert cmt._potential(kappa, xi)[1] * d > 1.0
        calls = []
        monkeypatch.setattr(cmt, "_integrate", lambda *args: calls.append(args) or np.eye(16))
        detuned_transfer(system, d, include_crosstalk=True)
        assert len(calls) == 1

    @pytest.mark.parametrize("tilt, tilt_mode", [(3e-4, None), (1e-3, 0), (3e-3, 0)])
    def test_tilted_teleport_and_cnot_slabs_match_integrator(
        self, modes4, modes8, material, monkeypatch, tilt, tilt_mode
    ):
        integrate = cmt._integrate
        monkeypatch.setattr(cmt, "_integrate", refuse_integration)
        slabs = [(compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8), modes8, False)]
        cnot = compile_signed_permutation_stack(CNOT_MATRIX, modes4)
        slabs += [(h, modes4, False) for h in cnot.holograms]
        # The CNOT gratings' parasitic fringes also come from a potential.
        slabs.append((cnot.holograms[0], modes4, True))
        for hologram, modes, crosstalk in slabs:
            system = build_coupling(hologram, modes, material)
            d = optimal_thickness(system)
            mode = None if tilt_mode is None else modes.signals[tilt_mode]
            ours = detuned_transfer(
                system, d, include_crosstalk=crosstalk, tilt=tilt, tilt_mode=mode
            ).transfer
            shift = cmt._tilt_shift(system.modes, tilt, mode)
            kappa, xi = cmt._select_system(system, crosstalk, shift)
            reference = integrate(kappa, xi, d, cmt._step_count(kappa, xi, d))
            assert np.abs(ours - reference).max() <= 1e-9
            assert np.linalg.norm(ours.conj().T @ ours - np.eye(len(ours))) < 1e-9


def inconsistent_cycle():
    """Three modes coupled in a cycle whose detunings no potential explains (RK4 route)."""
    kappa = np.array([[0.0, 1.0, 0.7j], [1.0, 0.0, 0.5], [-0.7j, 0.5, 0.0]])
    xi = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
    return CouplingSystem(
        modes=synthetic_hermitian(4, np.random.default_rng(0)).modes[:3],
        kappa=kappa,
        xi=xi,
        recorded_mask=np.ones((3, 3), dtype=bool),
        exposure_strengths=(1.0,),
    )


def scaled_to_defect(route, defect, n):
    """`route` with its transfer scaled so ||T^H T - I||_F grows by about `defect`."""
    scale = 1.0 + defect / (2.0 * math.sqrt(n))
    return lambda *args: scale * route(*args)


class TestTransferInvariants:
    """The propagator refuses a non-unitary transfer and a step bound that overflows."""

    def test_non_unitary_transfer_raises(self, monkeypatch):
        system = inconsistent_cycle()
        integrate = cmt._integrate
        detuned_transfer(system, 1.0)
        monkeypatch.setattr(cmt, "_integrate", lambda *args: 1.001 * integrate(*args))
        with pytest.raises(FloatingPointError, match="not unitary"):
            detuned_transfer(system, 1.0)

    def test_rk4_tolerance_grows_with_step_count(self, monkeypatch):
        # RK4's defect adds up step by step, so ~5,100 steps may leave up to
        # ~5,100 * 3.3e-9 = 1.7e-5.  Detunings far above the coupling, as on
        # crosstalk slabs, keep the unscaled defect near 2e-13.
        cycle = inconsistent_cycle()
        system = replace(cycle, kappa=0.01 * cycle.kappa, xi=100.0 * cycle.xi)
        thickness = 10.0
        steps = cmt._step_count(system.kappa, system.xi, thickness)
        assert 5000 < steps < 5200
        integrate = cmt._integrate
        monkeypatch.setattr(cmt, "_integrate", scaled_to_defect(integrate, 1e-5, 3))
        detuned_transfer(system, thickness)
        monkeypatch.setattr(cmt, "_integrate", scaled_to_defect(integrate, 3e-5, 3))
        with pytest.raises(FloatingPointError, match="not unitary"):
            detuned_transfer(system, thickness)

    def test_overdriven_crosstalk_slab_is_accepted(self):
        # A phased permutation at the material ceiling's modulation, four
        # times its tuned thickness: RK4 leaves more than the exact route's
        # 1e-9 (about 3.7e-9 in 3,200 steps), far inside its own bound.
        from conftest import geometry
        from hologate.modes import make_cone_basis

        modes = make_cone_basis(geometry(16))
        rng = np.random.default_rng(5)
        target = np.eye(16)[rng.permutation(16)] * np.exp(1j * rng.uniform(0, 6.28, 16))
        system = build_coupling(compile_multiplex(target, modes, index_modulation=1e-3), modes)
        thickness = 4 * optimal_thickness(system)
        transfer = detuned_transfer(system, thickness, include_crosstalk=True).transfer
        assert np.linalg.norm(transfer.conj().T @ transfer - np.eye(32)) > 1e-9

    def test_exact_route_tolerance_ignores_step_count(self, monkeypatch):
        system = synthetic_pair(0.01, 100.0)
        thickness = 10.0
        assert cmt._step_count(system.kappa, system.xi, thickness) > 5000
        exact = cmt._hermitian_exp
        monkeypatch.setattr(cmt, "_hermitian_exp", scaled_to_defect(exact, 5e-10, 2))
        detuned_transfer(system, thickness)
        monkeypatch.setattr(cmt, "_hermitian_exp", scaled_to_defect(exact, 2e-9, 2))
        with pytest.raises(FloatingPointError, match="not unitary"):
            detuned_transfer(system, thickness)

    def test_step_bound_overflow_names_thickness(self):
        system = synthetic_pair(1.0, 1.0)
        with pytest.raises(StepUnderflow, match="thickness 1e[+]308"):
            detuned_transfer(system, 1e308)


class TestIntegrator:
    """The RK4 route, aimed at directly now that potential-consistent pairs go exact."""

    def test_two_mode_closed_form_grid(self):
        d = 1.0
        for nu in np.linspace(0.05, math.pi, 7):
            for x in np.linspace(0.0, 2 * math.pi, 9):
                system = synthetic_pair(nu / d, 2 * x / d)
                steps = cmt._step_count(system.kappa, system.xi, d)
                transfer = cmt._integrate(system.kappa, system.xi, d, steps)
                assert abs(transfer[1, 0]) ** 2 == pytest.approx(
                    two_mode_efficiency(nu, x), abs=1e-6
                ), f"nu={nu}, x={x}"

    def test_step_halving_convergence(self):
        system = synthetic_pair(math.pi / 2, math.pi)
        steps = cmt._step_count(system.kappa, system.xi, 1.0)
        coarse = cmt._integrate(system.kappa, system.xi, 1.0, steps)
        fine = cmt._integrate(system.kappa, system.xi, 1.0, 2 * steps)
        assert np.linalg.norm(coarse - fine) < 1e-9


class TestSimulateStack:
    def test_empty_stack_is_identity(self, modes4, material):
        stack = GratingStack(holograms=(), mode_set=modes4)
        result = simulate_stack(stack, material)
        assert np.array_equal(result.transfer, np.eye(8))

    def test_teleport_stack_up_to_global_phase(self, modes8, material):
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
        block = simulate_stack(stack, material).transfer[:8, :8]
        report = process_fidelity(TELEPORT_UNITARY_UNCONDITIONAL_Z, block)
        assert report.fidelity > 1 - 1e-9
        assert abs(abs(report.global_phase) - math.pi) < 1e-9  # i * i per pass

    def test_untuned_stack_rejected(self, modes2, material):
        stack = GratingStack(
            holograms=(compile_multiplex(np.eye(2), modes2),), mode_set=modes2
        )
        with pytest.raises(ValueError):
            simulate_stack(stack, material)

    def test_total_thickness_accumulates(self, modes2, material):
        stack = tune_stack(
            GratingStack(
                holograms=(compile_multiplex(np.eye(2), modes2), compile_redirection(modes2)),
                mode_set=modes2,
            ),
            material,
        )
        result = simulate_stack(stack, material)
        assert result.thickness_used == pytest.approx(
            sum(h.thickness for h in stack.holograms)
        )


class TestTuneStack:
    """tune_stack tunes from the exposure strengths without building a coupling."""

    def test_thickness_equals_optimal_thickness_of_built_system(self, modes8, material):
        holograms = (
            compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8),
            compile_multiplex(haar_unitary(8, np.random.default_rng(17)), modes8),
            compile_redirection(modes8),
        )
        tuned = tune_stack(GratingStack(holograms=holograms, mode_set=modes8), material)
        for before, after in zip(holograms, tuned.holograms):
            system = build_coupling(before, modes8, material)
            assert after.thickness == optimal_thickness(system)

    def test_modulation_ceiling_enforced(self, modes2, material):
        stack = GratingStack(holograms=(single_grating(modes2, delta_n=5e-3),), mode_set=modes2)
        with pytest.raises(ValueError, match="exceeds material ceiling"):
            tune_stack(stack, material)

    def test_unknown_mode_rejected(self, modes2, modes4, material):
        hologram = Hologram(
            exposures=(
                Exposure(
                    partner=modes4.references[1],
                    coefficients={modes4.signals[1]: 1.0},
                ),
            ),
        )
        # GratingStack rejects foreign modes itself, so pass a bare stand-in.
        stack = SimpleNamespace(holograms=(hologram,), mode_set=modes2)
        with pytest.raises(UnknownMode):
            tune_stack(stack, material)


class TestSelectivitySweep:
    def test_row_contract(self, modes2, material):
        rows = selectivity_sweep(
            GratingStack(holograms=(single_grating(modes2),), mode_set=modes2),
            material, 2e-3, 11,
        )
        assert len(rows) == 11
        tilts = [t for t, _ in rows]
        assert tilts == sorted(tilts)
        spacing = np.diff(tilts)
        assert np.allclose(spacing, spacing[0], rtol=1e-9)
        assert rows[0][0] == 0.0

    def test_zero_tilt_matches_tuned_value(self, modes2, material):
        rows = selectivity_sweep(
            GratingStack(holograms=(single_grating(modes2),), mode_set=modes2),
            material, 1e-3, 5,
        )
        assert rows[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_main_lobe_monotone_to_first_null(self, modes2, material):
        geometry = modes2.geometry
        hologram = single_grating(modes2)
        system = build_coupling(hologram, modes2, material)
        d = optimal_thickness(system)
        predicted_null = math.sqrt(3) * math.pi / (
            d * geometry.wavenumber * math.sin(geometry.signal_half_angle)
        )
        rows = selectivity_sweep(
            GratingStack(holograms=(hologram,), mode_set=modes2),
            material, predicted_null, 41,
        )
        efficiencies = np.array([e for _, e in rows])
        null_index = int(np.argmin(efficiencies))
        lobe = efficiencies[: null_index + 1]
        assert null_index >= 32  # null sits close to the linearized prediction
        assert all(b <= a + 1e-9 for a, b in zip(lobe, lobe[1:]))
        assert efficiencies[null_index] < 1e-3

    def test_doubling_thickness_halves_first_null(self, modes2, material):
        geometry = modes2.geometry

        def first_null(delta_n):
            hologram = single_grating(modes2, delta_n)
            system = build_coupling(hologram, modes2, material)
            d = optimal_thickness(system)
            predicted = math.sqrt(3) * math.pi / (
                d * geometry.wavenumber * math.sin(geometry.signal_half_angle)
            )
            rows = selectivity_sweep(
                GratingStack(holograms=(hologram,), mode_set=modes2),
                material, 1.25 * predicted, 81,
            )
            efficiencies = np.array([e for _, e in rows])
            return rows[int(np.argmin(efficiencies))][0]

        # Halving delta_n doubles the tuned thickness at fixed kappa0*d.
        tau_thin = first_null(1e-4)
        tau_thick = first_null(5e-5)
        assert tau_thick / tau_thin == pytest.approx(0.5, rel=0.05)

    def test_needs_two_samples(self, modes2, material):
        with pytest.raises(ValueError):
            selectivity_sweep(
                GratingStack(holograms=(single_grating(modes2),), mode_set=modes2),
                material, 1e-3, 1,
            )


def test_pass_2_rejects_candidates_in_the_slack_band(monkeypatch):
    # Pass 2 searches with 2*pi/D widened by 1e-9, then rejects by the scalar
    # hypot test at 2*pi/D exactly.  h0 is the shortest nonzero offset of the
    # teleport multiplex at N = 8 that is not a fringe's own pair; an aperture
    # putting 2*pi/D just below it lands those offsets in the widened band.
    from conftest import geometry
    from hologate.modes import make_cone_basis
    from test_coupling_oracle import reference_build

    h0 = 138199.62421934376
    tol = h0 * (1.0 - 2e-10)
    modes = make_cone_basis(replace(geometry(8), aperture_breadth=TWO_PI / tol))
    hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes)

    lengths = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def hypot(self, *coordinates):
            lengths.append(math.hypot(*coordinates))
            return lengths[-1]

    monkeypatch.setattr(cmt, "math", CountingMath())
    system = build_coupling(hologram, modes)

    rejected = [length for length in lengths if length >= TWO_PI / modes.geometry.aperture_breadth]
    assert (len(lengths), len(rejected)) == (28, 12)
    assert all(length < tol * (1.0 + 1e-9) for length in rejected)
    reference = reference_build(hologram, modes)[0]
    assert system.kappa.tobytes() == reference.kappa.tobytes()
    assert system.xi.tobytes() == reference.xi.tobytes()
    assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
