"""Batched tilt sweeps against the per-tilt loop they replaced, bit for bit.

`reference_sweep` keeps the loop `selectivity_sweep` ran before it
batched tilts: one `detuned_transfer` per tilt and hologram, tilt-major,
the untilted stack first.  `selectivity_sweep` now propagates each slab
at a batch of tilts at once: exact-route tilts as one stacked
`_hermitian_exp` call, RK4-route tilts of one step count as one stacked
`_integrate` call.  It must write the same rows, raise the same first
failure, and leave each stacked slice with the bits of its own 2-D run.
`exact_reference` keeps the per-shift exact route on the 2-D helpers.
"""

from dataclasses import replace

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate import formats
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cli import main
from hologate.cmt import (
    CouplingSystem,
    build_coupling,
    detuned_transfer,
    selectivity_sweep,
    tune_stack,
)
from hologate.compiler import (
    GratingStack,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.errors import StepUnderflow
from hologate.modes import PlaneWaveMode, Role, TWO_PI, make_cone_basis

from conftest import geometry, haar_unitary


def reference_sweep(stack, material, tilt_range, samples, include_crosstalk=False):
    """The per-tilt, per-hologram loop of the unbatched `selectivity_sweep`."""
    modes = stack.mode_set
    holograms = tune_stack(stack, material).holograms
    source_mode = cmt._dominant_input(holograms[0], modes)
    in_pos = modes.position(source_mode)
    systems = [build_coupling(h, modes, material) for h in holograms]

    def stack_transfer(tilt):
        transfer = np.eye(len(modes.universe), dtype=complex)
        for system, hologram in zip(systems, holograms):
            step = detuned_transfer(
                system,
                hologram.thickness,
                include_crosstalk=include_crosstalk,
                tilt=tilt,
                tilt_mode=source_mode,
            )
            transfer = step.transfer @ transfer
        return transfer

    baseline = stack_transfer(0.0)
    out_pos = int(np.argmax(np.abs(baseline[:, in_pos])))
    rows = []
    for tilt in np.linspace(0.0, tilt_range, samples):
        transfer = baseline if tilt == 0.0 else stack_transfer(float(tilt))
        rows.append((float(tilt), float(abs(transfer[out_pos, in_pos]) ** 2)))
    return rows


def hex_rows(rows):
    return [(t.hex(), e.hex()) for t, e in rows]


def phased_permutation(n, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n)[rng.permutation(n)] * np.exp(1j * rng.uniform(0, 6.28, n))


def multiplex_stack(unitary, index_modulation=1e-3):
    modes = make_cone_basis(geometry(unitary.shape[0]))
    holograms = (
        compile_multiplex(unitary, modes, index_modulation=index_modulation),
        compile_redirection(modes, index_modulation=index_modulation),
    )
    return GratingStack(holograms=holograms, mode_set=modes)


STACKS = {
    # RK4 route under crosstalk: parasitic detunings that no potential fits.
    "teleport": lambda: multiplex_stack(TELEPORT_UNITARY_UNCONDITIONAL_Z),
    "phased4": lambda: multiplex_stack(phased_permutation(4, 5)),
    "phased8": lambda: multiplex_stack(phased_permutation(8, 3)),
    # Exact route: the CNOT gratings' parasitic fringes fit a potential.
    "cnot": lambda: compile_signed_permutation_stack(
        CNOT_MATRIX, make_cone_basis(geometry(4))
    ),
    "haar4": lambda: multiplex_stack(haar_unitary(4, np.random.default_rng(11))),
}


@pytest.mark.parametrize(
    "name, crosstalk, tilt_range, samples",
    [
        ("teleport", True, 2e-3, 3),
        ("phased4", True, 1.7e-3, 9),
        ("phased8", True, 2.5e-3, 2),
        ("cnot", True, 1e-3, 3),
        ("cnot", True, 2e-3, 65),
        ("haar4", False, 3e-3, 2),
        ("haar4", False, 3e-3, 65),
    ],
)
def test_rows_match_per_tilt_loop(name, crosstalk, tilt_range, samples, material):
    stack = STACKS[name]()
    ours = selectivity_sweep(stack, material, tilt_range, samples, include_crosstalk=crosstalk)
    reference = reference_sweep(stack, material, tilt_range, samples, crosstalk)
    assert hex_rows(ours) == hex_rows(reference)


def test_rk4_route_sweep_takes_one_stacked_call(material, monkeypatch):
    stack = STACKS["phased4"]()
    calls = []
    integrate = cmt._integrate

    def counted(kappa, xi, thickness, steps):
        calls.append(kappa.shape)
        return integrate(kappa, xi, thickness, steps)

    monkeypatch.setattr(cmt, "_integrate", counted)
    selectivity_sweep(stack, material, 2e-3, 3, include_crosstalk=True)
    # The multiplex slab is RK4 at every tilt; the redirection slab is exact.
    assert calls == [(3, 8, 8)]


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_tilt_batch_edges(per_batch, material, monkeypatch):
    stack = STACKS["phased4"]()
    reference = reference_sweep(stack, material, 2e-3, 7, True)
    monkeypatch.setattr(cmt, "_BATCH_BYTES", 16 * 8 * 8 * per_batch)
    ours = selectivity_sweep(stack, material, 2e-3, 7, include_crosstalk=True)
    assert hex_rows(ours) == hex_rows(reference)


def test_tilt_shift_is_taken_once_per_tilt(material, monkeypatch):
    stack = STACKS["cnot"]()
    rebuilt = []
    monkeypatch.setattr(cmt, "replace", lambda *a, **k: rebuilt.append(1) or replace(*a, **k))
    selectivity_sweep(stack, material, 1e-3, 3)
    # Two tilted samples, shared by the stack's four gratings.
    assert len(stack.holograms) == 4 and len(rebuilt) == 2


# -- the stacked integrator --------------------------------------------------


def inconsistent_cycle():
    """Three modes coupled in a cycle whose detunings no potential explains."""
    kappa = np.array([[0.0, 1.0, 0.7j], [1.0, 0.0, 0.5], [-0.7j, 0.5, 0.0]])
    xi = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
    return CouplingSystem(
        modes=make_cone_basis(geometry(2)).universe[:3],
        kappa=kappa,
        xi=xi,
        recorded_mask=np.ones((3, 3), dtype=bool),
        exposure_strengths=(1.0,),
    )


def potential_shifts(rates):
    """Per-mode shifts that add rate to mode 1's detunings."""
    return [np.array([0.0, rate, 0.0]) for rate in rates]


def assert_slices_identical(stacked, singles):
    assert stacked.shape == (len(singles), *singles[0].shape)
    for ours, single in zip(stacked, singles):
        assert ours.tobytes() == single.tobytes()
        assert np.array_equal(np.signbit(ours.view(float)), np.signbit(single.view(float)))


@pytest.mark.parametrize(
    "budget",
    [
        1,                  # one step per chunk
        48 * 6 * 3 * 1500,  # one chunk longer than the slab
        48 * 6 * 3 * 7,     # 1,000 steps: a last chunk of 6
        48 * 6 * 7,         # seven steps for one slab are two for three
    ],
)
def test_stacked_integrate_matches_single_calls(budget, monkeypatch):
    system = inconsistent_cycle()
    slabs = [
        cmt._select_system(system, True, shift)
        for shift in potential_shifts([0.0, 3.0, -7.5])
    ]
    singles = [cmt._integrate(kappa, xi, 1.0, 1000) for kappa, xi in slabs]
    monkeypatch.setattr(cmt, "_PHASE_BUDGET_BYTES", budget)
    kappas, xis = (np.stack(part) for part in zip(*slabs))
    assert_slices_identical(cmt._integrate(kappas, xis, 1.0, 1000), singles)


def test_teleport_tilts_stack_bit_for_bit(modes8, material):
    system = build_coupling(compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8),
                            modes8, material)
    thickness = cmt.optimal_thickness(system)
    slabs = [cmt._select_system(system, True, cmt._tilt_shift(system.modes, t, modes8.signals[0]))
             for t in (0.0, 1e-3, 2e-3)]
    singles = [cmt._integrate(kappa, xi, thickness, 1200) for kappa, xi in slabs]
    kappas, xis = (np.stack(part) for part in zip(*slabs))
    assert_slices_identical(cmt._integrate(kappas, xis, thickness, 1200), singles)


def test_tilt_groups_of_different_step_counts(monkeypatch):
    system = inconsistent_cycle()
    tilts = potential_shifts([0.0, 200.0, 5.0, 100.0, -199.7])
    steps = [cmt._step_count(*cmt._select_system(system, True, s), 1.0) for s in tilts]
    assert steps == [1000, 2574, 1000, 1300, 2574]
    singles = [cmt._slab_transfers(system, 1.0, True, [tilt])[0][0] for tilt in tilts]
    calls = []
    integrate = cmt._integrate
    monkeypatch.setattr(cmt, "_integrate", lambda *args: calls.append(args[3]) or integrate(*args))
    ours, error = cmt._slab_transfers(system, 1.0, True, tilts)
    assert error is None and sorted(calls) == [1000, 1300, 2574]
    for transfer, single in zip(ours, singles):
        assert transfer.tobytes() == single.tobytes()


# -- failures ----------------------------------------------------------------


def outcome(run):
    try:
        return run()
    except Exception as error:  # compared by type and message
        return type(error), str(error)


def scale_slices(targets):
    """`_integrate` with each slice whose xi equals a target's scaled by its factor."""
    integrate = cmt._integrate

    def scaled(kappa, xi, thickness, steps):
        out = integrate(kappa, xi, thickness, steps)
        n = xi.shape[-1]
        for transfer, detunings in zip(out.reshape(-1, n, n), xi.reshape(-1, n, n)):
            for target, factor in targets:
                if np.array_equal(detunings, target):
                    transfer *= factor
        return out

    return scaled


@pytest.mark.parametrize(
    "failing",
    [
        [(1, 1, 1.01), (2, 0, 1.02)],  # met first at tilt 1 of the second slab
        [(1, 0, 1.02), (0, 1, 1.01)],  # met first at tilt 0 of the second slab
        [(1, 0, 1.02), (2, 1, 1.01)],  # met first at tilt 1 of the first slab
        [(2, 0, 1.03)],
    ],
    ids=["later-slab-earlier-tilt", "untilted-later-slab", "first-slab-first", "one-slice"],
)
def test_non_unitary_slice_fails_as_per_tilt_loop(failing, material, monkeypatch):
    modes = make_cone_basis(geometry(4))
    holograms = tuple(compile_multiplex(phased_permutation(4, seed), modes) for seed in (5, 6))
    stack = tune_stack(GratingStack(holograms=holograms, mode_set=modes), material)
    source = cmt._dominant_input(stack.holograms[0], modes)
    tilts = np.linspace(0.0, 2e-3, 3).tolist()
    systems = [build_coupling(h, modes, material) for h in stack.holograms]
    targets = [(cmt._select_system(systems[slab], True, cmt._tilt_shift(
        systems[slab].modes, tilts[tilt], source))[1], factor) for tilt, slab, factor in failing]
    monkeypatch.setattr(cmt, "_integrate", scale_slices(targets))
    ours = outcome(lambda: selectivity_sweep(stack, material, 2e-3, 3, include_crosstalk=True))
    reference = outcome(lambda: reference_sweep(stack, material, 2e-3, 3, True))
    assert ours[0] is FloatingPointError and "not unitary" in ours[1]
    assert ours == reference


def test_too_stiff_tilt_exits_as_per_tilt_loop(tmp_path, capsys):
    stack = multiplex_stack(haar_unitary(4, np.random.default_rng(2)), index_modulation=1e-6)
    plan = tmp_path / "plan.json"
    formats.dump_json(formats.plan_to_dict(stack), plan)
    # Both slabs are too stiff at the last tilt, with step counts of their own.
    read = formats.plan_from_dict(formats.load_json(plan))
    reference = outcome(lambda: reference_sweep(read, None, 1.2, 3))
    holograms = tune_stack(read, None).holograms
    source = cmt._dominant_input(holograms[0], read.mode_set)
    shift = cmt._tilt_shift(read.mode_set.universe, 1.2, source)
    stiff = [outcome(lambda: cmt._step_count(*cmt._select_system(
        build_coupling(h, read.mode_set), False, shift), h.thickness)) for h in holograms]
    assert reference == stiff[0] != stiff[1] and reference[0] is StepUnderflow
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--plan", str(plan), "--tilt-range", "1.2", "--samples", "3",
                 "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: StepUnderflow: {reference[1]}\n"


# -- the exact route, stacked ------------------------------------------------


def exact_reference(system, thickness, crosstalk, shift):
    """The exact-route transfer of one shift as the per-shift loop built it:
    the 2-D helpers' detunings and potential, then one 2-D eigh."""
    kappa, xi = cmt._select_system(system, crosstalk, shift)
    cmt._step_count(kappa, xi, thickness)
    potential, residual = cmt._potential(kappa, xi)
    assert residual * thickness <= cmt._POTENTIAL_TOL
    eigenvalues, eigenvectors = np.linalg.eigh(kappa - np.diag(potential))
    exact = (eigenvectors * np.exp(1j * thickness * eigenvalues)) @ eigenvectors.conj().T
    return np.exp(1j * thickness * potential)[:, None] * exact


EXACT_STACKS = {
    "teleport": lambda: multiplex_stack(TELEPORT_UNITARY_UNCONDITIONAL_Z),
    "cnot": STACKS["cnot"],
    "haar4": STACKS["haar4"],
    "haar8": lambda: multiplex_stack(haar_unitary(8, np.random.default_rng(8))),
    "haar16": lambda: multiplex_stack(haar_unitary(16, np.random.default_rng(16))),
}


def sweep_slabs(stack, material, tilt_range, samples):
    """Each tuned slab's (system, thickness), and the shifts of a sweep's tilts."""
    holograms = tune_stack(stack, material).holograms
    source = cmt._dominant_input(holograms[0], stack.mode_set)
    shifts = [cmt._tilt_shift(stack.mode_set.universe, tilt, source)
              for tilt in np.linspace(0.0, tilt_range, samples).tolist()]
    return [(build_coupling(h, stack.mode_set, material), h.thickness) for h in holograms], shifts


@pytest.mark.parametrize("samples", [1, 2, 9, 65])
@pytest.mark.parametrize("name, crosstalk", [
    ("teleport", False), ("cnot", False), ("cnot", True),
    ("haar4", False), ("haar8", False), ("haar16", False),
])
def test_exact_slices_match_single_shift_calls(name, crosstalk, samples, material, monkeypatch):
    monkeypatch.setattr(cmt, "_integrate", lambda *args: pytest.fail("an exact slab integrated"))
    slabs, shifts = sweep_slabs(EXACT_STACKS[name](), material, 2e-3, max(samples, 2))
    # One sample is one tilted shift; more start with the untilted one (None).
    shifts = shifts[-samples:]
    for system, thickness in slabs:
        stacked, error = cmt._slab_transfers(system, thickness, crosstalk, shifts)
        assert error is None and len(stacked) == samples
        singles = [cmt._slab_transfers(system, thickness, crosstalk, [shift])[0][0]
                   for shift in shifts]
        assert_slices_identical(np.array(stacked), singles)
        references = [exact_reference(system, thickness, crosstalk, shift) for shift in shifts]
        assert_slices_identical(np.array(stacked), references)


def test_exact_sweep_takes_one_stacked_eigh_per_slab(material, monkeypatch):
    stack = EXACT_STACKS["haar8"]()
    calls = []
    exact = cmt._hermitian_exp
    monkeypatch.setattr(cmt, "_hermitian_exp",
                        lambda matrix, thickness: calls.append(matrix.shape) or exact(matrix, thickness))
    rows = selectivity_sweep(stack, material, 2e-3, 9)
    assert calls == [(9, 16, 16)] * 2
    assert hex_rows(rows) == hex_rows(reference_sweep(stack, material, 2e-3, 9))


@pytest.mark.parametrize("n, batch", [(8, 3), (16, 9), (32, 65)])
def test_stacked_hermitian_exp_matches_2d_calls(n, batch):
    rng = np.random.default_rng(n * batch)
    z = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
    matrices = z + np.swapaxes(z.conj(), -1, -2)
    singles = [cmt._hermitian_exp(matrix, 0.37) for matrix in matrices]
    assert_slices_identical(cmt._hermitian_exp(matrices, 0.37), singles)


def consistent_chain():
    """Three modes coupled in a chain whose detunings come from a potential."""
    kappa = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5j], [0.0, -0.5j, 0.0]])
    potential = np.array([0.0, 0.4, -0.3])
    modes = tuple(PlaneWaveMode(Role.SIGNAL, i + 1, i * TWO_PI / 3, 0.1, TWO_PI) for i in range(3))
    return CouplingSystem(
        modes=modes,
        kappa=kappa,
        xi=potential[:, None] - potential[None, :],
        recorded_mask=np.ones((3, 3), dtype=bool),
        exposure_strengths=(1.0,),
    )


def test_exact_tilts_of_different_step_counts_share_one_stack(monkeypatch):
    system = consistent_chain()
    shifts = [None, *potential_shifts([200.0, 5.0, 100.0, -199.7])]
    steps = [cmt._step_count(*cmt._select_system(system, False, s), 1.0) for s in shifts]
    assert steps == [1000, 2581, 1000, 1308, 2564]
    singles = [exact_reference(system, 1.0, False, shift) for shift in shifts]
    calls = []
    exact = cmt._hermitian_exp
    monkeypatch.setattr(cmt, "_hermitian_exp",
                        lambda matrix, thickness: calls.append(matrix.shape) or exact(matrix, thickness))
    ours, error = cmt._slab_transfers(system, 1.0, False, shifts)
    assert error is None and calls == [(5, 3, 3)]
    assert_slices_identical(np.array(ours), singles)


def test_batched_potential_and_step_bound_match_each_slice(material):
    slabs, shifts = sweep_slabs(EXACT_STACKS["teleport"](), material, 2e-3, 9)
    system, thickness = slabs[0]
    stacked = np.array([np.zeros(len(system.modes)) if s is None else s for s in shifts])
    kappa, xis = cmt._select_system(system, True, stacked)
    potentials, residuals = cmt._potential(kappa, xis)
    counts = list(cmt._step_count(kappa, xis, thickness))
    for xi, potential, residual, steps in zip(xis, potentials, residuals, counts):
        single_potential, single_residual = cmt._potential(kappa, xi)
        assert potential.tobytes() == single_potential.tobytes()
        assert residual == single_residual and steps == cmt._step_count(kappa, xi, thickness)


def test_too_stiff_exact_tilt_fails_as_per_tilt_loop(material):
    stack = multiplex_stack(haar_unitary(4, np.random.default_rng(2)), index_modulation=1e-6)
    slabs, shifts = sweep_slabs(stack, None, 1.2, 5)
    system, thickness = slabs[0]
    # Only the last tilt is too stiff; the four before it take the exact route.
    outcomes = [outcome(lambda: cmt._step_count(*cmt._select_system(system, False, s), thickness))
                for s in shifts]
    assert [type(o) for o in outcomes] == [int] * 4 + [tuple] and outcomes[4][0] is StepUnderflow
    ours, error = cmt._slab_transfers(system, thickness, False, shifts)
    assert (type(error), str(error)) == outcomes[4] and len(ours) == 4
    singles = [exact_reference(system, thickness, False, shift) for shift in shifts[:4]]
    assert_slices_identical(np.array(ours), singles)
    assert outcome(lambda: selectivity_sweep(stack, None, 1.2, 5)) == outcome(
        lambda: reference_sweep(stack, None, 1.2, 5))


def test_failed_stacked_eigh_is_met_at_the_first_exact_tilt(material, monkeypatch):
    stack = EXACT_STACKS["cnot"]()

    def refuse(matrix, thickness):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cmt, "_hermitian_exp", refuse)
    slabs, shifts = sweep_slabs(stack, material, 1e-3, 3)
    assert cmt._slab_transfers(*slabs[0], False, shifts)[0] == []
    ours = outcome(lambda: selectivity_sweep(stack, material, 1e-3, 3))
    assert ours == (np.linalg.LinAlgError, "Eigenvalues did not converge")
    assert ours == outcome(lambda: reference_sweep(stack, material, 1e-3, 3))
