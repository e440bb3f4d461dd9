"""Each hologram's fringe table against the brute-force coupling build.

A `Hologram` holds its exposures once, as flat arrays in (exposure,
coefficient insertion) order, and `build_coupling` reads them.  These
cases are ones the oracles do not build: a plan read back from its file,
a superposition on both cones, a pair recorded in both orientations, an
explicit zero coefficient and modes from a separately built, equal mode
set.  Each must give `test_coupling_oracle.reference_build`'s bytes.

The counting tests pin the work the table saves: the compilers fill it
from universe positions without hashing a mode or building an `Exposure`,
one `verify` takes each hologram's exposure strengths once, and a replay
dropped as degenerate never has its coupling strength computed.
"""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cli import main
from hologate.cmt import build_coupling
from hologate.compiler import (
    Exposure,
    GratingStack,
    Hologram,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.formats import dump_json, load_json, matrix_to_dict, plan_from_dict, plan_to_dict
from hologate.modes import ModeSet, PlaneWaveMode, make_cone_basis

from conftest import geometry, haar_unitary
from test_coupling_oracle import reference_build


def assert_reference_bytes(hologram, modes, material=None):
    reference, _, _ = reference_build(hologram, modes, material)
    system = build_coupling(hologram, modes, material)
    assert system.kappa.tobytes() == reference.kappa.tobytes()
    assert system.xi.tobytes() == reference.xi.tobytes()
    assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
    assert system.exposure_strengths == reference.exposure_strengths
    return system


@pytest.mark.parametrize("name", ["teleport", "haar-8"])
def test_plan_read_back_from_its_file(tmp_path, name, material):
    modes = make_cone_basis(geometry(8))
    unitary = (TELEPORT_UNITARY_UNCONDITIONAL_Z if name == "teleport"
               else haar_unitary(8, np.random.default_rng(17)))
    stack = GratingStack((compile_multiplex(unitary, modes), compile_redirection(modes)), modes)
    dump_json(plan_to_dict(stack), tmp_path / "plan.json")
    back = plan_from_dict(load_json(tmp_path / "plan.json"))
    for original, read in zip(stack.holograms, back.holograms):
        system = assert_reference_bytes(read, back.mode_set, material)
        ours = build_coupling(original, modes, material)
        assert system.kappa.tobytes() == ours.kappa.tobytes()
        assert system.xi.tobytes() == ours.xi.tobytes()


def test_superposition_on_both_cones(material):
    modes = make_cone_basis(geometry(4))
    (s1, s2, s3, _), (r1, r2, r3, _) = modes.signals, modes.references
    c = 1.0 / np.sqrt(3.0)
    hologram = Hologram((
        Exposure(r1, {s1: c, r2: c * np.exp(0.4j), s3: -c}),
        Exposure(s2, {r3: np.exp(-1.1j)}, phase=0.3),
    ))
    system = assert_reference_bytes(hologram, modes, material)
    p, m = modes.position(r1), modes.position(r2)
    assert system.recorded_mask[m, p] and system.xi[m, p] == 0.0


def test_pair_recorded_in_both_orientations(material):
    # S1 -> R1 and R1 -> S1 in one hologram: the first fringe sets the pair's
    # detunings (xi[R1, S1] = -0.0), the second merges onto them.
    modes = make_cone_basis(geometry(4))
    s1, r1 = modes.signals[0], modes.references[0]
    hologram = Hologram((Exposure(r1, {s1: 1.0j}), Exposure(s1, {r1: 1.0}, phase=0.5)))
    system = assert_reference_bytes(hologram, modes, material)
    s, r = modes.position(s1), modes.position(r1)
    assert np.signbit(system.xi[r, s]) and not np.signbit(system.xi[s, r])


def test_explicit_zero_coefficient_stays_a_fringe(material):
    modes = make_cone_basis(geometry(4))
    (s1, s2, *_), r1 = modes.signals, modes.references[0]
    hologram = Hologram((Exposure(r1, {s1: 1.0, s2: 0j}),))
    system = assert_reference_bytes(hologram, modes, material)
    zero = modes.position(s2), modes.position(r1)
    assert system.recorded_mask[zero] and system.kappa[zero] == 0.0
    assert not np.signbit(system.kappa[zero].real) and not np.signbit(system.kappa[zero].imag)


def test_modes_of_an_equal_mode_set(material):
    modes = make_cone_basis(geometry(8))
    twin = ModeSet(geometry(8))
    assert twin == modes and twin.signals[0] is not modes.signals[0]
    hologram = compile_multiplex(haar_unitary(8, np.random.default_rng(5)), twin)
    GratingStack((hologram,), modes)  # the members are equal modes, so accepted
    assert_reference_bytes(hologram, modes, material)


def test_coefficients_are_a_read_only_view():
    modes = make_cone_basis(geometry(2))
    exposure = compile_redirection(modes).exposures[0]
    with pytest.raises(TypeError):
        exposure.coefficients[modes.references[1]] = 1.0


def test_coupling_kept_read_only_and_ceiling_checked_every_call(material):
    modes = make_cone_basis(geometry(4))
    hologram = compile_multiplex(haar_unitary(4, np.random.default_rng(3)), modes)
    system = build_coupling(hologram, modes, material)
    assert build_coupling(hologram.with_thickness(1e-3), modes) is system
    for array in (system.kappa, system.xi, system.recorded_mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    low = replace(material, max_index_modulation=hologram._fringes.delta_n.max() / 2)
    with pytest.raises(ValueError, match="exceeds material ceiling"):
        build_coupling(hologram, modes, low)


def test_plan_survives_pickle_and_deepcopy(material):
    modes = make_cone_basis(geometry(4))
    hologram = compile_multiplex(haar_unitary(4, np.random.default_rng(9)), modes)
    hologram.exposures  # the view is built and kept with the table
    for copied in (pickle.loads(pickle.dumps(hologram)), copy.deepcopy(hologram)):
        assert copied == hologram
        ours = build_coupling(copied, modes, material)
        assert ours.kappa.tobytes() == build_coupling(hologram, modes, material).kappa.tobytes()


def test_compilers_hash_no_mode_and_build_no_exposure(monkeypatch):
    modes = make_cone_basis(geometry(16))
    rng = np.random.default_rng(12)
    permutation = np.eye(16)[rng.permutation(16)] * np.exp(0.3j)
    hashes, built = [], []
    mode_hash, exposure_init = PlaneWaveMode.__hash__, Exposure.__init__

    def counted_hash(mode):
        hashes.append(mode)
        return mode_hash(mode)

    def counted_init(self, *args, **kwargs):
        built.append(args)
        exposure_init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneWaveMode, "__hash__", counted_hash)
    monkeypatch.setattr(Exposure, "__init__", counted_init)
    compile_multiplex(haar_unitary(16, rng), modes)
    compile_redirection(modes)
    assert len(compile_signed_permutation_stack(permutation, modes).holograms) == 32
    assert hashes == [] and built == []
    # The counters see the public path, which builds an Exposure and keys it by mode.
    Hologram((Exposure(modes.references[0], {modes.signals[0]: 1.0}),))
    assert hashes and len(built) == 1


@pytest.fixture()
def verify_argv(tmp_path):
    assert main(["init", "--dimension", "16", "--out-dir", str(tmp_path)]) == 0
    target = tmp_path / "u.json"
    dump_json(matrix_to_dict(haar_unitary(16, np.random.default_rng(16))), target)
    plan = tmp_path / "plan.json"
    assert main(["compile", "--unitary", str(target), "--geometry", str(tmp_path / "geometry.json"),
                 "--out", str(plan)]) == 0
    return ["verify", "--plan", str(plan), "--target", str(target)]


def test_verify_takes_each_hologram_strengths_once(verify_argv, monkeypatch):
    taken = []
    strengths = cmt._exposure_strengths

    def counted(table, wavelength):
        taken.append(table)
        return strengths(table, wavelength)

    monkeypatch.setattr(cmt, "_exposure_strengths", counted)
    assert main(verify_argv) == 0
    assert len(taken) == 2 and taken[0] is not taken[1]


def test_dropped_replays_take_no_strength(verify_argv, monkeypatch):
    # At N = 16 every parasitic replay lands on a recorded pair at another
    # detuning and is dropped, so the builds take no pair strength at all:
    # one per exposure and cone pair, 16 + 16, is all that verify takes.
    calls = []
    pair_strength = cmt._pair_strength

    def counted(*args):
        calls.append(args)
        return pair_strength(*args)

    monkeypatch.setattr(cmt, "_pair_strength", counted)
    assert main(verify_argv) == 0
    assert len(calls) == 32
