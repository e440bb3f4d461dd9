import json

import numpy as np
import pytest

from hologate.circuit import (
    ClassicallyControlledGate,
    Gate,
    GateKind,
    Measurement,
    PAULI_Z,
    circuit_unitary,
    defer_measurements,
    teleportation_circuit,
    without_terminal_measurements,
)
from hologate.compiler import (
    GratingStack,
    compile_multiplex,
    compile_redirection,
)
from hologate.formats import (
    FileFormatError,
    circuit_from_dict,
    circuit_to_dict,
    dump_json,
    geometry_from_dict,
    geometry_to_dict,
    load_json,
    material_from_dict,
    material_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    plan_from_dict,
    plan_to_dict,
    write_sweep_csv,
)

from conftest import geometry, haar_unitary


class TestGeometryMaterial:
    def test_geometry_round_trip(self, geom8):
        assert geometry_from_dict(geometry_to_dict(geom8)) == geom8

    def test_material_round_trip(self, material):
        assert material_from_dict(material_to_dict(material)) == material

    def test_missing_field(self):
        with pytest.raises(FileFormatError):
            geometry_from_dict({"n": 4})


class TestMatrix:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(9)
        matrix = haar_unitary(8, rng)
        back = matrix_from_dict(matrix_to_dict(matrix))
        assert np.array_equal(matrix, back)

    def test_json_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        matrix = haar_unitary(4, rng)
        path = tmp_path / "m.json"
        dump_json(matrix_to_dict(matrix), path)
        assert np.array_equal(matrix_from_dict(load_json(path)), matrix)

    def test_entry_count_checked(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_must_be_positive(self, dim):
        # -2 squared matches the four entries, and reshape(-2, -2) fails unnamed.
        with pytest.raises(FileFormatError, match="'dim' must be positive"):
            matrix_from_dict({"dim": dim, "entries": [[1.0, 0.0]] * 4})


class TestCircuit:
    def test_teleportation_round_trip(self):
        circuit = teleportation_circuit()
        back = circuit_from_dict(circuit_to_dict(circuit))
        assert back.width == circuit.width
        u1 = circuit_unitary(without_terminal_measurements(defer_measurements(circuit)))
        u2 = circuit_unitary(without_terminal_measurements(defer_measurements(back)))
        assert np.array_equal(u1, u2)

    def test_payload_gate_round_trip(self):
        circuit = type(teleportation_circuit())(
            width=2,
            elements=(
                Gate(GateKind.CONTROLLED_U, (1, 2), PAULI_Z),
                Measurement(1),
                ClassicallyControlledGate(Gate(GateKind.X, (2,)), 1),
            ),
        )
        back = circuit_from_dict(circuit_to_dict(circuit))
        assert isinstance(back.elements[0], Gate)
        assert np.array_equal(back.elements[0].payload, PAULI_Z)

    def test_unknown_gate_name(self):
        with pytest.raises(FileFormatError):
            circuit_from_dict(
                {"width": 1, "elements": [{"kind": "gate", "name": "toffoli", "wires": [1]}]}
            )


class TestPlan:
    def build_stack(self, modes):
        rng = np.random.default_rng(12)
        unitary = haar_unitary(modes.dimension, rng)
        return GratingStack(
            holograms=(
                compile_multiplex(unitary, modes),
                compile_redirection(modes),
            ),
            mode_set=modes,
        ), unitary

    def test_round_trip_preserves_coefficients_exactly(self, modes4):
        stack, _ = self.build_stack(modes4)
        back = plan_from_dict(plan_to_dict(stack))
        assert back.mode_set == stack.mode_set
        for h_orig, h_back in zip(stack.holograms, back.holograms):
            assert h_back.label == h_orig.label
            assert h_back.thickness == h_orig.thickness
            for e_orig, e_back in zip(h_orig.exposures, h_back.exposures):
                assert e_back.partner == e_orig.partner
                assert e_back.phase == e_orig.phase
                assert e_back.index_modulation == e_orig.index_modulation
                assert e_back.coefficients == e_orig.coefficients

    def test_file_round_trip(self, modes4, tmp_path):
        stack, _ = self.build_stack(modes4)
        path = tmp_path / "plan.json"
        dump_json(plan_to_dict(stack), path)
        back = plan_from_dict(load_json(path))
        assert plan_to_dict(back) == plan_to_dict(stack)

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(FileFormatError):
            plan_from_dict({"format": "something-else"})

    def test_serialization_is_deterministic(self, modes4, tmp_path):
        stack, _ = self.build_stack(modes4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(plan_to_dict(stack), a)
        dump_json(plan_to_dict(stack), b)
        assert a.read_bytes() == b.read_bytes()


def _coefficient(index, role, re, im):
    return {"mode": {"index": index, "role": role}, "re": re, "im": im}


COEFFICIENT = _coefficient(2, "signal", 0.5, -0.25)
MODE_KEY = {"index": 3, "role": "reference"}
PAIR = [0.1, -2.5e-300]
#: Items that each miss one shape by one key, type or length.
NEAR_MISSES = [
    _coefficient(2, "signal", 1, 0.5),
    {**COEFFICIENT, "extra": 0},
    {"mode": MODE_KEY, "re": 0.5},
    _coefficient(True, "signal", 0.5, 0.5),
    {"index": 3.0, "role": "signal"},
    {"index": 3, "role": None},
    [0.5, 1],
    [0.5, 1.5, 2.5],
    (0.5, 1.5),
    7,
    True,
    None,
    "signal",
    np.float64(0.75),
]
MIXED_LISTS = {
    "switching": [COEFFICIENT, PAIR, COEFFICIENT, MODE_KEY, 1e16, COEFFICIENT, MODE_KEY, PAIR,
                  -0.0, 5e-324, COEFFICIENT, COEFFICIENT],
    "near-misses-between": [
        item for miss in NEAR_MISSES
        for item in (COEFFICIENT, miss, MODE_KEY, miss, PAIR, miss, 0.125, miss)
    ],
    "runs": [PAIR, PAIR, MODE_KEY, MODE_KEY, _coefficient(9, "refer\u00e9nce\n", -1e-7, 1e300),
             COEFFICIENT, 2.5, 3.5, PAIR, COEFFICIENT],
}


@pytest.mark.parametrize("placement", ["depth 1", "depth 2", "in a tuple"])
@pytest.mark.parametrize("name", sorted(MIXED_LISTS))
def test_mixed_list_shapes_match_the_stdlib(tmp_path, name, placement):
    """One template cache serves coefficients, mode keys, pairs and floats in any order."""
    items = MIXED_LISTS[name]
    payload = {
        "depth 1": {"items": items},
        "depth 2": {"outer": [{"items": items, "tail": [items, 1.5]}]},
        "in a tuple": {"pair": (items, (COEFFICIENT, items))},
    }[placement]
    path = tmp_path / "mixed.json"
    dump_json(payload, path)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestSweepCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([(0.0, 1.0), (1e-3, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tilt_rad,efficiency"
        assert lines[1] == "0.000000000000e+00,1.000000000000e+00"
        tilt, eff = lines[2].split(",")
        assert float(tilt) == 1e-3
        assert float(eff) == 0.25
