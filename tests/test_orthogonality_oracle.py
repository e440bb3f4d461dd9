"""Hologram's Gram-matrix orthogonality check against the pairwise loop.

`reference_overlap` and `reference_accepts` keep the original check: every
exposure pair's overlap summed through dict lookups, one pair at a time.
`Hologram` now forms one Gram matrix over the modes the exposures use and
must accept and reject exactly the holograms the pairwise loop does, with
the same overlap magnitudes.
"""

import math

import numpy as np
import pytest

import hologate.compiler as compiler
from hologate.compiler import _ORTHOGONALITY_TOL, Exposure, Hologram
from hologate.modes import make_cone_basis

from conftest import geometry, haar_unitary


def reference_overlap(a, b):
    return sum(
        a.coefficients[m].conjugate() * c for m, c in b.coefficients.items()
        if m in a.coefficients
    )


def reference_accepts(exposures):
    for i, a in enumerate(exposures):
        for b in exposures[i + 1 :]:
            if abs(reference_overlap(a, b)) > _ORTHOGONALITY_TOL:
                return False
    return True


def engine_accepts(exposures):
    try:
        Hologram(exposures=exposures)
    except ValueError as exc:
        assert "must be orthogonal" in str(exc)
        return False
    return True


def exposures_of(rows, modes):
    """Exposure i records sum_j conj(rows[i, j])|S_j> against R_i, as compile_multiplex does."""
    return tuple(
        Exposure(
            partner=modes.references[i],
            coefficients={modes.signals[j]: np.conj(v) for j, v in enumerate(row) if v != 0},
        )
        for i, row in enumerate(rows)
    )


def haar(n, seed=0):
    return haar_unitary(n, np.random.default_rng(seed))


def near_pair(epsilon):
    """Two rows whose overlap has magnitude `epsilon`, at a generic phase."""
    return np.array([
        [1.0, 0.0],
        [epsilon * np.exp(0.7j), math.sqrt(1.0 - epsilon * epsilon)],
    ])


def nudged_haar(n, delta):
    """A Haar unitary whose row 2 leans toward row 1 by `delta`, renormalised."""
    rows = haar(n, seed=n)
    leaned = rows[2] + delta * rows[1]
    rows[2] = leaned / np.linalg.norm(leaned)
    return rows


def duplicated(n):
    rows = haar(n)
    rows[3] = rows[1]
    return rows


def disjoint(n):
    """Each row on its own pair of signal modes, no mode shared."""
    rows = np.zeros((n // 2, n), dtype=complex)
    rng = np.random.default_rng(n)
    for i in range(n // 2):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        rows[i, 2 * i : 2 * i + 2] = pair / np.linalg.norm(pair)
    return rows


def mixed(n):
    """Row 5 replaced by the normalised mix of rows 3 and 4."""
    rows = haar(n)
    mix = rows[3] + rows[4]
    rows[5] = mix / np.linalg.norm(mix)
    return rows


CASES = {
    **{f"haar-{n}": (n, haar(n, seed=n), True) for n in (2, 3, 4, 5, 8, 13, 16, 32, 64)},
    "overlap-0.5e-10": (2, near_pair(0.5e-10), True),
    "overlap-2e-10": (2, near_pair(2e-10), False),
    "haar-8-overlap-0.5e-10": (8, nudged_haar(8, 0.5e-10), True),
    "haar-8-overlap-2e-10": (8, nudged_haar(8, 2e-10), False),
    "duplicated-superposition": (4, duplicated(4), False),
    "disjoint-supports": (8, disjoint(8), True),
    "single-exposure": (4, haar(4)[:1], True),
    "haar-64-mixed-row": (64, mixed(64), False),
}


@pytest.mark.parametrize("name", CASES)
def test_gram_check_matches_pairwise_loop(name):
    n, rows, accepted = CASES[name]
    exposures = exposures_of(rows, make_cone_basis(geometry(n)))
    assert reference_accepts(exposures) is accepted
    assert engine_accepts(exposures) is accepted


@pytest.mark.parametrize("name", ["haar-16", "haar-8-overlap-2e-10", "haar-64-mixed-row"])
def test_gram_magnitudes_match_pairwise_overlaps(name):
    n, rows, _ = CASES[name]
    exposures = exposures_of(rows, make_cone_basis(geometry(n)))
    gram = compiler._gram(compiler._fringe_table(exposures))
    for i, a in enumerate(exposures):
        for j, b in enumerate(exposures):
            assert gram[i, j] == pytest.approx(abs(reference_overlap(a, b)), abs=1e-14)


def test_distinct_partners_still_required():
    modes = make_cone_basis(geometry(4))
    first, second = exposures_of(haar(4)[:2], modes)
    clash = Exposure(partner=first.partner, coefficients=second.coefficients)
    with pytest.raises(ValueError, match="distinct partner waves"):
        Hologram(exposures=(first, clash))
