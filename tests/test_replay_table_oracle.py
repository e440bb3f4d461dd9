"""Builds that read a mode set's kept replays against builds on a fresh set.

Pass 2 of `cmt.build_coupling` keeps each recorded pair's confirmed
parasitic replays on its `ModeSet` (`ModeSet._replays`) and searches only
the pairs that no earlier build on the set asked for.  A build on a warm
set must equal, sign bits included, the same build on a fresh set, which
searches every pair, whatever ran on the warm set before and in whichever
order.  The kept replays must be the search's own, entry for entry; a warm
build must not search; and a set keeps at most (2N)**2 replays, none for a
build that would take it past that.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import build_coupling, simulate_stack, tune_stack
from hologate.compiler import (
    GratingStack,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.modes import ModeSet

from conftest import geometry, haar_unitary
from test_parasitic_search_oracle import TINY_APERTURE, broadcast_build

APERTURES = {"5mm": 5e-3, "0.2mm": 2e-4, "30um": 3e-5}


def phased_permutation(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0.0, 6.28, n))
    return matrix


def multiplex(unitary):
    return lambda modes: (compile_multiplex(unitary, modes), compile_redirection(modes))


#: Plans by name: the dimension and a compiler of its holograms onto a mode set.
PLANS = {
    **{f"haar-{n}": (n, multiplex(haar_unitary(n, np.random.default_rng(n))))
       for n in (2, 4, 8, 16, 32)},
    **{f"phased-permutation-{n}": (n, multiplex(phased_permutation(n, n + 3))) for n in (4, 8, 16)},
    "teleport": (8, multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z)),
    "cnot-stack": (4, lambda modes: compile_signed_permutation_stack(CNOT_MATRIX, modes).holograms),
}


def modes_of(n, aperture):
    return ModeSet(replace(geometry(n), aperture_breadth=aperture))


def same_system(system, reference):
    assert system.kappa.tobytes() == reference.kappa.tobytes()
    assert system.xi.tobytes() == reference.xi.tobytes()
    assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
    assert system.merged_replays == reference.merged_replays
    assert system.exposure_strengths == reference.exposure_strengths


def fresh_systems(name, aperture):
    """Each hologram of the plan built on a mode set of its own, which searches every pair."""
    n, plan = PLANS[name]
    systems = []
    for k in range(len(plan(modes_of(n, aperture)))):
        modes = modes_of(n, aperture)
        systems.append(build_coupling(plan(modes)[k], modes))
    return systems


def warm_systems(name, modes):
    """The plan compiled anew and built on `modes`, whose table earlier builds filled."""
    return [build_coupling(hologram, modes) for hologram in PLANS[name][1](modes)]


def plans_of(n):
    return [name for name, (size, _) in PLANS.items() if size == n]


@pytest.mark.parametrize("aperture", APERTURES)
@pytest.mark.parametrize("name", PLANS)
def test_warm_build_equals_fresh_build(name, aperture):
    n = PLANS[name][0]
    modes = modes_of(n, APERTURES[aperture])
    for other in plans_of(n):  # every plan of this size first, this one among them
        warm_systems(other, modes)
    for system, reference in zip(warm_systems(name, modes), fresh_systems(name, APERTURES[aperture])):
        same_system(system, reference)


@pytest.mark.parametrize("aperture", APERTURES)
@pytest.mark.parametrize("first, second", [("haar-8", "teleport"), ("haar-4", "cnot-stack"),
                                           ("phased-permutation-16", "haar-16")])
def test_build_order_does_not_matter(first, second, aperture):
    n = PLANS[first][0]
    one, other = modes_of(n, APERTURES[aperture]), modes_of(n, APERTURES[aperture])
    forward = {name: warm_systems(name, one) for name in (first, second)}
    backward = {name: warm_systems(name, other) for name in (second, first)}
    for name in (first, second):
        for a, b, reference in zip(forward[name], backward[name],
                                   fresh_systems(name, APERTURES[aperture])):
            same_system(a, reference)
            same_system(b, reference)


@pytest.mark.parametrize("include_crosstalk", [False, True])
@pytest.mark.parametrize("name", ["phased-permutation-4", "phased-permutation-8", "teleport",
                                  "cnot-stack"])
def test_warm_transfer_equals_fresh_transfer(name, include_crosstalk, material):
    n, plan = PLANS[name]
    transfers = []
    for warm in (False, True):
        modes = modes_of(n, 5e-3)
        if warm:
            for other in plans_of(n):
                warm_systems(other, modes)
        stack = tune_stack(GratingStack(holograms=tuple(plan(modes)), mode_set=modes), material)
        result = simulate_stack(stack, material, include_crosstalk=include_crosstalk)
        transfers.append((result.transfer.tobytes(), result.merged_replays))
    assert transfers[0] == transfers[1]


@pytest.mark.parametrize("aperture", APERTURES)
@pytest.mark.parametrize("name", ["haar-8", "teleport", "cnot-stack", "haar-16"])
def test_kept_replays_are_the_searchs_own(name, aperture):
    # Pair q's kept run is what `_confirmed` yields for a fringe on q, hit for
    # hit and in the same ascending pair order.
    n, plan = PLANS[name]
    modes = modes_of(n, APERTURES[aperture])
    kept = modes._replays
    for hologram in plan(modes):
        build_coupling(hologram, modes)
        table = hologram._fringes
        positions = table.positions(modes)
        m, p = positions[table.component], positions[table.partner]
        own = m * 2 * n + p
        if (kept.start[own] < 0).any():
            continue  # past the limit: nothing of this build was kept
        gratings = modes.wave_vectors[m] - modes.wave_vectors[p]
        blocks = list(cmt._confirmed(modes, own, gratings, len(own) * 4 * n * n))
        searched = [np.concatenate(column) for column in zip(*blocks)]
        for found, read in zip(searched, kept.take(own)):
            assert found.tobytes() == read.astype(found.dtype).tobytes()


def counting_near_pairs(monkeypatch):
    calls = []
    near_pairs = cmt._near_pairs

    def counted(*args):
        calls.append(len(args[1]))
        return near_pairs(*args)

    monkeypatch.setattr(cmt, "_near_pairs", counted)
    return calls


@pytest.mark.parametrize("name", ["haar-16", "teleport", "cnot-stack"])
def test_warm_build_does_not_search(name, monkeypatch):
    calls = counting_near_pairs(monkeypatch)
    n = PLANS[name][0]
    modes = modes_of(n, 5e-3)
    warm_systems(name, modes)
    assert calls
    searched = len(calls)
    warm_systems(name, modes)
    assert len(calls) == searched


def test_a_build_searches_only_pairs_not_kept(monkeypatch):
    # A Haar multiplex records every (signal, reference) pair, so after it a
    # phased permutation's multiplex searches nothing; the redirection records
    # the reverse orientation, whose replays are searched once.
    calls = counting_near_pairs(monkeypatch)
    modes = modes_of(8, 5e-3)
    haar, redirection = PLANS["haar-8"][1](modes)
    build_coupling(haar, modes)
    assert calls == [64]
    permutation, redirection = PLANS["phased-permutation-8"][1](modes)
    build_coupling(permutation, modes)
    assert calls == [64]
    build_coupling(redirection, modes)
    assert calls == [64, 8]


@pytest.mark.parametrize("aperture", [*APERTURES.values(), 1e-5])
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_kept_replays_stay_within_the_limit(n, aperture):
    modes = modes_of(n, aperture)
    for name in plans_of(n):
        warm_systems(name, modes)
    kept = modes._replays
    assert kept.limit == (2 * n) ** 2
    assert len(kept.pair) == len(kept.detuning) <= kept.limit
    searched = kept.start >= 0
    assert (kept.count[~searched] == 0).all()
    assert (kept.start[searched] + kept.count[searched] <= len(kept.pair)).all()


def test_a_build_past_the_limit_keeps_nothing():
    # With a 30 um aperture an N = 32 Haar multiplex has far more replays
    # than (2N)**2; its build keeps none and still equals a fresh build.
    modes = modes_of(32, 3e-5)
    first = warm_systems("haar-32", modes)
    kept = modes._replays
    haar = PLANS["haar-32"][1](modes)[0]
    table = haar._fringes
    own = table.positions(modes)[table.component] * 64 + table.positions(modes)[table.partner]
    assert (kept.start[own] < 0).all()
    for system, again, reference in zip(first, warm_systems("haar-32", modes),
                                        fresh_systems("haar-32", 3e-5)):
        same_system(system, reference)
        same_system(again, reference)


@pytest.mark.parametrize("n", [4, 6])
def test_tiny_aperture_keeps_nothing_and_equals_the_broadcast(n, material):
    modes = modes_of(n, TINY_APERTURE)
    hologram = compile_multiplex(haar_unitary(n, np.random.default_rng(n)), modes)
    reference = broadcast_build(hologram, modes, material)
    for _ in range(2):  # the second build finds the table as empty as the first left it
        system = build_coupling(compile_multiplex(haar_unitary(n, np.random.default_rng(n)), modes),
                                modes, material)
        assert system.kappa.tobytes() == reference.kappa.tobytes()
        assert system.xi.tobytes() == reference.xi.tobytes()
        assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
        assert len(modes._replays.pair) == 0 and (modes._replays.start < 0).all()


def test_kept_replays_take_at_most_twice_the_pair_table_at_n64():
    modes = modes_of(64, 5e-3)
    hologram = compile_multiplex(haar_unitary(64, np.random.default_rng(64)), modes)
    modes.wave_vectors
    tracemalloc.start()
    try:
        modes.pair_table
        pair_table = tracemalloc.get_traced_memory()[0]
        build_coupling(hologram, modes)
        hologram = None  # drop the system kept with the hologram's table
        gc.collect()
        replays = tracemalloc.get_traced_memory()[0] - pair_table
    finally:
        tracemalloc.stop()
    assert len(modes._replays.pair) > 0
    assert 0 < replays <= 2 * pair_table
