"""Plane-wave computational bases on concentric cones.

An N-dimensional state space is carried by N plane waves whose wave
vectors lie on a cone around the hologram normal (z); a second,
concentric cone of distinct half angle carries the N partner waves used
to record and replay gratings.  Fixing the polar angle within each cone
makes every wave of a set share the same z wave-vector component, so a
single thickness can phase-match all recordings of a multiplexed
element simultaneously.

Convention: a wave at polar angle theta and azimuth phi has wave vector
k * (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometry, UnknownMode

TWO_PI = 2.0 * math.pi

#: Largest accepted dimension N.  An aperture small enough to make every
#: pair a candidate leaves pass 2 of `cmt.build_coupling` 4 * N**4 replays
#: of an N-component multiplex to confirm, in blocks of up to 2 * N**3, so
#: a larger N could not be simulated anyway.
MAX_DIMENSION = 256

#: Mode sets `make_cone_basis` keeps per process, the least recently used
#: dropped first.  After a Haar multiplex build on it, a kept set with its
#: pair table and replays holds about 64 kB at N = 16, 0.76 MB at N = 64 and
#: 11.9 MB at N = 256, the replays 30 kB, 0.34 MB and 5.5 MB of that.
MODE_SETS_KEPT = 8


def _require_real(value, error: type[Exception], name: str, low: float = 0.0,
                  high: float = math.inf, rule: str = "be positive and finite", label: str = ""):
    """`value` as a Python float, when it is a real number, not a bool, whose
    float is finite and lies in (low, high).

    Otherwise raise `error`: "<name> must be a real number" for a wrong type,
    else "<label or name> must <rule>, got <value>", with `value` as given.
    """
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int or Fraction beyond float range
        number = math.inf
    if not (math.isfinite(number) and low < number < high):
        raise error(f"{label or name} must {rule}, got {value}")
    return number


class Role(enum.Enum):
    """Which cone a plane wave belongs to."""

    SIGNAL = "signal"
    REFERENCE = "reference"


@dataclass(frozen=True)
class PlaneWaveMode:
    """One plane-wave basis state: a point on a cone at a given azimuth.

    Attributes:
        role: cone membership (signal = computational, reference = partner).
        index: 1-based position around the cone.
        azimuth: rad, wrapped into [0, 2*pi).
        cone_half_angle: rad, in (0, pi/2).
        wavenumber: rad/m, 2*pi / wavelength.
    """

    role: Role
    index: int
    azimuth: float
    cone_half_angle: float
    wavenumber: float

    def __post_init__(self):
        if self.index < 1:
            raise InvalidGeometry(f"mode index must be >= 1, got {self.index}")
        _require_real(self.cone_half_angle, InvalidGeometry, "cone half angle", high=math.pi / 2,
                      rule="lie in (0, pi/2)")
        _require_real(self.wavenumber, InvalidGeometry, "wavenumber")
        object.__setattr__(self, "azimuth", self.azimuth % TWO_PI)


@dataclass(frozen=True)
class ConeGeometry:
    """Shared geometry of the signal and reference cones.

    The two half angles must differ; equal cones would make signal and
    reference waves indistinguishable to the grating.  ``ModeSet(geometry)``
    builds the bases for any ``dimension`` from 1 to ``MAX_DIMENSION``;
    ``make_cone_basis``, which every plan reader and command uses, asks for
    a computational basis, N >= 2.  Each real field is stored as a Python float.
    """

    dimension: int
    signal_half_angle: float
    reference_half_angle: float
    wavelength: float
    aperture_breadth: float
    signal_azimuth_offset: float = 0.0
    reference_azimuth_offset: float = math.pi

    def __post_init__(self):
        try:
            object.__setattr__(self, "dimension", operator.index(self.dimension))
        except TypeError:
            raise InvalidGeometry(f"dimension must be an integer, got {self.dimension!r}") from None
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise InvalidGeometry(
                f"dimension must lie in [1, {MAX_DIMENSION}], got {self.dimension}"
            )
        for name in ("signal_half_angle", "reference_half_angle"):
            object.__setattr__(self, name, _require_real(
                getattr(self, name), InvalidGeometry, name, 0.0, math.pi / 2, "lie in (0, pi/2)"))
        if math.isclose(
            self.signal_half_angle, self.reference_half_angle, rel_tol=1e-12, abs_tol=0.0
        ):
            raise InvalidGeometry("signal and reference cones must have distinct half angles")
        object.__setattr__(self, "wavelength",
                           _require_real(self.wavelength, InvalidGeometry, "wavelength"))
        object.__setattr__(self, "aperture_breadth", _require_real(
            self.aperture_breadth, InvalidGeometry, "aperture_breadth", label="aperture breadth"))
        for name in ("signal_azimuth_offset", "reference_azimuth_offset"):
            object.__setattr__(self, name, _require_real(
                getattr(self, name), InvalidGeometry, name, -math.inf, rule="be finite"))

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength

    @property
    def azimuthal_spacing(self) -> float:
        return TWO_PI / self.dimension


@dataclass(frozen=True)
class ModeSet:
    """Signal and reference bases built from one geometry.

    Each cone carries ``dimension`` waves, indexed 1..N and spaced
    2*pi/N in azimuth from the cone's offset.
    """

    geometry: ConeGeometry
    signals: tuple[PlaneWaveMode, ...] = field(init=False)
    references: tuple[PlaneWaveMode, ...] = field(init=False)

    def __post_init__(self):
        geometry = self.geometry
        k = geometry.wavenumber
        spacing = geometry.azimuthal_spacing

        def ring(role: Role, offset: float, angle: float) -> tuple[PlaneWaveMode, ...]:
            return tuple(
                PlaneWaveMode(
                    role=role,
                    index=i,
                    azimuth=offset + (i - 1) * spacing,
                    cone_half_angle=angle,
                    wavenumber=k,
                )
                for i in range(1, geometry.dimension + 1)
            )

        object.__setattr__(self, "signals", ring(
            Role.SIGNAL, geometry.signal_azimuth_offset, geometry.signal_half_angle
        ))
        object.__setattr__(self, "references", ring(
            Role.REFERENCE, geometry.reference_azimuth_offset, geometry.reference_half_angle
        ))

    @property
    def dimension(self) -> int:
        return self.geometry.dimension

    @functools.cached_property
    def universe(self) -> tuple[PlaneWaveMode, ...]:
        """Canonical ordering of all 2N modes: signals 1..N, then references 1..N."""
        return self.signals + self.references

    @functools.cached_property
    def wave_vectors(self) -> np.ndarray:
        """(2N, 3) wave vectors of `universe`, in its order; read-only, built once."""
        vectors = np.array([wave_vector(mode) for mode in self.universe])
        vectors.flags.writeable = False
        return vectors

    @functools.cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The transverse parts of k_a - k_b over all (2N)**2 pairs of `universe`,
        sorted by x, and each entry's flat pair index a * 2N + b; read-only,
        built once.  Pass 2 of `cmt.build_coupling` searches it only for
        recorded pairs whose replays `_replays` does not hold yet."""
        vectors = self.wave_vectors[:, :2]
        n = len(vectors)
        transverse = (vectors[:, None] - vectors[None, :]).reshape(n * n, 2)
        order = transverse[:, 0].argsort()
        table = transverse[order]
        order.flags.writeable = table.flags.writeable = False
        return table, order

    @functools.cached_property
    def _replays(self) -> _ReplayTable:
        """The parasitic replays pass 2 of `cmt.build_coupling` has confirmed on this set."""
        return _ReplayTable(len(self.universe))

    def find(self, role: Role, index: int) -> PlaneWaveMode:
        listing = self.signals if role is Role.SIGNAL else self.references
        if not 1 <= index <= len(listing):
            raise UnknownMode(f"no {role.value} mode with index {index}")
        return listing[index - 1]

    def position(self, mode: PlaneWaveMode) -> int:
        """Index of `mode` in `universe`, in O(1): the package's one mode-to-position map.

        The slot follows from the mode's role and index, and this set's mode
        there must be `mode` or equal to it; anything else, an object that
        is not a PlaneWaveMode included, raises UnknownMode.
        """
        if isinstance(mode, PlaneWaveMode) and mode.index <= self.dimension:
            signal = mode.role is Role.SIGNAL
            # int(): an equal mode may hold its index as 2.0, say.
            mine = (self.signals if signal else self.references)[int(mode.index) - 1]
            if mine is mode or mine == mode:
                return mine.index - 1 + (0 if signal else self.dimension)
        raise UnknownMode(f"mode {mode} is not part of this set")


_NO_REPLAYS = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)


class _ReplayTable:
    """Confirmed parasitic replays of recorded pairs, filled as builds ask for them.

    A fringe on the ordered pair q = m * 2N + p has grating k_m - k_p, so its
    replays depend on q alone.  They are entries start[q]:start[q] + count[q]
    of `pair` (flat indices a * 2N + b, ascending) and of `detuning` (the z
    part of k_a - k_b - k_m + k_p); start[q] is -1 until q is searched.
    """

    def __init__(self, n: int):
        self.limit = n * n  # entries kept at most
        self.start = np.full(n * n, -1, dtype=np.intp)
        self.count = np.zeros(n * n, dtype=np.intp)
        self.pair = np.zeros(0, dtype=np.intp)
        self.detuning = np.zeros(0)

    def add(self, own: np.ndarray, blocks: list) -> None:
        """Keep the replays of the pairs `own` from (fringe, pair, detuning) blocks
        in fringe order, as `cmt._confirmed` yields them."""
        fringe, pair, detuning = (np.concatenate(column) for column in zip(*blocks, _NO_REPLAYS))
        edges = fringe.searchsorted(np.arange(len(own) + 1))
        self.start[own] = len(self.pair) + edges[:-1]
        self.count[own] = edges[1:] - edges[:-1]
        self.pair = np.concatenate((self.pair, pair))
        self.detuning = np.concatenate((self.detuning, detuning))

    def take(self, own: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fringe, pair, detuning) of the kept replays of the searched pairs `own`,
        own[0]'s first."""
        count = self.count[own]
        fringe = np.arange(len(own)).repeat(count)
        ends = count.cumsum()  # entry k of fringe f's run is at start[own[f]] + k
        index = np.arange(len(fringe)) + (self.start[own] - ends + count)[fringe]
        return fringe, self.pair[index], self.detuning[index]


def make_cone_basis(geometry: ConeGeometry) -> ModeSet:
    """The mode set of `geometry`, which must have dimension >= 2.

    One set is kept per geometry for the process (up to `MODE_SETS_KEPT`),
    so its modes, wave vectors and pair table are built once, and the
    parasitic replays of a recorded pair are searched for once.  Geometries
    share a set only when every stored field has the same repr: 0.0 and
    -0.0 are equal but write different bytes.
    """
    if geometry.dimension < 2:
        raise InvalidGeometry("a computational basis needs dimension >= 2")
    key = (type(geometry), *map(repr, vars(geometry).values()))
    return _kept_mode_set(key, geometry)


@functools.lru_cache(maxsize=MODE_SETS_KEPT)
def _kept_mode_set(key: tuple, geometry: ConeGeometry) -> ModeSet:
    """`make_cone_basis`'s kept sets; `geometry` is equal to any other with its key."""
    return ModeSet(geometry)


def wave_vector(mode: PlaneWaveMode) -> np.ndarray:
    """3-vector (rad/m) of the mode's wave vector; z is the hologram normal."""
    k = mode.wavenumber
    st = math.sin(mode.cone_half_angle)
    return np.array(
        [
            k * st * math.cos(mode.azimuth),
            k * st * math.sin(mode.azimuth),
            k * math.cos(mode.cone_half_angle),
        ]
    )
