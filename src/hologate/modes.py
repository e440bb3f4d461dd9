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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometry, UnknownMode

TWO_PI = 2.0 * math.pi

#: Largest accepted dimension N.  An aperture small enough to make every
#: pair a candidate leaves pass 2 of `cmt.build_coupling` 4 * N**4 replays
#: of an N-component multiplex to confirm, in blocks of up to 2 * N**3, so
#: a larger N could not be simulated anyway.
MAX_DIMENSION = 256


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
        if not 0.0 < self.cone_half_angle < math.pi / 2:
            raise InvalidGeometry(
                f"cone half angle must lie in (0, pi/2), got {self.cone_half_angle}"
            )
        if not 0.0 < self.wavenumber < math.inf:
            raise InvalidGeometry(f"wavenumber must be positive and finite, got {self.wavenumber}")
        object.__setattr__(self, "azimuth", self.azimuth % TWO_PI)


@dataclass(frozen=True)
class ConeGeometry:
    """Shared geometry of the signal and reference cones.

    The two half angles must differ; equal cones would make signal and
    reference waves indistinguishable to the grating.  ``ModeSet(geometry)``
    builds the bases for any ``dimension`` from 1 to ``MAX_DIMENSION``;
    ``make_cone_basis`` asks for a computational basis, N >= 2, while 1
    serves degenerate single-pair plans.
    """

    dimension: int
    signal_half_angle: float
    reference_half_angle: float
    wavelength: float
    aperture_breadth: float
    signal_azimuth_offset: float = 0.0
    reference_azimuth_offset: float = math.pi

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise InvalidGeometry(
                f"dimension must lie in [1, {MAX_DIMENSION}], got {self.dimension}"
            )
        for name, angle in (
            ("signal_half_angle", self.signal_half_angle),
            ("reference_half_angle", self.reference_half_angle),
        ):
            if not 0.0 < angle < math.pi / 2:
                raise InvalidGeometry(f"{name} must lie in (0, pi/2), got {angle}")
        if math.isclose(
            self.signal_half_angle, self.reference_half_angle, rel_tol=1e-12, abs_tol=0.0
        ):
            raise InvalidGeometry("signal and reference cones must have distinct half angles")
        if not 0.0 < self.wavelength < math.inf:
            raise InvalidGeometry(f"wavelength must be positive and finite, got {self.wavelength}")
        if not 0.0 < self.aperture_breadth < math.inf:
            raise InvalidGeometry(
                f"aperture breadth must be positive and finite, got {self.aperture_breadth}"
            )
        for name in ("signal_azimuth_offset", "reference_azimuth_offset"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidGeometry(f"{name} must be finite, got {getattr(self, name)}")

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

    @property
    def universe(self) -> tuple[PlaneWaveMode, ...]:
        """Canonical ordering of all 2N modes: signals 1..N, then references 1..N."""
        return self.signals + self.references

    def find(self, role: Role, index: int) -> PlaneWaveMode:
        listing = self.signals if role is Role.SIGNAL else self.references
        if not 1 <= index <= len(listing):
            raise UnknownMode(f"no {role.value} mode with index {index}")
        return listing[index - 1]

    def position(self, mode: PlaneWaveMode) -> int:
        """Index of `mode` within the canonical universe ordering."""
        try:
            return self.universe.index(mode)
        except ValueError:
            raise UnknownMode(f"mode {mode} is not part of this set") from None


def make_cone_basis(geometry: ConeGeometry) -> ModeSet:
    """The mode set of `geometry`, which must have dimension >= 2."""
    if geometry.dimension < 2:
        raise InvalidGeometry("a computational basis needs dimension >= 2")
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
