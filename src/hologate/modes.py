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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometry, UnknownMode

TWO_PI = 2.0 * math.pi


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
    reference waves indistinguishable to the grating.  ``dimension`` is
    normally >= 2 (``make_cone_basis`` enforces this); a value of 1 is
    tolerated at the type level for degenerate single-pair plans.
    """

    dimension: int
    signal_half_angle: float
    reference_half_angle: float
    wavelength: float
    aperture_breadth: float
    signal_azimuth_offset: float = 0.0
    reference_azimuth_offset: float = math.pi

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidGeometry(f"dimension must be >= 1, got {self.dimension}")
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

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength

    @property
    def azimuthal_spacing(self) -> float:
        return TWO_PI / self.dimension


@dataclass(frozen=True)
class ModeSet:
    """Ordered signal and reference bases generated from one geometry."""

    geometry: ConeGeometry
    signals: tuple[PlaneWaveMode, ...]
    references: tuple[PlaneWaveMode, ...]

    def __post_init__(self):
        n = self.geometry.dimension
        if len(self.signals) != n or len(self.references) != n:
            raise InvalidGeometry("mode lists must each hold exactly `dimension` modes")
        for role, listing, offset, angle in (
            (Role.SIGNAL, self.signals, self.geometry.signal_azimuth_offset,
             self.geometry.signal_half_angle),
            (Role.REFERENCE, self.references, self.geometry.reference_azimuth_offset,
             self.geometry.reference_half_angle),
        ):
            for i, mode in enumerate(listing, start=1):
                if mode.role is not role or mode.index != i:
                    raise InvalidGeometry(f"{role.value} modes must be indexed 1..N in order")
                expected = (offset + (i - 1) * self.geometry.azimuthal_spacing) % TWO_PI
                if not math.isclose(mode.azimuth, expected, rel_tol=0.0, abs_tol=1e-9):
                    raise InvalidGeometry(
                        f"{role.value} mode {i} azimuth {mode.azimuth} != expected {expected}"
                    )
                if not math.isclose(mode.cone_half_angle, angle, rel_tol=0.0, abs_tol=1e-12):
                    raise InvalidGeometry(f"{role.value} modes must share one cone half angle")
                if not math.isclose(
                    mode.wavenumber, self.geometry.wavenumber, rel_tol=1e-12, abs_tol=0.0
                ):
                    raise InvalidGeometry("all modes must share the geometry wavenumber")

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
    """Place N signal and N reference waves equally spaced around their cones."""
    if geometry.dimension < 2:
        raise InvalidGeometry("a computational basis needs dimension >= 2")
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

    return ModeSet(
        geometry=geometry,
        signals=ring(Role.SIGNAL, geometry.signal_azimuth_offset, geometry.signal_half_angle),
        references=ring(
            Role.REFERENCE, geometry.reference_azimuth_offset, geometry.reference_half_angle
        ),
    )


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


def aperture_overlap(a: PlaneWaveMode, b: PlaneWaveMode, aperture_breadth: float) -> complex:
    """Normalized overlap of two plane waves over a square aperture.

    The integral (1/D^2) * iint_square conj(a) * b dx dy separates into a
    product of two sinc factors in the transverse wave-vector differences.
    Identical modes give exactly 1; distinct cone positions decay toward 0
    as the aperture grows.  This is a diagnostic for how well the finite
    aperture approximates ideal (Kronecker) orthogonality; the compiler
    always works in the idealized basis.
    """
    if a == b:
        return complex(1.0)
    dk = wave_vector(b) - wave_vector(a)
    sx = np.sinc(dk[0] * aperture_breadth / TWO_PI)
    sy = np.sinc(dk[1] * aperture_breadth / TWO_PI)
    return complex(sx * sy)


@dataclass(frozen=True)
class SelectivityReport:
    """Outcome of comparing angular selectivity against mode spacing."""

    ok: bool
    margin: float


def selectivity_guard(mode_set: ModeSet, angular_selectivity: float) -> SelectivityReport:
    """Check that the hologram can tell adjacent cone positions apart.

    Adjacent basis waves are separated by 2*pi/N in azimuth; the element
    only resolves them if its angular selectivity is strictly smaller.
    """
    if angular_selectivity <= 0.0:
        raise ValueError("angular selectivity must be positive")
    spacing = mode_set.geometry.azimuthal_spacing
    return SelectivityReport(
        ok=angular_selectivity < spacing,
        margin=spacing - angular_selectivity,
    )
