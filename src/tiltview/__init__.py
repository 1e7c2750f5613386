"""Wave-optics resolution analysis and free-view reconstruction for
lenslet-array integral imaging."""

from .optics import (
    BeamParameters,
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
    beam_width,
    image_distance,
    rayleigh_range,
    tilted_to_global,
    waist_at_focus,
)
from .reconstruction import (
    ElementalImageSet,
    PSFKernel,
    Reconstruction,
    apply_diffraction,
    backproject_geometric,
    reconstruct,
)
from .resolution import (
    FovResult,
    ResolutionCurve,
    extract_fov,
    radial_extent,
    scan_resolution,
    spot_extents,
)
from .scene import Scene, capture, point_source_scene

__all__ = [
    "BeamParameters",
    "ElementalImageSet",
    "FovResult",
    "OpticalSystemConfig",
    "PSFKernel",
    "PlaneGrid",
    "Reconstruction",
    "ResolutionCurve",
    "ScalarField2D",
    "Scene",
    "TiltedPlaneSpec",
    "apply_diffraction",
    "backproject_geometric",
    "beam_width",
    "capture",
    "extract_fov",
    "image_distance",
    "point_source_scene",
    "radial_extent",
    "rayleigh_range",
    "reconstruct",
    "scan_resolution",
    "spot_extents",
    "tilted_to_global",
    "waist_at_focus",
]

__version__ = "0.1.0"
