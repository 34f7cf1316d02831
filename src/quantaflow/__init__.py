"""quantaflow: 1-bit quanta sensor simulation, exposure bracketing,
exposure-conditioned filter atoms, and numerical bound verification.
Each name in `__all__` is imported on first use (PEP 562)."""

__version__ = "0.7.0"

_EXPORTS = {
    "errors": ("DecodeError", "DomainError", "IntegrationError", "QuantaError",
               "ShapeError", "UnidentifiableError"),
    "sensor": ("BinaryFrame", "DensityMap", "ExposureMap", "NeighborhoodSpec",
               "SensorConfig", "bit_probability", "invert_bit_density",
               "local_bit_density", "mean_bit_density", "sample_frame"),
    "bracketing": ("BracketSpec", "ExposureBurst", "DEFAULT_ALPHAS", "generate_burst"),
    "filters": ("Coefficients", "EaclConfig", "FeatureMap", "FilterAtoms",
                "compose_filters", "eacl_forward"),
    "ode": ("AtomVectorField", "SolverConfig", "integrate_atoms"),
    "verifier": ("verify_exposure_continuity", "verify_layer_bound"),
    "calibration": ("CmosParams", "QisParams", "cmos_gray_to_photons", "qis_forward"),
}
_MODULES = (*_EXPORTS, "rng")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_MODULES])


def __getattr__(name):
    import importlib
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
