"""quantaflow: 1-bit quanta sensor simulation, exposure bracketing,
exposure-conditioned filter atoms, and numerical bound verification."""

__version__ = "0.7.0"

from .errors import (DecodeError, DomainError, IntegrationError, QuantaError,
                     ShapeError, UnidentifiableError)
from .sensor import (BinaryFrame, DensityMap, ExposureMap, NeighborhoodSpec,
                     SensorConfig, bit_probability, invert_bit_density,
                     local_bit_density, mean_bit_density, sample_frame)
from .bracketing import BracketSpec, ExposureBurst, DEFAULT_ALPHAS, generate_burst
from .filters import (Coefficients, EaclConfig, FeatureMap, FilterAtoms,
                      compose_filters, eacl_forward)
from .ode import AtomVectorField, SolverConfig, integrate_atoms
from .verifier import verify_exposure_continuity, verify_layer_bound
from .calibration import CmosParams, QisParams, cmos_gray_to_photons, qis_forward

__all__ = [name for name in dir() if not name.startswith("_")]
