"""Delay-Doppler ambiguity surfaces for single and multi-element waveforms.

The package computes cross-ambiguity functions, Wigner distributions, and
their MIMO generalizations on sampled grids, then machine-checks the
algebraic identities these objects satisfy: energy and Moyal quadratures,
positive-semidefinite shifted-correlation Grams, uniqueness up to a
unimodular scalar, and equivariance under the SL(2, R) generators
(Fourier rotation, chirp shear, dilation, mirror).

Quick start::

    from mimoaf import canonical_gaussian, cross_ambiguity

    u = canonical_gaussian()
    surf = cross_ambiguity(u)          # lag x Doppler grid, complex values
    surf.value_at(0.0, 0.0)            # the energy of u

Every checker returns a ``CheckReport`` with measured and expected values,
error magnitudes, and the tolerance applied, so verification runs are
auditable line by line (see ``python -m mimoaf verify --help``).
"""

from .ambiguity import (
    AmbiguitySurface,
    SteeringConfig,
    WignerDistribution,
    ambiguity_from_wigner,
    cross_ambiguity,
    cross_ambiguity_oracle,
    mimo_ambiguity,
    mimo_beams,
    mimo_energy_quadrature,
    mimo_slice_spatial,
    spatial_integral,
    wigner,
)
from .errors import (
    AliasingError,
    FileFormatError,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    MimoafError,
    TruncationRiskError,
)
from .properties import (
    CheckReport,
    ProbeSet,
    check_mimo_energy,
    check_norm_identity,
    collinearity_check,
    gram_psd_check,
    make_report,
    mimo_inner_product,
    moyal_inner_product,
    random_probe_set,
    recover_scalar,
    surface_quadrature_inner,
    trace_psd_check,
    trace_reduction_check,
)
from .signals import (
    CANONICAL_SIGMA,
    HeisenbergPoint,
    SampledSignal,
    canonical_gaussian,
    chirp_multiply,
    dilate,
    fourier,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
    inner_product,
)
from .symmetry import (
    Sl2Element,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "AmbiguitySurface",
    "CANONICAL_SIGMA",
    "CheckReport",
    "FileFormatError",
    "GridAlignmentError",
    "GridMismatchError",
    "HeisenbergPoint",
    "InvalidParameterError",
    "MimoafError",
    "ProbeSet",
    "SampledSignal",
    "Sl2Element",
    "SteeringConfig",
    "TruncationRiskError",
    "WignerDistribution",
    "ambiguity_from_wigner",
    "canonical_gaussian",
    "check_mimo_energy",
    "check_norm_identity",
    "chirp_multiply",
    "collinearity_check",
    "cross_ambiguity",
    "cross_ambiguity_oracle",
    "dilate",
    "fourier",
    "gen_gaussian",
    "gen_lfm",
    "gen_rect",
    "gen_subcarrier_set",
    "gram_psd_check",
    "heisenberg_shift",
    "inner_product",
    "make_report",
    "mimo_ambiguity",
    "mimo_beams",
    "mimo_energy_quadrature",
    "mimo_inner_product",
    "mimo_slice_spatial",
    "moyal_inner_product",
    "random_probe_set",
    "recover_scalar",
    "spatial_integral",
    "surface_quadrature_inner",
    "trace_psd_check",
    "trace_reduction_check",
    "verify_dilation",
    "verify_fourier_rotation",
    "verify_lfm_shear",
    "verify_mimo_symmetry",
    "verify_mirror",
    "wigner",
]
