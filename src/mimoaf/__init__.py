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

from . import ambiguity, errors, properties, signals, symmetry
from .ambiguity import *
from .errors import *
from .properties import *
from .signals import *
from .symmetry import *

__version__ = "0.1.0"

# each layer's __all__ owns its public names; io_formats is not re-exported
__all__: list[str] = []
__all__ += signals.__all__
__all__ += ambiguity.__all__
__all__ += properties.__all__
__all__ += symmetry.__all__
__all__ += errors.__all__
