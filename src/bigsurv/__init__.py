"""Finite-population estimation from a probability sample plus a big
non-probability source.

The package combines a small probability sample (design weights known)
with a large auxiliary source that covers much of the population but
was not drawn by any known design.  It provides post-stratified,
ratio, calibration, propensity-corrected, and measurement-error-
corrected estimators of population totals; linearization variance
estimators; a membership classifier for when the big source cannot be
matched exactly; and a Monte Carlo harness with a command-line front
end.
"""

import logging

from . import calibration, classifier, estimators, fileio, linalg, measurement
from . import population, rng, simulation, variance
from .calibration import *  # noqa: F403
from .classifier import *  # noqa: F403
from .estimators import *  # noqa: F403
from .fileio import *  # noqa: F403
from .linalg import *  # noqa: F403
from .measurement import *  # noqa: F403
from .population import *  # noqa: F403
from .rng import *  # noqa: F403
from .simulation import *  # noqa: F403
from .variance import *  # noqa: F403

__version__ = "0.1.0"

# a library logs but leaves output to the application: without this,
# Python prints WARNING records to stderr when nothing is configured
logging.getLogger(__name__).addHandler(logging.NullHandler())

# every library module's public names; the command-line front end
# (``bigsurv.cli``) is not re-exported
__all__ = [
    name
    for module in (calibration, classifier, estimators, fileio, linalg, measurement,
                   population, rng, simulation, variance)
    for name in module.__all__
]
