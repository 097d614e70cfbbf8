"""Ordering reliability of top-ranked entities in Poisson count data.

Counts with power-law means (Zipf or shifted Zipf laws) sampled with
Poisson noise keep their top ranks in the true order only up to a depth
that grows slowly with the data size.  This package computes that depth:
analytic misordering bounds and thresholds, scale estimation from data,
seeded Monte Carlo validation of the bounds, and corpus diagnostics.
"""

from .bounds import *
from .corpus import *
from .errors import *
from .estimate import *
from .simulate import *
from .special import *

__version__ = "0.1.0"
