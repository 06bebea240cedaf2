"""Learning bounds of a unit-selection benefit function from finite data.

The package simulates a binary-treatment structural causal model, computes
exact per-cell ground truth by noise enumeration, estimates bound labels from
finite experimental and observational samples, and trains small regressors to
predict those bounds for every cell of observed characteristics.

Each library module declares its public names once, in its ``__all__``; the
package exports all of them.  ``tables`` and ``cli`` are imported by module.
"""

from .bounds import *
from .cells import *
from .datagen import *
from .informer import *
from .learner import *
from .model import *
from . import bounds, cells, datagen, informer, learner, model

__version__ = "1.0.0"

__all__ = [
    name
    for module in (bounds, cells, datagen, informer, learner, model)
    for name in module.__all__
]
