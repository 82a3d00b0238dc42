"""calibench: probability calibration for binary classifiers, benchmarked.

The library fits post-hoc calibration maps (Platt scaling and isotonic
regression), measures calibration quality (ECE, MCE, Brier, log loss, AUC,
reliability diagrams, Hosmer-Lemeshow), selects a method automatically
through a three-rule pipeline, and benchmarks methods with a repeated
stratified-CV protocol backed by paired t-tests, Cohen's d, and Bonferroni
correction.  All numerics are NumPy-only; every random draw flows through
seeded PCG64 generators, so results are reproducible bit for bit.
"""

from .calibrators import *
from .datasets import *
from .models import *
from .metrics import *
from .stats import *
from .harness import *
from .errors import *
from . import calibrators, datasets, errors, harness, metrics, models, stats

__version__ = "0.1.0"

# every public name of each module, declared once in that module's __all__
__all__ = [
    "__version__",
    *calibrators.__all__,
    *datasets.__all__,
    *models.__all__,
    *metrics.__all__,
    *stats.__all__,
    *harness.__all__,
    *errors.__all__,
]
