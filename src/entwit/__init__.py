"""Exact simulator and certified strategy search for the discrete
two-controller damping circuit with entangled controllers.

Import from the submodules (``entwit.ks``, ``entwit.channel``, ...).  The
names below stay re-exported because the benchmark's own tests import them
from the package.
"""

from .control import (
    DeterministicStrategy,
    evaluate_deterministic,
    make_instance,
    optimal_c2_for_c1,
    search_deterministic,
)
from .ks import bundled_basis_set

__version__ = "0.1.0"
