"""Fixed-form test assembly against a target information function.

Evaluate 3PL item and test information on an ability grid, compare test
curves against a polynomial target, estimate by random sampling how many
forms of each length meet or exceed the target, extrapolate those ratios
into form counts, and assemble exceeding forms by simulated annealing.
"""

__version__ = "0.6.0"

# Every module declares its public names in its own __all__; the package
# exports their union. The module objects are bound first, because the star
# import below rebinds ``anneal`` from its module to the function.
from . import anneal, bank, counts, errors, irt, metrics, sampling, target

__all__ = list(dict.fromkeys(["__version__", *(
    name for module in (anneal, bank, counts, errors, irt, metrics, sampling, target) for name in module.__all__
)]))

from .anneal import *  # noqa: E402,F401,F403
from .bank import *  # noqa: E402,F401,F403
from .counts import *  # noqa: E402,F401,F403
from .errors import *  # noqa: E402,F401,F403
from .irt import *  # noqa: E402,F401,F403
from .metrics import *  # noqa: E402,F401,F403
from .sampling import *  # noqa: E402,F401,F403
from .target import *  # noqa: E402,F401,F403
