"""bakerlab: simulation and exact analysis of a two-parameter baker-map
family with a tunable irreversibility mechanism."""

__version__ = "0.1.0"

from .errors import *
from .mapcore import *
from .markov import *
from .ensemble import *
from .fluctuation import *
from .transport import *
