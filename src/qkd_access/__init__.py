"""Key-rate simulator for wireless-indoor QKD users on a DWDM access network.

The package models an indoor optical-wireless QKD link feeding a passive
optical network shared with classical data channels, and evaluates
asymptotic secret-key rates for decoy-state BB84, coherent-state CV-QKD
and measurement-device-independent QKD across four network setups,
including bulb background light and Raman scattering noise.

Each module's ``__all__`` declares its public names, and this package
gives all of them but ``cli.main``, which is left out so that importing
the library does not load argparse.
"""

from .budget import *
from .config import *
from .defaults import *
from .numerics import *
from .owc import *
from .protocols import *
from .raman import *
from .sweep import *

__version__ = "0.1.0"
