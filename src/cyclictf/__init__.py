"""Time-frequency calculus on the cyclic group Z_N.

Quantization of N x N symbols into operators for every tau in [0, 1], STFT
and Gabor frame machinery, discrete modulation and symbol-class norms with
one weight family on Z_N^2, and channel-matrix decay diagnostics, with the
package's identities pinned down to exact finite computations.

The package namespace is the union of the `__all__` lists of the seven
modules imported below; `verify` and `cli` are reached by module.
"""

from .diagnostics import *  # noqa: F403
from .generators import *  # noqa: F403
from .normbank import *  # noqa: F403
from .phasespace import *  # noqa: F403
from .quantize import *  # noqa: F403
from .serialize import *  # noqa: F403
from .transforms import *  # noqa: F403

__version__ = "0.1.0"
