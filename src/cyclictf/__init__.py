"""Time-frequency calculus on the cyclic group Z_N.

Quantization of N x N symbols into operators for every tau in [0, 1], STFT
and Gabor frame machinery, discrete modulation and symbol-class norms with
one weight family on Z_N^2, and channel-matrix decay diagnostics, with the
package's identities pinned down to exact finite computations.
"""

from .diagnostics import (
    BoundednessReport,
    ChannelMatrix,
    CompositionReport,
    DiagReport,
    WienerReport,
    almost_diag_report,
    boundedness_report,
    channel_matrix,
    composition_symmetry_check,
    covariance_check,
    envelope,
    fclass_weight,
    operator_channel,
    spearman_rank,
    wiener_experiment,
)
from .generators import (
    comb_window,
    delta_symbol,
    delta_window,
    gaussian_symbol,
    gaussian_window,
    graded_corpus,
    make_symbol,
    make_window,
    random_symbol,
)
from .normbank import (
    ell1v,
    fsjostrand_norm,
    mixed_norm,
    modulation_norm,
    sjostrand_norm,
    symbol_sups,
)
from .phasespace import (
    Lattice,
    Weight,
    polynomial_weight,
)
from .quantize import (
    chirp_exponents,
    convert_symbol,
    dequantize,
    op_tau,
    spreading_function,
    symbol_from_spreading,
    tau_wigner,
    twisted_product,
)
from .transforms import (
    FrameReport,
    canonical_dual,
    dft,
    frame_bounds,
    frame_operator,
    gabor_reconstruct,
    shift_bank,
    stft,
    stft_adjoint,
    stft_grid,
    tf_shift,
)

__version__ = "0.1.0"
