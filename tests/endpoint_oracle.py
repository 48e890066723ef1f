"""Direct integral-form kernels of Op_tau at the endpoints tau in {0, 1}.

    k(x, y) = (1/N) sum_omega sigma((1-tau) x + tau y, omega) e^{2 pi i (x - y) omega / N}

read straight off the symbol by one partial inverse DFT, with no spreading
function or chirp table.  It is the independent cross-check of
`cyclictf.quantize.op_tau` at the two endpoints.
"""

import numpy as np


def kernel_from_symbol_endpoint(sigma: np.ndarray, tau: float) -> np.ndarray:
    """The endpoint kernel above; agrees with op_tau(sigma, tau) on the grid."""
    arr = np.asarray(sigma, dtype=complex)
    if tau not in (0, 1):
        raise ValueError("direct kernel form requires tau in {0, 1}")
    n = arr.shape[0]
    # partial inverse DFT in the frequency slot, evaluated at x - y
    prof = np.fft.ifft(arr, axis=1)  # prof[a, d] = (1/N) sum_omega sigma(a, omega) e^{2 pi i d omega/N}
    x, y = np.ogrid[:n, :n]
    return prof[x if tau == 0 else y, (x - y) % n]
