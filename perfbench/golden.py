"""Golden-output checks recomputed with numpy.

Run as a process of its own (``checks.check_golden``), so numpy never
loads into the process whose peak RSS the benchmark reports.  Reads one
JSON request on standard input and exits 0 when the golden output
passes, or 1 with the reason on the last line of standard error:

    echo '{"kind": "jacobi", "values": [...], "n": 6}' | python3 perfbench/golden.py
    echo '{"kind": "dct", "values": [...], "width": 16, "height": 16}' \\
        | python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import CheckFailed, require  # noqa: E402

# Standard JPEG luminance quantisation table (the DCT kernel's QT).
JPEG_QUANT = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], dtype=float).reshape(8, 8)


def dct_input_image(width: int, height: int) -> np.ndarray:
    """The DCT workload's synthetic input: gradient + 8x8 texture + ripple."""
    y, x = np.mgrid[0:height, 0:width]
    gradient = (x * 255 // (width - 1) + y * 255 // (height - 1)) // 2
    texture = np.where(((x // 4) + (y // 4)) % 2 == 1, 24, 0)
    ripple = (x * 13 + y * 7 + x * y) % 17
    return np.minimum(255, gradient + texture + ripple).astype(float)


def dct_psnr(coefficients, width: int, height: int) -> float:
    """Dequantise and inverse-transform the quantised 8x8 DCT
    coefficients (orthonormal DCT-II basis), then PSNR against the input."""
    k = np.arange(8)
    basis = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0)
    basis *= np.where(k == 0, math.sqrt(1 / 8), math.sqrt(2 / 8))[:, None]
    coeffs = np.asarray(coefficients, dtype=float).reshape(height, width)
    image = np.empty((height, width))
    for by in range(0, height, 8):
        for bx in range(0, width, 8):
            block = coeffs[by:by + 8, bx:bx + 8] * JPEG_QUANT
            image[by:by + 8, bx:bx + 8] = basis.T @ block @ basis + 128.0
    mse = float(np.mean((image - dct_input_image(width, height)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)


def check_dct_golden(coefficients, width: int, height: int) -> float:
    require(len(coefficients) == width * height,
            f"DCT golden has {len(coefficients)} coefficients, "
            f"expected {width * height}")
    value = dct_psnr(coefficients, width, height)
    require(value > 30.0, f"DCT golden decodes to PSNR {value:.2f} dB <= 30 dB")
    return value


def jacobi_system(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobi workload's diagonally dominant system A x = b."""
    i, j = np.mgrid[0:n, 0:n]
    a = np.where(i == j, 4 * n, (i * 7 + j * 3) % 4).astype(float)
    b = ((np.arange(n) * 5) % 11 + 1).astype(float)
    return a, b


def check_jacobi_golden(xout, n: int) -> None:
    a, b = jacobi_system(n)
    expected = np.round(np.linalg.solve(a, b), 6)
    got = np.asarray(xout, dtype=float)
    require(got.shape == expected.shape and bool(np.all(got == expected)),
            f"Jacobi golden XOUT {list(got)} != solve(A, b) rounded to 6 "
            f"decimals {list(expected)}")


def main() -> int:
    request = json.load(sys.stdin)
    try:
        if request["kind"] == "dct":
            check_dct_golden(request["values"], request["width"],
                             request["height"])
        else:
            check_jacobi_golden(request["values"], request["n"])
    except CheckFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
