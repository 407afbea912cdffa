"""Power models: FPGA accelerator (PowerPlay stand-in) and the i7 package.

The FPGA model is ``P = P_static + a*(ALM*f) + b*(BRAM*f)`` with
coefficients least-squares fitted to the seven Table IV rows (mean error
~7%, worst case the Matrix outlier at +34% whose 223 MHz clock is itself
an outlier). The fitting data and procedure are kept here so the fit is
reproducible (`fit_to_table4`).

The CPU reference is the paper's RAPL measurement context: an i7 quad
core under a 4-worker Cilk load — package power in the tens of watts.
"""

from __future__ import annotations

from typing import List, Tuple

#: P = STATIC_W + ALM_F_COEF * (ALMs * MHz * 1e-6) + BRAM_F_COEF * (BRAMs * MHz * 1e-3)
STATIC_W = 0.5610
ALM_F_COEF = 0.30438
BRAM_F_COEF = 0.041138

#: i7-3770-class package power under a 4-core Cilk load (RAPL)
CPU_PACKAGE_WATTS = 48.0

#: Table IV, for refitting/tests: (name, MHz, ALMs, Regs, BRAM, Power W)
TABLE4_ROWS: List[Tuple[str, float, int, int, int, float]] = [
    ("SAXPY", 149, 7195, 9414, 3, 0.957),
    ("Stencil", 142, 11927, 11543, 3, 1.272),
    ("Matrix", 223, 4702, 7025, 3, 0.677),
    ("Image", 141, 4442, 5814, 3, 0.798),
    ("Dedup", 153, 10487, 6509, 3, 1.014),
    ("Fibonacci", 120, 5699, 9887, 62, 1.155),
    ("Mergesort", 134, 14098, 24775, 74, 1.491),
]


def fpga_power_watts(alms: int, brams: int, mhz: float) -> float:
    """Total (static + dynamic) accelerator power."""
    return (STATIC_W
            + ALM_F_COEF * (alms * mhz * 1e-6)
            + BRAM_F_COEF * (brams * mhz * 1e-3))


def cpu_power_watts() -> float:
    return CPU_PACKAGE_WATTS


def perf_per_watt_gain(fpga_seconds: float, fpga_watts: float,
                       cpu_seconds: float, cpu_watts: float = CPU_PACKAGE_WATTS) -> float:
    """(perf/W of the accelerator) / (perf/W of the CPU), Fig 17's metric."""
    fpga_ppw = 1.0 / (fpga_seconds * fpga_watts)
    cpu_ppw = 1.0 / (cpu_seconds * cpu_watts)
    return fpga_ppw / cpu_ppw


def fit_to_table4() -> Tuple[float, float, float]:
    """Re-derive the model coefficients from Table IV (used by tests to
    pin the stored constants to the data): least squares through the
    3x3 normal equations, solved by Cramer's rule."""
    rows = [(1.0, alm * mhz * 1e-6, bram * mhz * 1e-3, watts)
            for _, mhz, alm, _, bram, watts in TABLE4_ROWS]
    gram = [[sum(row[i] * row[j] for row in rows) for j in range(3)] for i in range(3)]
    moments = [sum(row[i] * row[3] for row in rows) for i in range(3)]
    det = _det3(gram)
    return tuple(_det3([[moments[i] if j == k else gram[i][j] for j in range(3)]
                        for i in range(3)]) / det for k in range(3))


def _det3(m: List[List[float]]) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
