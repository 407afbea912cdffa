"""Achievable-clock model per board.

Fitted to the paper's reported fmax points: Cyclone V designs land between
120 and 223 MHz with a downward trend in design size (Tables III/IV); the
same RTL closes ~2x faster on Arria 10 (Table III: 308 MHz at 28.8k ALMs).
Routing congestion grows with design size, hence the sqrt(ALM) law.
"""

from __future__ import annotations

from repro.accel.config import ARRIA_10, CYCLONE_V, Board

_FMAX_PARAMS = {
    CYCLONE_V.name: (195.0, 0.22, 60.0),
    ARRIA_10.name: (370.0, 0.35, 120.0),
}


def estimate_mhz(board: Board, alms: int) -> float:
    """fmax estimate for a design of ``alms`` on ``board``."""
    f0, slope, floor = _FMAX_PARAMS.get(board.name,
                                        (board.base_mhz * 1.05, 0.25, 60.0))
    mhz = f0 - slope * (max(1, alms) ** 0.5)
    return max(floor, mhz)
