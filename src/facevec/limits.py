"""Resource caps for closure and clique enumeration."""
from __future__ import annotations

import os

DEFAULT_FACE_GUARD = 10**7
GUARD_ENV_VAR = "FACEVEC_GUARD"

# Exhaustive generation and verification stop at 2^C(7,2) labeled graphs.
EXHAUSTIVE_CAP = 7


def face_guard() -> int:
    """Active face/clique cap: the env override when set, else the default."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_FACE_GUARD
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{GUARD_ENV_VAR} must be positive, got {value}")
    return value
