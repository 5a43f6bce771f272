"""Synchronized hyperchaotic maps and chaotic-masking digital communication."""

__version__ = "0.1.0"

from . import analysis, codecs, io_formats, link, signals, sync  # noqa: F401
from .params import (  # noqa: F401
    DEFAULT_PARAMS,
    SettlingConfig,
    SystemParams,
)
from .core_map import (  # noqa: F401
    DegenerateTrajectoryError,
    Trajectory,
    drive_output,
    fold,
    fold_slopes,
    generate_trajectory,
    jacobian_at,
    random_initial_state,
)
