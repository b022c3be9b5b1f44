"""pgx: exact power-graph statistics and extremal verification for finite groups.

Groups are dense indexed multiplication tables, built only up to the
brute-force cap; every statistic factors through the order spectrum and is
computed in exact integer arithmetic, with a brute-force graph oracle guarding
the formulas at orders within the cap.
"""

from .errors import InputError, InvariantError, PgxError, ResourceError

__version__ = "0.1.0"

__all__ = ["PgxError", "InputError", "ResourceError", "InvariantError"]
