"""Package-wide error types, mapped to CLI exit codes, and the up-front
memory check that raises one."""
from __future__ import annotations

import math
import os


class ValidationError(ValueError):
    """Bad parameters or violated preconditions (CLI exit 2)."""


class NonConvergenceError(RuntimeError):
    """A numerical routine failed to meet its tolerance (CLI exit 3).

    Carries the best achieved tolerance when known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class EmptyCloudError(ValidationError):
    """A nodal point cloud was empty where a distance was requested."""


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(values: float, what: str) -> None:
    """Refuse up front a computation whose working set, `values` float64
    values, exceeds physical memory; `what` names the computation and the
    setting that sizes it."""
    try:
        need = 8.0 * values
    except OverflowError:  # a count beyond the float range
        need = math.inf
    have = _physical_memory()
    if need > have:
        raise ValidationError(
            f"{what} needs about {need / 2**30:.3g} GiB, more "
            f"than the {have / 2**30:.3g} GiB of physical memory"
        )
