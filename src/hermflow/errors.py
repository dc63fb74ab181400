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


def check_fits(n: float, arrays: float, what: str, dims: int = 3) -> None:
    """Refuse up front a computation whose working set, `arrays` float64
    arrays of n^dims, exceeds physical memory: lattice arrays of an n-point
    grid by default, or, with dims=1, values per point of a 1-D grid of n
    points, which `what` names."""
    try:
        need = arrays * 8.0 * float(n) ** dims
    except OverflowError:  # a count beyond the float range
        need = math.inf
    have = _physical_memory()
    if need > have:
        where = f" on an n={n} grid" if dims == 3 else ""
        raise ValidationError(
            f"{what}{where} needs about {need / 2**30:.3g} GiB, more "
            f"than the {have / 2**30:.3g} GiB of physical memory"
        )
