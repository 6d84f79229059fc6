"""Deterministic random streams.

Every random draw in the package flows from one 64-bit seed through a
named sub-stream ("init", "noise", "field/2", ...), so varying one
pipeline component never reshuffles the others.  Philox is used as the
bit generator: it is counter-based, 64-bit, and produces identical
streams on every platform.
"""

from __future__ import annotations

import hashlib

import numpy as np
# numpy imports numpy.random on first use; imported here, its 15 ms are
# paid at the package's import, not inside the first solve
import numpy.random  # noqa: F401

from .errors import ParamError


def substream(seed: int, *names) -> np.random.Generator:
    """Return the generator for the sub-stream identified by `names`.

    The same (seed, names) pair always yields the same stream; distinct
    names yield statistically independent streams.
    """
    if not 0 <= seed < 1 << 64:
        raise ParamError(f"seed must be in [0, 2^64), got {seed}")
    label = "/".join(str(n) for n in names)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
    entropy = [int(seed), *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
