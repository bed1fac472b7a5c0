"""Rule families — importing this package registers every rule.

Six families, each encoding an invariant the oracle-equivalence story
depends on: lock discipline (shared state under its lock, locks created
through the named factories the runtime witness sees), determinism (stable
sorts where ties break rankings), numpy-kernel hygiene (explicit dtypes),
API hygiene (exception-safe mode flips), persistence (durable writes are
atomic) and observability (enumerable, bounded metric vocabulary).
"""

from repro.analysis.rules import (
    api_hygiene,
    determinism,
    locks,
    numpy_kernels,
    observability,
    persistence,
)

__all__ = [
    "api_hygiene",
    "determinism",
    "locks",
    "numpy_kernels",
    "observability",
    "persistence",
]
