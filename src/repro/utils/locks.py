"""Named lock factories with an opt-in runtime lock-order witness.

Every lock in ``src/`` is created through :func:`make_lock` with a stable
*order name* (enforced by the ``lock-factory`` lint rule).  By default the
factory returns a plain ``threading.Lock`` — a passthrough with zero
steady-state overhead.  When ``REPRO_LOCK_WITNESS=1`` is set at creation
time it instead returns a :class:`TrackedLock` wrapper that reports every
acquisition to a process-wide :class:`LockWitness`.

The witness keeps, per thread, the stack of held lock names and, globally,
the observed acquisition-order graph (``held → acquired`` edges, each with
the source location of the first observation).  An **inversion** is
recorded when

* an acquisition creates an edge whose reverse was already observed (two
  code paths disagree about the order of the same two locks — the classic
  ABBA deadlock shape), or
* the acquired lock sits *earlier* than a currently-held lock in
  :data:`CANONICAL_ORDER`, the repo's lock hierarchy.

Both checks run at acquisition time (the earliest moment the inversion is
observable); the diagnostics name **both** acquisition sites so a failing
stress test points at the two code paths that disagree.  Locks sharing a
name (e.g. every per-session entry lock) form one order class; ordering
*within* a class is deliberately not checked.

This mirrors the lock-order witness in the FreeBSD kernel (``witness(4)``)
and TSan's lock-inversion reporting.  The witness is the repo's only
deadlock guard: the tier-1 stress test drives searches, utterance turns,
sessions, the collector and background reindexes with it enabled and fails
on any inversion.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "CANONICAL_ORDER",
    "ENV_FLAG",
    "LockOrderError",
    "LockWitness",
    "OrderInversion",
    "TrackedLock",
    "make_lock",
    "reset_witness",
    "witness",
    "witness_enabled",
]

ENV_FLAG = "REPRO_LOCK_WITNESS"

#: The repo's lock hierarchy, outermost first — maintained by hand and
#: checked by the witness-enabled stress test, which also asserts that every
#: ``make_lock`` name in ``src/`` is listed here.  Acquiring a
#: lock listed *earlier* than one already held is an inversion even before a
#: conflicting dynamic observation exists.
CANONICAL_ORDER: Tuple[str, ...] = (
    "serve.sessions.store",
    "serve.sessions.entry",
    "serve.runtime.lifecycle",
    "serve.runtime.reindex",
    "serve.runtime.facade",
    "core.extract.tagger",
    # Taken by the attention pairing heuristic while pairing, which runs
    # after tagging and outside the tagger lock.
    "bert.encoder.attention",
    "serve.cache",
    # The collector holds its sampling lock across metrics.collect(), the
    # time-series append and the SLO ingest, so it sits above all three.
    "obs.collector",
    "serve.metrics",
    "utils.timings",
    "obs.tracer",
    "obs.trace_builder",
    "obs.trace_store",
    "obs.timeseries",
    # SLO transitions log while holding the monitor lock → above obs.log.*.
    "obs.slo",
    "obs.log.registry",
    "obs.log.emit",
)

_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(CANONICAL_ORDER)}


class LockOrderError(RuntimeError):
    """Raised on inversion when the witness runs in strict mode."""


@dataclass(frozen=True)
class OrderInversion:
    """One observed violation of the acquisition order.

    ``first`` is the previously observed (or canonical) ordering,
    ``second`` the acquisition that contradicted it; each side carries the
    ``held → acquired`` lock names and the two source sites involved.
    """

    first_order: Tuple[str, str]
    first_sites: Tuple[str, str]
    second_order: Tuple[str, str]
    second_sites: Tuple[str, str]
    kind: str  # "observed-order" or "canonical-order"

    def describe(self) -> str:
        held, acquired = self.second_order
        prior_held, prior_acquired = self.first_order
        if self.kind == "canonical-order":
            origin = (
                f"canonical hierarchy places {prior_held!r} before "
                f"{prior_acquired!r}"
            )
        else:
            origin = (
                f"{prior_held!r} was held at {self.first_sites[0]} while "
                f"{prior_acquired!r} was acquired at {self.first_sites[1]}"
            )
        return (
            f"lock order inversion: {acquired!r} acquired at "
            f"{self.second_sites[1]} while holding {held!r} "
            f"(held since {self.second_sites[0]}), but {origin}"
        )


def _call_site() -> str:
    """``path:line`` of the nearest caller frame outside this module."""
    frame = sys._getframe(1)
    here = frame.f_code.co_filename
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class LockWitness:
    """Process-wide acquisition recorder shared by every tracked lock."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self._lock = threading.Lock()
        #: (held_name, acquired_name) → (held_site, acquired_site) of the
        #: first observation of that ordering.
        self._edges: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._inversions: List[OrderInversion] = []
        self._acquisitions = 0
        self._held = threading.local()

    # ------------------------------------------------------------- recording

    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def note_acquire(self, name: str, site: str) -> None:
        stack = self._stack()
        inversions: List[OrderInversion] = []
        with self._lock:
            self._acquisitions += 1
            for held_name, held_site in stack:
                if held_name == name:
                    continue  # same order class: not checked
                reverse = self._edges.get((name, held_name))
                if reverse is not None:
                    inversions.append(
                        OrderInversion(
                            first_order=(name, held_name),
                            first_sites=reverse,
                            second_order=(held_name, name),
                            second_sites=(held_site, site),
                            kind="observed-order",
                        )
                    )
                held_rank = _RANK.get(held_name)
                rank = _RANK.get(name)
                if held_rank is not None and rank is not None and rank < held_rank:
                    inversions.append(
                        OrderInversion(
                            first_order=(name, held_name),
                            first_sites=("CANONICAL_ORDER", "CANONICAL_ORDER"),
                            second_order=(held_name, name),
                            second_sites=(held_site, site),
                            kind="canonical-order",
                        )
                    )
                self._edges.setdefault((held_name, name), (held_site, site))
            self._inversions.extend(inversions)
        stack.append((name, site))
        if inversions and self.strict:
            raise LockOrderError(inversions[0].describe())

    def note_release(self, name: str) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position][0] == name:
                del stack[position]
                return

    # ------------------------------------------------------------ inspection

    @property
    def inversions(self) -> List[OrderInversion]:
        with self._lock:
            return list(self._inversions)

    @property
    def acquisitions(self) -> int:
        with self._lock:
            return self._acquisitions

    def order_graph(self) -> Dict[Tuple[str, str], Tuple[str, str]]:
        """The observed ``held → acquired`` edges with first-seen sites."""
        with self._lock:
            return dict(self._edges)

    def held_names(self) -> List[str]:
        """Lock names the *calling thread* currently holds (innermost last)."""
        return [name for name, _ in self._stack()]


class TrackedLock:
    """``threading.Lock`` wrapper reporting acquisitions to a witness."""

    def __init__(self, name: str, order_witness: Optional[LockWitness] = None):
        self.name = name
        self.order_witness = order_witness if order_witness is not None else witness()
        self.inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self.order_witness.note_acquire(self.name, _call_site())
        return acquired

    def release(self) -> None:
        self.order_witness.note_release(self.name)
        self.inner.release()

    def locked(self) -> bool:
        return self.inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


_WITNESS_LOCK = threading.Lock()
_WITNESS: Optional[LockWitness] = None


def witness() -> LockWitness:
    """The process-wide witness (created on first use)."""
    global _WITNESS
    with _WITNESS_LOCK:
        if _WITNESS is None:
            _WITNESS = LockWitness(strict=os.environ.get(ENV_FLAG) == "strict")
        return _WITNESS


def reset_witness(strict: bool = False) -> LockWitness:
    """Install a fresh witness (tests isolate their observations with this)."""
    global _WITNESS
    with _WITNESS_LOCK:
        _WITNESS = LockWitness(strict=strict)
        return _WITNESS


def witness_enabled() -> bool:
    """True when the environment asks for tracked locks."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def make_lock(name: str) -> Union[threading.Lock, TrackedLock]:
    """A mutex named ``name`` for lock-order purposes.

    Plain ``threading.Lock`` unless ``REPRO_LOCK_WITNESS`` is set at
    creation time, in which case acquisitions are order-checked.
    """
    if witness_enabled():
        return TrackedLock(name)
    return threading.Lock()

