"""Deterministic fault injection for the distributed survey.

Chaos testing the coordinator's recovery machinery needs *real* failures
— a worker process that actually dies mid-order, a RESULT frame that
actually arrives truncated — produced *reproducibly*, so a failing chaos
test replays byte-for-byte.  A :class:`FaultPlan` is a small, seeded
script of faults, each pinned to the Nth wire event at one of three
points inside a worker process:

``send``
    The Nth frame the process sends (counted across connections).  Ops:
    ``kill`` (exit before the bytes leave), ``delay`` (sleep ``arg``
    seconds first), ``truncate`` (put half the frame on the wire, then
    close the socket), ``corrupt`` (flip one seeded payload byte *after*
    the CRC was computed, so the receiver sees a checksum mismatch).
``recv``
    The Nth complete frame the process receives.  Ops: ``kill`` (exit
    immediately after the frame is read — "killed mid-order"), ``delay``.
``accept``
    The Nth connection the worker accepts.  Op: ``refuse`` (close it
    immediately — a refused reconnect).

Beyond the wire, three *io* points fire from the atomic-commit protocol
in :mod:`repro.core.atomic` (every durable write goes through it), so a
plan can kill a process at any step of a snapshot commit:

``write``
    The Nth atomic commit *started* (before the temp file is opened).
    Ops: ``kill`` (die before a byte hits disk), ``truncate`` (write
    half the payload to the temp file at commit time, then die — a torn
    mid-write crash), ``delay``.
``fsync``
    The Nth fsync step.  Each commit fires two: the temp-file fsync
    (odd events) and the directory fsync after the rename (even
    events), so ``kill:fsync:2`` is the classic
    "renamed-but-rename-not-durable" crash.  Ops: ``kill``, ``delay``.
``replace``
    The Nth ``os.replace`` about to run (temp file complete and
    durable, destination untouched).  Ops: ``kill``, ``delay``.

Plans have a compact spec grammar for CLI/env transport::

    seed=7,kill:recv:2,corrupt:send:3,delay:send:1:0.5

A :class:`FaultInjector` executes a plan through the hook points in
:mod:`repro.distrib.wire` (``install_fault_injector``); the ``repro-dns
worker`` command activates one from ``--fault-plan`` or the
``REPRO_FAULT_PLAN`` environment variable, which is how
:class:`~repro.distrib.coordinator.LocalWorkerFleet` arms individual
worker subprocesses.  Every choice the injector makes (which byte to
flip) comes from a ``random.Random`` seeded by the plan, never from
global randomness — same plan, same chaos.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import random
import time
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.distrib.wire import (FRAME_HEADER_SIZE, DistribError, WireError,
                                install_fault_injector)

#: Environment variable carrying a fault-plan spec into a worker process.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Exit status used by ``kill`` faults — mirrors SIGKILL's shell status so
#: a chaos-killed worker is indistinguishable from an OOM-killed one.
KILL_EXIT_STATUS = 137

#: The (op, point) combinations a plan may contain.
VALID_FAULTS: Set[Tuple[str, str]] = {
    ("kill", "send"), ("kill", "recv"),
    ("delay", "send"), ("delay", "recv"),
    ("truncate", "send"), ("corrupt", "send"),
    ("refuse", "accept"),
    ("kill", "write"), ("truncate", "write"), ("delay", "write"),
    ("kill", "fsync"), ("delay", "fsync"),
    ("kill", "replace"), ("delay", "replace"),
}

#: The fault points fired by :mod:`repro.core.atomic` commits (the wire
#: points are ``send``/``recv``/``accept``).
IO_POINTS: Tuple[str, ...] = ("write", "fsync", "replace")


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """One scripted fault: ``op`` at the ``nth`` event of ``point``."""

    op: str
    point: str
    nth: int
    arg: float = 0.0

    def validate(self) -> None:
        if (self.op, self.point) not in VALID_FAULTS:
            raise DistribError(
                f"invalid fault {self.op}:{self.point}: supported faults "
                f"are {sorted(f'{op}:{point}' for op, point in VALID_FAULTS)}")
        if self.nth < 1:
            raise DistribError(
                f"fault {self.op}:{self.point} needs nth >= 1, "
                f"got {self.nth}")
        if not math.isfinite(self.arg) or self.arg < 0:
            raise DistribError(
                f"fault {self.op}:{self.point}:{self.nth} needs a finite, "
                f"non-negative arg, got {self.arg}")

    def to_spec(self) -> str:
        base = f"{self.op}:{self.point}:{self.nth}"
        return f"{base}:{self.arg:g}" if self.arg else base


class FaultPlan:
    """A seeded, ordered script of :class:`FaultAction` entries."""

    def __init__(self, actions: Sequence[FaultAction] = (), seed: int = 0):
        self.actions: Tuple[FaultAction, ...] = tuple(actions)
        self.seed = int(seed)
        seen: Set[Tuple[str, int]] = set()
        for action in self.actions:
            action.validate()
            slot = (action.point, action.nth)
            if slot in seen:
                raise DistribError(
                    f"fault plan schedules two faults at {action.point} "
                    f"event {action.nth}; each event fires at most one")
            seen.add(slot)

    def __bool__(self) -> bool:
        return bool(self.actions)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``seed=N,op:point:nth[:arg],...`` (raises on bad specs)."""
        seed = 0
        actions = []
        for raw in str(text).split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed="):])
                except ValueError:
                    raise DistribError(f"invalid fault-plan seed {part!r}")
                continue
            fields = part.split(":")
            if len(fields) not in (3, 4):
                raise DistribError(
                    f"invalid fault spec {part!r}: expected "
                    f"op:point:nth[:arg]")
            try:
                nth = int(fields[2])
                arg = float(fields[3]) if len(fields) == 4 else 0.0
            except ValueError:
                raise DistribError(
                    f"invalid fault spec {part!r}: nth must be an integer "
                    f"and arg a number")
            actions.append(FaultAction(op=fields[0], point=fields[1],
                                       nth=nth, arg=arg))
        return cls(actions, seed=seed)

    def to_spec(self) -> str:
        parts = [f"seed={self.seed}"] if self.seed else []
        parts.extend(action.to_spec() for action in self.actions)
        return ",".join(parts)


class FaultInjector:
    """Executes a :class:`FaultPlan` at the wire hook points.

    Counters are process-wide (one injector per process, installed via
    :func:`repro.distrib.wire.install_fault_injector`), so event numbers
    in a plan count frames across every connection the process handles —
    which is what makes "kill after the 2nd received frame" meaningful
    for a worker that answers one coordinator at a time.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counters: Dict[str, int] = {"send": 0, "recv": 0, "accept": 0}
        self.counters.update({point: 0 for point in IO_POINTS})
        self.fired: Dict[str, int] = {}
        self._rng = random.Random(f"repro-fault-plan:{plan.seed}")

    def _arm(self, point: str) -> Optional[FaultAction]:
        self.counters[point] += 1
        count = self.counters[point]
        for action in self.plan.actions:
            if action.point == point and action.nth == count:
                self.fired[action.to_spec()] = count
                return action
        return None

    # -- wire hook points ----------------------------------------------------------------

    def filter_send(self, sock, frame_type: int, data: bytes) -> bytes:
        """Called with the complete encoded frame before it is sent."""
        action = self._arm("send")
        if action is None:
            return data
        if action.op == "delay":
            time.sleep(action.arg)
            return data
        if action.op == "kill":
            os._exit(KILL_EXIT_STATUS)
        if action.op == "truncate":
            try:
                sock.sendall(data[:max(1, len(data) // 2)])
                sock.close()
            except OSError:
                pass
            raise WireError(
                f"fault injection: frame truncated at send "
                f"event {action.nth}")
        if action.op == "corrupt":
            corrupted = bytearray(data)
            if len(data) > FRAME_HEADER_SIZE:
                # Flip a payload byte: the header's CRC was computed over
                # the clean payload, so the receiver sees a precise
                # checksum mismatch rather than a framing error.
                offset = FRAME_HEADER_SIZE + self._rng.randrange(
                    len(data) - FRAME_HEADER_SIZE)
            else:
                offset = self._rng.randrange(4)  # ruin the magic
            corrupted[offset] ^= 0xFF
            return bytes(corrupted)
        return data

    def frame_received(self, sock, frame_type: int) -> None:
        """Called after each complete, validated frame is received."""
        action = self._arm("recv")
        if action is None:
            return
        if action.op == "kill":
            os._exit(KILL_EXIT_STATUS)
        if action.op == "delay":
            time.sleep(action.arg)

    def refuse_accept(self) -> bool:
        """Called per accepted connection; True means close it unserved."""
        action = self._arm("accept")
        return action is not None and action.op == "refuse"

    # -- io hook points (atomic-commit protocol) -----------------------------------------

    def io_event(self, point: str) -> Optional[FaultAction]:
        """Called from :mod:`repro.core.atomic` at each commit step.

        ``kill`` and ``delay`` execute here; any other action (i.e.
        ``truncate:write``) is returned for the commit machinery to
        stage, since only it knows where "half the payload" is.
        """
        action = self._arm(point)
        if action is None:
            return None
        if action.op == "kill":
            os._exit(KILL_EXIT_STATUS)
        if action.op == "delay":
            time.sleep(action.arg)
            return None
        return action


def activate_from_env(environ=None) -> Optional[FaultInjector]:
    """Install an injector if ``REPRO_FAULT_PLAN`` is set; returns it."""
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_FAULT_PLAN)
    if not spec:
        return None
    injector = FaultInjector(FaultPlan.parse(spec))
    install_fault_injector(injector)
    return injector


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Temporarily install an injector (in-process tests)."""
    injector = FaultInjector(plan)
    previous = install_fault_injector(injector)
    try:
        yield injector
    finally:
        install_fault_injector(previous)
