"""The run-to-completion scheduler that drives one run's ports."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.snet.errors import RuntimeError_
from repro.snet.runtime.ports import Port, _Collector, _StarChain
from repro.snet.synchrocell import SyncroCell

if TYPE_CHECKING:  # pragma: no cover
    from repro.snet.runtime.core import EngineCore

__all__ = ["RunScheduler"]


class RunScheduler:
    """Drive one run's port graph to completion on the calling thread.

    Every port queues its steps (records, then ``None`` for end of input)
    in its own FIFO inbox, and :attr:`woken` stacks one entry per queued
    step: the port woken most recently steps first, so a record's path
    downstream runs before older queued work (depth first), while each
    edge keeps its order.  A *turn* ends when nothing is queued or after
    :attr:`TURN_STEPS` steps: the ports registered with :meth:`at_turn_end`
    act on what the turn gave them (batch it), and the scheduler takes the
    transport's results (``poll``), sleeping in ``wait`` while idle.
    """

    #: steps per turn: results are read at every turn end, so a long
    #: cascade elsewhere in the graph cannot hold a landed result back
    TURN_STEPS = 32

    def __init__(self, core: "EngineCore"):
        self.core = core
        self.woken: List[Port] = []
        self.steps = 0
        self.stars: List[_StarChain] = []
        #: (star, level) while a star level unrolls, for the ports it makes
        self.unrolling: Tuple[Optional[_StarChain], int] = (None, -1)
        #: while a star level unrolls: id of a template synchrocell -> the
        #: level's instance of it
        self.cells: Optional[Dict[int, SyncroCell]] = None
        self._turn_end: List[Port] = []

    def at_turn_end(self, port: Port) -> None:
        """Call ``port.end_turn()`` once the current turn's steps are done."""
        self._turn_end.append(port)

    def _fail(self, port: Port, exc: BaseException) -> None:
        port.failed = True
        self.core._record_error(exc, source=port.name)
        for writer in port.outputs():
            writer.close()

    def _call(self, port: Port, fn: Callable[[Any], None], arg: Any) -> None:
        if port.failed:
            return
        try:
            fn(arg)
        except Exception as exc:  # noqa: BLE001 - collected for reporting
            self._fail(port, exc)

    def run(self, collector: _Collector, deadline: Optional[float]) -> bool:
        """Process steps until the output closes; ``False`` at the deadline.

        With a collected error the run also ends as soon as the scheduler
        runs out of work: the error is what the caller reports.
        """
        woken, clock = self.woken, time.monotonic
        core = self.core
        while True:
            budget = self.TURN_STEPS
            while woken and budget:
                budget -= 1
                port = woken.pop()
                rec = port.inbox.popleft()
                star = port.star
                if star is not None:
                    queued, unit = star.queued, port.unit
                    if queued[unit] == 1:
                        del queued[unit]
                    else:
                        queued[unit] -= 1
                self.steps += 1
                if not port.failed:
                    try:
                        if rec is None:
                            port.on_close()
                        else:
                            port.on_record(rec)
                    except Exception as exc:  # noqa: BLE001 - collected
                        self._fail(port, exc)
                if deadline is not None and clock() > deadline:
                    return False
            if self._turn_end:
                ports, self._turn_end = self._turn_end, []
                for port in ports:
                    self._call(port, port.end_turn, None)
            if self._take_results() or woken:
                continue
            if collector.done or core.errors:
                return True
            if not self._await_results(deadline):
                return False

    def _take_results(self) -> bool:
        """Run the transport's landed results as steps; ``True`` if any."""
        transport = self.core.transport
        try:
            landed = transport.poll()
        except Exception as exc:  # noqa: BLE001 - collected
            self.core._record_error(exc, source=transport.name)
            return True
        for item in landed:
            self._call(*item)
        return bool(landed)

    def _await_results(self, deadline: Optional[float]) -> bool:
        """Sleep until the transport has results; ``False`` at the deadline."""
        wait = None if deadline is None else deadline - time.monotonic()
        if wait is not None and wait <= 0:
            return False
        transport = self.core.transport
        try:
            busy = transport.wait(wait)
        except Exception as exc:  # noqa: BLE001 - collected
            self.core._record_error(exc, source=transport.name)
            return True
        if not busy:
            raise RuntimeError_(
                f"run stalled: no step is queued and the {transport.name} "
                "transport owes nothing"
            )
        return True
