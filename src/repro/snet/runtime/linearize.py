"""Sequential-chain linearization: the runtime's network-level fast path.

A purely sequential chain of *pure* primitives — boxes and filters composed
with ``..`` — compiles, under the default scheme, to one scheduler port
**per stage**.  Every record then pays one queued scheduler step and two
tracer calls per hop, which is pure coordination overhead: a pure chain
has no internal state, no routing decisions and no merge points, so
executing its stages back-to-back in a single port is observably
identical.

:func:`linearize` rewrites a (privately copied) entity graph before
compilation, collapsing every maximal run of fusable primitives inside a
serial spine into one :class:`FusedChain` — a synthetic
:class:`~repro.snet.base.PrimitiveEntity` whose ``process`` pipes each
record through the stages in order.  What may be fused is deliberately
narrow:

* **boxes and filters only** — synchrocells are stateful merge points and
  every combinator is a scheduling boundary (star taps, split routing,
  parallel merges must keep their own ports);
* **not across a placement boundary** — ``A @ node`` / ``A !@ <tag>``
  subtrees are shipped to partition workers keyed by their structural
  content hash, so their shape must stay pristine;
* **not transport-claimed entities** — a ``parallel_safe`` box registered
  with the process pool executes out-of-process; fusing it would silently
  disable the offload (transports veto via
  :meth:`~repro.snet.runtime.core.Transport.claims_entity`).

The engine additionally gates the pass on the PR 7 static analyzer (a
network must have an error-free dataflow report before its chains are
collapsed) and on tracing being disabled — per-record ``consume``/
``produce`` events of the interior stages would disappear.  See
:class:`~repro.snet.runtime.core.EngineCore` (``fuse="auto"|"off"``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.boxes import Box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.types import TypeSignature

__all__ = ["FusedChain", "linearize"]


class FusedChain(PrimitiveEntity):
    """A run of pure primitives executed back-to-back in one port.

    Behaves exactly like the serial composition of its stages: ``process``
    pipes one record through every stage in order, ``flush`` cascades each
    stage's end-of-stream output through the stages after it (all current
    stages are pure, so this is vacuous, but the semantics mirror
    :meth:`Serial.end` for safety).  Type queries delegate the way
    :class:`Serial` does — acceptance and routing score come from the first
    stage, the signature is the serial composition of all stages.
    """

    KIND = "fused"
    CHILD_ATTRS = ("stages",)

    def __init__(self, stages: List[PrimitiveEntity], name: Optional[str] = None):
        if len(stages) < 2:
            raise ValueError("a fused chain needs at least two stages")
        super().__init__(name or "fused(" + "..".join(s.name for s in stages) + ")")
        self.stages = list(stages)

    @property
    def signature(self) -> TypeSignature:
        sig = self.stages[0].signature
        for stage in self.stages[1:]:
            sig = sig.compose_serial(stage.signature)
        return sig

    def children(self):
        return tuple(self.stages)

    def accepts(self, rec: Record) -> bool:
        return self.stages[0].accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        return self.stages[0].match_score(rec)

    def _pipe(self, records: List[Record], start: int) -> List[Record]:
        for stage in self.stages[start:]:
            if not records:
                break
            produced: List[Record] = []
            for rec in records:
                produced.extend(stage.process(rec))
            records = produced
        return records

    def process(self, rec: Record) -> List[Record]:
        return self._pipe([rec], 0)

    def flush(self) -> List[Record]:
        produced: List[Record] = []
        for i, stage in enumerate(self.stages):
            produced.extend(self._pipe(stage.flush(), i + 1))
        return produced

    def __repr__(self) -> str:
        return "<fused " + " .. ".join(s.name for s in self.stages) + ">"


def _fusable(entity: Entity, claims: Callable[[Entity], bool]) -> bool:
    """May ``entity`` become a stage of a fused chain?"""
    if not isinstance(entity, (Box, Filter)):
        return False  # synchrocells (stateful) and anything exotic keep their own ports
    return not claims(entity)


def _flatten_serial(entity: Entity) -> List[Entity]:
    """The stages of a serial spine, left to right (iterative)."""
    stages: List[Entity] = []
    stack = [entity]
    while stack:
        node = stack.pop()
        if isinstance(node, Serial):
            stack.append(node.right)
            stack.append(node.left)
        else:
            stages.append(node)
    return stages


def _rebuild_serial(stages: List[Entity]) -> Entity:
    result = stages[0]
    for stage in stages[1:]:
        result = Serial(result, stage)
    return result


def linearize(
    entity: Entity, claims: Optional[Callable[[Entity], bool]] = None
) -> Tuple[Entity, int]:
    """Collapse pure sequential chains in ``entity``; returns ``(rewritten,
    number_of_chains_created)``.

    The graph is rewritten **in place** where possible (combinator operands
    are reassigned), so callers must pass a private copy.  Placement
    subtrees (``StaticPlacement``, placed ``IndexSplit``) and
    transport-claimed entities are returned untouched — their structure is
    the transport's contract.
    """
    veto = claims or (lambda _e: False)
    return _rewrite(entity, veto)


def _rewrite(entity: Entity, claims: Callable[[Entity], bool]) -> Tuple[Entity, int]:
    if claims(entity) or isinstance(entity, StaticPlacement):
        return entity, 0
    if isinstance(entity, Serial):
        stages = _flatten_serial(entity)
        rewritten: List[Entity] = []
        count = 0
        for stage in stages:
            if isinstance(stage, PrimitiveEntity):
                rewritten.append(stage)
            else:
                new_stage, sub = _rewrite(stage, claims)
                rewritten.append(new_stage)
                count += sub
        fused: List[Entity] = []
        run: List[PrimitiveEntity] = []

        def close_run() -> None:
            nonlocal count
            if len(run) >= 2:
                fused.append(FusedChain(list(run)))
                count += 1
            else:
                fused.extend(run)
            run.clear()

        for stage in rewritten:
            if _fusable(stage, claims):
                run.append(stage)
            else:
                close_run()
                fused.append(stage)
        close_run()
        return _rebuild_serial(fused), count
    if isinstance(entity, Parallel):
        entity.left, c1 = _rewrite(entity.left, claims)
        entity.right, c2 = _rewrite(entity.right, claims)
        return entity, c1 + c2
    if isinstance(entity, Star):
        entity.operand, c = _rewrite(entity.operand, claims)
        return entity, c
    if isinstance(entity, IndexSplit):
        if entity.placed:
            # a placed split's operand is shipped to compute nodes keyed by
            # its structural content hash; leave its shape pristine
            return entity, 0
        entity.operand, c = _rewrite(entity.operand, claims)
        return entity, c
    if isinstance(entity, Network):
        entity.body, c = _rewrite(entity.body, claims)
        return entity, c
    return entity, 0
