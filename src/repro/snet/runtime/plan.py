"""The compiled plan of a network: built once, instantiated by every run.

An S-Net network is a static description of coordination: at run time it
only unfolds (a star level, a split replica, when a record needs one) and
each instance gets fresh synchrocell state.  :func:`plan_of` compiles a
network object once per cluster size and caches the :class:`Plan` weakly
on it.  The plan holds the static analysis report (which every runtime's
``check`` knob reports from, the simulator's included), the serial spines
holding a run of boxes and filters (:meth:`Plan.fuse` turns each run into
a :class:`FusedChain` per run of the network, split at what that run's
transport claims, and rewrites no entity), each star's
:class:`StarFacts` and each placement root's :class:`Placement`.  It
refers to the entities inside its network but never to the network
object itself, so the cache entry goes when the network does.  A network
is therefore not to be changed in place once it has run: build a new one.

>>> from repro.snet import box
>>> @box("(x) -> (y)")
... def inc(x):
...     return {"y": x + 1}
>>> @box("(y) -> (z)")
... def double(y):
...     return {"z": 2 * y}
>>> net = inc >> double
>>> plan = plan_of(net)
>>> plan is plan_of(net), plan.fusable
(True, True)
>>> fused, count = plan.fuse(lambda entity: False)
>>> count, fused[id(net)]
(1, (<fused inc .. double>,))
"""

from __future__ import annotations

import warnings
import weakref
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.boxes import Box
from repro.snet.combinators import Combinator, IndexSplit, Parallel, Serial, Star
from repro.snet.errors import NetworkError
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.placement import (
    StaticPlacement,
    iter_placement_roots,
    placement_of,
    structural_key,
)
from repro.snet.records import Record
from repro.snet.synchrocell import SyncroCell
from repro.snet.types import TypeSignature

__all__ = ["FusedChain", "Placement", "Plan", "StarFacts", "plan_of"]


class FusedChain(PrimitiveEntity):
    """A run of pure primitives executed back-to-back in one port.

    Behaves exactly like the serial composition of its stages: ``process``
    pipes one record through every stage in order, ``flush`` cascades each
    stage's end-of-stream output through the stages after it.  Type
    queries delegate the way :class:`Serial` does.  With a ``tracer``,
    every stage records its ``consume``/``produce`` events under its own
    name, as its own port would.
    """

    KIND = "fused"
    CHILD_ATTRS = ("stages",)

    def __init__(self, stages: List[PrimitiveEntity], name: Optional[str] = None,
                 tracer: Any = None):
        if len(stages) < 2:
            raise ValueError("a fused chain needs at least two stages")
        super().__init__(name or "fused(" + "..".join(s.name for s in stages) + ")")
        self.stages = list(stages)
        self.tracer = tracer

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
        tracer = self.tracer
        for stage in self.stages[start:]:
            if not records:
                break
            produced: List[Record] = []
            for rec in records:
                if tracer is not None:
                    tracer.record(stage.name, "consume", record=repr(rec))
                out = stage.process(rec)
                if tracer is not None:
                    for made in out:
                        tracer.record(stage.name, "produce", record=repr(made))
                produced.extend(out)
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


class StarFacts(NamedTuple):
    """What every level of one star shares (see ``ports._StarChain``)."""

    #: may a record skip the levels that have become the identity for it?
    skips: bool
    #: id of each synchrocell a record's route through a level can meet
    #: (through serial, parallel and network nesting) -> its index
    cells: Dict[int, int]


class Placement(NamedTuple):
    """One placement root (``A @ num`` or ``A !@ <tag>``) of a network."""

    entity: int  # ``id`` of the combinator
    name: str
    key: str  # structural content hash: the partition template's key
    node: int  # compute node of a static placement
    tag: Optional[str]  # index tag of a placed split, else ``None``
    operand: Entity  # what each partition instance runs


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


def _find_spines(entity: Entity, path: Tuple[Entity, ...], spines: List[Any]) -> None:
    """Collect the serial spines holding a run of two or more boxes and
    filters (synchrocells are stateful and keep their own ports), with the
    entities on the way to each; placement subtrees keep their shape, as
    partition workers run them by structural key."""
    if isinstance(entity, StaticPlacement) or (isinstance(entity, IndexSplit) and entity.placed):
        return
    if isinstance(entity, Serial):
        stages = _flatten_serial(entity)
        pure = [isinstance(stage, (Box, Filter)) for stage in stages]
        if any(a and b for a, b in zip(pure, pure[1:])):
            spines.append((id(entity), path, tuple(stages)))
        inner = [stage for stage in stages if not isinstance(stage, PrimitiveEntity)]
    elif isinstance(entity, Combinator):
        inner = list(entity.children())
    else:
        return
    for child in inner:
        _find_spines(child, path + (child,), spines)


def _routes_by_labels(operand: Entity) -> bool:
    """Does every routing decision inside ``operand`` depend on labels only?

    True when no pattern in it (synchrocell slot, filter rule, nested exit
    pattern) carries a guard and it holds no primitive of unknown kind:
    then whether a record passes an unrolled level unchanged depends on
    the record's label set and the level's synchrocells, nothing else.
    """
    for ent in operand.iter_entities():
        if isinstance(ent, SyncroCell):
            patterns = ent.patterns
        elif isinstance(ent, Filter):
            patterns = [rule.pattern for rule in ent.rules]
        elif isinstance(ent, Star):
            patterns = [ent.exit_pattern]
        elif isinstance(ent, (Box, Combinator)):
            continue
        else:
            return False
        if any(p.guard is not None for p in patterns):
            return False
    return True


def star_facts(star: Star) -> StarFacts:
    """The static facts of ``star`` (deterministic ``**`` stars never skip)."""
    cells, pending = [], [star.operand]
    while pending:
        ent = pending.pop()
        if isinstance(ent, SyncroCell):
            cells.append(ent)
        elif isinstance(ent, (Serial, Parallel, Network)):
            pending.extend(ent.children())
    index = {id(cell): i for i, cell in enumerate(cells)}
    skips = (
        not star.deterministic
        and len(index) == len(cells)  # no cell object used twice
        and _routes_by_labels(star.operand)
    )
    return StarFacts(skips, index)


class Plan:
    """The compiled, immutable facts of one network object (see the module)."""

    __slots__ = ("report", "failure", "spines", "stars", "placements")

    def __init__(self, network: Entity, nodes: Optional[int] = None):
        #: the analysis report, or ``None`` and the analyzer's exception
        self.report: Any = None
        self.failure: Optional[BaseException] = None
        try:
            from repro.snet.analysis import analyze_network

            self.report = analyze_network(network, nodes=nodes)
        except Exception as exc:  # noqa: BLE001 - reported by plan_of
            self.failure = exc
        spines: List[Any] = []
        _find_spines(network, (), spines)
        #: (id of the spine's outermost serial, the entities whose claim
        #: would take the spine from the core, its stages)
        self.spines: Tuple[Tuple[int, Tuple[Entity, ...], Tuple[Entity, ...]], ...] = (
            tuple(spines)
        )
        #: id of a star -> its facts
        self.stars = {
            id(ent): star_facts(ent) for ent in network.iter_entities() if isinstance(ent, Star)
        }
        self.placements = tuple(
            Placement(
                id(root),
                root.name,
                structural_key(root),
                placement_of(root),
                root.tag if isinstance(root, IndexSplit) else None,
                root.operand,
            )
            for root in iter_placement_roots(network)
        )

    @property
    def fusable(self) -> bool:
        """May runs fuse?  Only with the analyzer's proof: an error-free
        report (the fail-safe direction: no report, no fusion)."""
        return self.report is not None and not self.report.errors

    def fuse(
        self, claims: Callable[[Entity], bool], tracer: Any = None
    ) -> Tuple[Dict[int, Tuple[Entity, ...]], int]:
        """One run's fusion: ``({id of a spine's serial: its stages}, chains)``.

        Each run of boxes and filters becomes one :class:`FusedChain`, split
        at every stage ``claims`` (the run's transport) would execute
        itself; a spine below a claimed entity is left alone.  The
        network's root is the caller's to check.
        """
        fused: Dict[int, Tuple[Entity, ...]] = {}
        chains = 0
        for serial, path, spine in self.spines:
            if any(map(claims, path)):
                continue
            stages: List[Entity] = []
            run: List[Entity] = []
            for stage in spine + (None,):
                if isinstance(stage, (Box, Filter)) and not claims(stage):
                    run.append(stage)
                    continue
                if len(run) >= 2:
                    stages.append(FusedChain(run, tracer=tracer))
                    chains += 1
                else:
                    stages.extend(run)
                run = []
                if stage is not None:
                    stages.append(stage)
            if len(stages) < len(spine):
                fused[serial] = tuple(stages)
        return fused, chains


#: network -> {cluster size: plan}
_PLANS: "weakref.WeakKeyDictionary[Entity, Dict[Optional[int], Plan]]" = (
    weakref.WeakKeyDictionary()
)


def plan_of(network: Entity, nodes: Optional[int] = None, check: str = "off") -> Plan:
    """The plan of ``network`` for a cluster of ``nodes``, compiled once.

    ``check`` reports the analysis: ``"warn"`` warns of error findings
    when the plan is compiled, ``"error"`` raises
    :class:`~repro.snet.errors.NetworkError` on every call, ``"off"``
    stays silent.  An analyzer crash never blocks execution: it is
    reported as a warning (fail open) and the plan fuses nothing.
    """
    try:
        plans = _PLANS.setdefault(network, {})
    except TypeError:  # unhashable or unweakrefable entity: no cache
        plans = {}
    plan = plans.get(nodes)
    fresh = plan is None
    if plan is None:
        plan = plans[nodes] = Plan(network, nodes)
    if check == "off" or plan.fusable:
        return plan
    if plan.report is None:
        if fresh:
            warnings.warn(
                f"static network check skipped: analyzer failed ({plan.failure!r})",
                RuntimeWarning,
                stacklevel=3,
            )
        return plan
    errors = plan.report.errors
    findings = "\n".join(d.format() for d in errors)
    name = getattr(network, "name", "<unnamed>")
    if check == "error":
        raise NetworkError(
            f"network {name!r} failed static analysis with {len(errors)} error(s) "
            "(pass check='warn' or check='off' to run anyway):\n" + findings
        )
    if fresh:  # warn once per network, not once per job
        warnings.warn(
            f"static analysis found {len(errors)} error(s) in network {name!r}:\n"
            + findings,
            RuntimeWarning,
            stacklevel=3,
        )
    return plan
