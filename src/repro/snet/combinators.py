"""The four S-Net network combinators (plus deterministic variants).

S-Net composes SISO entities with exactly four combinators:

* **serial composition** ``A .. B`` (:class:`Serial`) — pipeline;
* **parallel composition** ``A | B`` (:class:`Parallel`) — records are routed
  to the branch whose input type matches best;
* **serial replication** ``A * pattern`` (:class:`Star`) — an unbounded chain
  of replicas of ``A``; the chain is tapped before every replica and records
  matching the exit pattern leave the network;
* **parallel replication** ``A ! <tag>`` (:class:`IndexSplit`) — one replica
  of ``A`` per observed value of ``<tag>``; records are routed by tag value.

All combinators preserve the SISO property, so arbitrary nesting is possible
and a whole network is itself an entity.

Every combinator implements the *sequential* execution semantics
(:meth:`Entity.feed` / :meth:`Entity.end`) used by the deterministic
interpreter and by the unit tests; the threaded and simulated runtimes use the
structural view instead and implement concurrency on top of it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.errors import NetworkError, RouteError
from repro.snet.patterns import Pattern
from repro.snet.records import Record
from repro.snet.types import RecordType, TypeSignature

__all__ = [
    "Serial",
    "Parallel",
    "Star",
    "IndexSplit",
    "serial",
    "parallel",
    "star",
    "split",
]


# ---------------------------------------------------------------------------
# sequential execution protocol
# ---------------------------------------------------------------------------
def _feed(entity: Entity, rec: Record) -> List[Record]:
    """Feed one record through an entity using sequential semantics."""
    if isinstance(entity, Combinator):
        return entity.feed(rec)
    if isinstance(entity, PrimitiveEntity):
        return entity.process(rec)
    raise NetworkError(f"cannot execute entity {entity!r} sequentially")


def _end(entity: Entity) -> List[Record]:
    """Signal end-of-stream to an entity and collect any released records."""
    if isinstance(entity, Combinator):
        return entity.end()
    if isinstance(entity, PrimitiveEntity):
        return entity.flush()
    return []


class Combinator(Entity):
    """Base class of all combinators."""

    KIND = "combinator"

    def feed(self, rec: Record) -> List[Record]:
        raise NotImplementedError

    def end(self) -> List[Record]:
        return []


# ---------------------------------------------------------------------------
# serial composition  A .. B
# ---------------------------------------------------------------------------
class Serial(Combinator):
    """Serial composition ``A .. B``: the output stream of A feeds B."""

    KIND = "serial"
    CHILD_ATTRS = ("left", "right")

    def __init__(self, left: Entity, right: Entity, name: Optional[str] = None):
        super().__init__(name)
        self.left = left
        self.right = right

    @property
    def signature(self) -> TypeSignature:
        return self.left.signature.compose_serial(self.right.signature)

    def children(self) -> Iterable[Entity]:
        return (self.left, self.right)

    def accepts(self, rec: Record) -> bool:
        return self.left.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        return self.left.match_score(rec)

    def feed(self, rec: Record) -> List[Record]:
        produced: List[Record] = []
        for intermediate in _feed(self.left, rec):
            produced.extend(_feed(self.right, intermediate))
        return produced

    def end(self) -> List[Record]:
        produced: List[Record] = []
        for intermediate in _end(self.left):
            produced.extend(_feed(self.right, intermediate))
        produced.extend(_end(self.right))
        return produced

    def __repr__(self) -> str:
        return f"({self.left!r} .. {self.right!r})"


# ---------------------------------------------------------------------------
# parallel composition  A | B
# ---------------------------------------------------------------------------
class Parallel(Combinator):
    """Parallel composition ``A | B`` (``A || B`` when deterministic).

    Records are routed to the branch whose input type matches with the best
    (lowest) score; ties go to the leftmost branch in the deterministic
    variant and to an arbitrary branch otherwise (the sequential semantics
    also picks the leftmost, which is a legal nondeterministic choice).
    """

    KIND = "parallel"
    CHILD_ATTRS = ("left", "right")

    def __init__(
        self,
        left: Entity,
        right: Entity,
        deterministic: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.deterministic = deterministic

    @property
    def branches(self) -> Sequence[Entity]:
        return (self.left, self.right)

    @property
    def signature(self) -> TypeSignature:
        return self.left.signature.compose_parallel(self.right.signature)

    def children(self) -> Iterable[Entity]:
        return (self.left, self.right)

    def accepts(self, rec: Record) -> bool:
        return any(b.accepts(rec) for b in self.branches)

    def match_score(self, rec: Record) -> Optional[int]:
        scores = [s for s in (b.match_score(rec) for b in self.branches) if s is not None]
        return min(scores) if scores else None

    def route(self, rec: Record) -> Entity:
        """Select the branch that should receive ``rec``."""
        best: Optional[Entity] = None
        best_score: Optional[int] = None
        for branch in self.branches:
            score = branch.match_score(rec)
            if score is None:
                continue
            if best_score is None or score < best_score:
                best, best_score = branch, score
        if best is None:
            raise RouteError(
                f"parallel combinator {self.name!r}: no branch accepts {rec!r} "
                f"(signature {self.signature!r})"
            )
        return best

    def feed(self, rec: Record) -> List[Record]:
        return _feed(self.route(rec), rec)

    def end(self) -> List[Record]:
        produced: List[Record] = []
        for branch in self.branches:
            produced.extend(_end(branch))
        return produced

    def __repr__(self) -> str:
        op = "||" if self.deterministic else "|"
        return f"({self.left!r} {op} {self.right!r})"


# ---------------------------------------------------------------------------
# serial replication  A * pattern
# ---------------------------------------------------------------------------
class Star(Combinator):
    """Serial replication ``A * pattern``.

    Conceptually an infinite pipeline ``A .. A .. A .. ...`` tapped before
    every replica: a record matching the exit pattern leaves the star at the
    tap; all other records enter the next replica.  Replicas are instantiated
    lazily and each carries its own state (fresh copies of any nested
    synchrocells), which is exactly the behaviour the merger network of
    Fig. 3 relies on.
    """

    KIND = "star"
    CHILD_ATTRS = ("operand",)

    def __init__(
        self,
        operand: Entity,
        exit_pattern: Union[Pattern, Iterable, str],
        deterministic: bool = False,
        name: Optional[str] = None,
        max_depth: int = 100000,
    ):
        super().__init__(name)
        self.operand = operand
        if isinstance(exit_pattern, str):
            exit_pattern = Pattern.parse(exit_pattern)
        elif not isinstance(exit_pattern, Pattern):
            exit_pattern = Pattern(exit_pattern)
        self.exit_pattern = exit_pattern
        self.deterministic = deterministic
        self.max_depth = max_depth
        self._instances: List[Entity] = []

    @property
    def signature(self) -> TypeSignature:
        sig = self.operand.signature
        exit_type = RecordType([self.exit_pattern.variant])
        return TypeSignature(
            sig.input_type.union(exit_type), sig.output_type.union(exit_type)
        )

    def children(self) -> Iterable[Entity]:
        return (self.operand,)

    def accepts(self, rec: Record) -> bool:
        return self.operand.accepts(rec) or self.exit_pattern.matches(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        scores = []
        s = self.operand.match_score(rec)
        if s is not None:
            scores.append(s)
        s2 = self.exit_pattern.match_score(rec)
        if s2 is not None:
            scores.append(s2)
        return min(scores) if scores else None

    def reset(self) -> None:
        self._instances = []

    @property
    def unrolled_depth(self) -> int:
        """Number of replicas instantiated so far (for inspection/tests)."""
        return len(self._instances)

    def _instance(self, level: int) -> Entity:
        while len(self._instances) <= level:
            self._instances.append(self.operand.copy())
        return self._instances[level]

    def feed(self, rec: Record) -> List[Record]:
        return self._route(rec, 0)

    def _route(self, rec: Record, level: int) -> List[Record]:
        if self.exit_pattern.matches(rec):
            return [rec]
        if level >= self.max_depth:
            raise NetworkError(
                f"star {self.name!r} exceeded maximum unrolling depth "
                f"{self.max_depth}; exit pattern {self.exit_pattern!r} never matched"
            )
        outputs = _feed(self._instance(level), rec)
        produced: List[Record] = []
        for out in outputs:
            produced.extend(self._route(out, level + 1))
        return produced

    def end(self) -> List[Record]:
        """Flush every instantiated replica in pipeline order."""
        produced: List[Record] = []
        level = 0
        while level < len(self._instances):
            for out in _end(self._instances[level]):
                produced.extend(self._route(out, level + 1))
            level += 1
        return produced

    def __repr__(self) -> str:
        op = "**" if self.deterministic else "*"
        return f"({self.operand!r} {op} {self.exit_pattern!r})"


# ---------------------------------------------------------------------------
# parallel replication  A ! <tag>
# ---------------------------------------------------------------------------
class IndexSplit(Combinator):
    """Parallel (indexed) replication ``A ! <tag>`` and placement ``A !@ <tag>``.

    One replica of the operand exists per observed value of the index tag;
    every incoming record must carry the tag and is routed to (and only to)
    the replica selected by its value.  With ``placed=True`` the combinator is
    the Distributed S-Net *indexed placement* combinator ``!@``: the replica
    for value *v* executes on compute node *v* (interpreted by the distributed
    runtimes; the sequential semantics are identical).
    """

    KIND = "split"
    CHILD_ATTRS = ("operand",)

    def __init__(
        self,
        operand: Entity,
        tag: str,
        deterministic: bool = False,
        placed: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        self.operand = operand
        self.tag = tag.strip("<>")
        self.deterministic = deterministic
        self.placed = placed
        self._instances: Dict[int, Entity] = {}

    @property
    def signature(self) -> TypeSignature:
        sig = self.operand.signature
        # every input variant additionally requires the index tag
        variants = [v.union(Pattern([f"<{self.tag}>"]).variant) for v in sig.input_type]
        return TypeSignature(RecordType(variants), sig.output_type)

    def children(self) -> Iterable[Entity]:
        return (self.operand,)

    def accepts(self, rec: Record) -> bool:
        return rec.has_tag(self.tag) and self.operand.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        if not rec.has_tag(self.tag):
            return None
        score = self.operand.match_score(rec)
        if score is None:
            return None
        # the tag is part of this combinator's input type, so it is not
        # counted as "ignored"
        return max(0, score - (0 if self.tag in {t.name for t in rec.tags()} else 0))

    def reset(self) -> None:
        self._instances = {}

    @property
    def instances(self) -> Dict[int, Entity]:
        """Mapping tag-value -> operand replica (for inspection/placement)."""
        return dict(self._instances)

    def instance_for(self, value: int) -> Entity:
        if value not in self._instances:
            self._instances[value] = self.operand.copy()
        return self._instances[value]

    def feed(self, rec: Record) -> List[Record]:
        if not rec.has_tag(self.tag):
            raise RouteError(
                f"index split {self.name!r} requires tag <{self.tag}> on every "
                f"record, got {rec!r}"
            )
        value = rec.tag(self.tag)
        return _feed(self.instance_for(value), rec)

    def end(self) -> List[Record]:
        produced: List[Record] = []
        for value in sorted(self._instances):
            produced.extend(_end(self._instances[value]))
        return produced

    def __repr__(self) -> str:
        op = "!@" if self.placed else ("!!" if self.deterministic else "!")
        return f"({self.operand!r} {op} <{self.tag}>)"


# ---------------------------------------------------------------------------
# functional constructors
# ---------------------------------------------------------------------------
def serial(*entities: Entity) -> Entity:
    """Fold ``serial(a, b, c)`` into ``a .. b .. c`` (left associative)."""
    if not entities:
        raise NetworkError("serial() requires at least one entity")
    result = entities[0]
    for entity in entities[1:]:
        result = Serial(result, entity)
    return result


def parallel(*entities: Entity, deterministic: bool = False) -> Entity:
    """Fold ``parallel(a, b, c)`` into ``a | b | c``."""
    if not entities:
        raise NetworkError("parallel() requires at least one entity")
    result = entities[0]
    for entity in entities[1:]:
        result = Parallel(result, entity, deterministic=deterministic)
    return result


def star(
    operand: Entity,
    exit_pattern: Union[Pattern, Iterable, str],
    deterministic: bool = False,
) -> Star:
    """Construct ``operand * exit_pattern``."""
    return Star(operand, exit_pattern, deterministic=deterministic)


def split(
    operand: Entity, tag: str, deterministic: bool = False, placed: bool = False
) -> IndexSplit:
    """Construct ``operand ! <tag>`` (or ``!@`` when ``placed``)."""
    return IndexSplit(operand, tag, deterministic=deterministic, placed=placed)
