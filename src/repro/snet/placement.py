"""Placement annotations used by Distributed S-Net.

Standard S-Net has no notion of computing resources; Distributed S-Net adds
two *placement combinators* that map parts of the logical network onto
abstract compute nodes:

* static placement ``A @ num`` — run ``A`` on compute node ``num``;
* indexed dynamic placement ``A !@ <tag>`` — instantiate a replica of ``A``
  per value of ``<tag>`` and run each replica on the node identified by that
  value (implemented by :class:`repro.snet.combinators.IndexSplit` with
  ``placed=True``).

Both are *conservative* extensions: the functional behaviour of the network
is unchanged — placement only tells the distributed runtimes where entities
execute.  The sequential, threaded and process runtimes therefore treat
:class:`StaticPlacement` as a transparent wrapper (a property pinned by the
hypothesis transparency suite in ``tests/test_properties.py``), while
:class:`~repro.snet.runtime.distributed_engine.DistributedRuntime` honours
it for real: :func:`iter_placement_roots` yields the partition boundaries,
each partition executes on the compute-node worker selected by
:func:`placement_of` (statically) or by the index tag value (dynamically),
and the simulated ``dsnet`` backend models the same mapping in virtual
time.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.snet.base import Entity
from repro.snet.combinators import Combinator, IndexSplit, _end, _feed
from repro.snet.errors import PlacementError
from repro.snet.records import Record
from repro.snet.types import TypeSignature

__all__ = [
    "StaticPlacement",
    "placed_split",
    "placement_of",
    "iter_placement_roots",
    "structural_key",
]


class StaticPlacement(Combinator):
    """Static placement combinator ``A @ node``.

    Functionally transparent: every record is passed straight to the wrapped
    entity.  The distributed runtimes read :attr:`node` to decide where the
    wrapped entity (and everything nested in it that carries no more specific
    placement) executes.
    """

    KIND = "placement"
    CHILD_ATTRS = ("operand",)

    def __init__(self, operand: Entity, node: int, name: Optional[str] = None):
        super().__init__(name)
        if node < 0:
            raise PlacementError(f"compute node ids must be non-negative, got {node}")
        self.operand = operand
        self.node = int(node)

    @property
    def signature(self) -> TypeSignature:
        return self.operand.signature

    def children(self) -> Iterable[Entity]:
        return (self.operand,)

    def accepts(self, rec: Record) -> bool:
        return self.operand.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        return self.operand.match_score(rec)

    def feed(self, rec: Record) -> List[Record]:
        return _feed(self.operand, rec)

    def end(self) -> List[Record]:
        return _end(self.operand)

    def __repr__(self) -> str:
        return f"({self.operand!r} @ {self.node})"


def placed_split(operand: Entity, tag: str, deterministic: bool = False) -> IndexSplit:
    """Construct the indexed placement combinator ``operand !@ <tag>``."""
    return IndexSplit(operand, tag, deterministic=deterministic, placed=True)


def placement_of(entity: Entity, default: int = 0) -> int:
    """Return the compute node an entity is statically placed on.

    Walks the entity looking for an enclosing/embedded :class:`StaticPlacement`;
    falls back to ``default`` (the root/master node) when none is found.
    """
    if isinstance(entity, StaticPlacement):
        return entity.node
    for child in entity.children():
        if isinstance(child, StaticPlacement):
            return child.node
    return default


def iter_placement_roots(entity: Entity) -> Iterator[Entity]:
    """Yield every placement combinator in ``entity``, outermost first.

    These are the partition boundaries of the distributed runtime: each
    :class:`StaticPlacement` is one static partition, each placed index
    split (``!@``) a family of dynamically placed partitions.  Placements
    nested *inside* another placement are still yielded (depth-first), but
    the distributed runtime treats them as transparent — the outermost
    placement wins.
    """
    for ent in entity.iter_entities():
        if isinstance(ent, StaticPlacement) or (
            isinstance(ent, IndexSplit) and ent.placed
        ):
            yield ent


def _describe_consts(consts: Iterable[Any]) -> Tuple[Any, ...]:
    """Stable description of a code object's constants.

    ``repr()`` of a nested code object embeds its memory address, which
    would make the structural key differ between two builds of the same
    network — nested code is described by name and bytecode instead.
    """
    described: List[Any] = []
    for const in consts:
        if hasattr(const, "co_code"):
            described.append(("code", const.co_name, const.co_code.hex()))
        else:
            described.append(repr(const))
    return tuple(described)


def _describe_value(value: Any) -> Any:
    """Stable description of a captured value (closure cell, default arg).

    Entities and functions are described structurally; everything else
    falls back to ``repr``.  An object whose class keeps the default
    ``object.__repr__`` hashes by identity (the address in its repr) on
    purpose: a placed subtree closing over a *different* backend object is
    a different partition, and treating it as structurally identical would
    silently route its records through the previously registered subtree.
    """
    if isinstance(value, Entity):
        return _describe_entity(value)
    if callable(value) and hasattr(value, "__qualname__"):
        return _describe_function(value)
    return repr(value)


def _describe_function(func: Any) -> Tuple[Any, ...]:
    """Stable description of a box/cost function: code, defaults, closure."""
    code = getattr(func, "__code__", None)
    cells: List[Any] = []
    for cell in getattr(func, "__closure__", None) or ():
        try:
            cells.append(_describe_value(cell.cell_contents))
        except ValueError:  # pragma: no cover - empty cell
            cells.append("<empty-cell>")
    return (
        "fn",
        getattr(func, "__module__", None),
        getattr(func, "__qualname__", None) or repr(func),
        code.co_code.hex() if code is not None else None,
        _describe_consts(code.co_consts) if code is not None else None,
        tuple(_describe_value(d) for d in getattr(func, "__defaults__", None) or ()),
        tuple(cells),
    )


def _describe_entity(entity: Entity) -> Tuple[Any, ...]:
    """Canonical structural description of a subtree (see :func:`structural_key`)."""
    parts: List[Any] = [type(entity).__name__]
    auto_named = entity.name.startswith(entity.KIND) and entity.name[
        len(entity.KIND) :
    ].isdigit()
    if not auto_named:
        # auto-generated names (``{KIND}{entity_id}``) embed the
        # process-global entity counter and are excluded — matched by
        # pattern, not by current id, because ``Entity.copy`` keeps the
        # name while assigning fresh ids; explicit names (boxes default to
        # the function name, Network names are user-chosen) are structure
        parts.append(("name", entity.name))
    for attr in ("node", "tag", "placed", "deterministic", "max_depth"):
        if hasattr(entity, attr):
            parts.append((attr, getattr(entity, attr)))
    exit_pattern = getattr(entity, "exit_pattern", None)
    if exit_pattern is not None:
        parts.append(("exit", repr(exit_pattern)))
    patterns = getattr(entity, "patterns", None)  # synchrocell
    if patterns is not None:
        parts.append(("patterns", tuple(repr(p) for p in patterns)))
    rules = getattr(entity, "rules", None)  # filter
    if rules is not None:
        described_rules = []
        for rule in rules:
            outputs = tuple(
                (
                    tuple(label.pretty() for label in tpl.keep),
                    tuple(sorted((t, repr(e)) for t, e in tpl.assign_tags.items())),
                    tuple(sorted(tpl.rename.items())),
                    tpl.inherit,
                )
                for tpl in rule.outputs
            )
            described_rules.append((repr(rule.pattern), outputs))
        parts.append(("rules", tuple(described_rules)))
    func = getattr(entity, "func", None)  # box
    if func is not None:
        parts.append(_describe_function(func))
    try:
        parts.append(("sig", repr(entity.signature)))
    except Exception:  # noqa: BLE001 - signature is advisory for the key
        pass
    parts.append(tuple(_describe_entity(child) for child in entity.children()))
    return tuple(parts)


def structural_key(entity: Entity) -> str:
    """Content hash of a (placed) subtree: equal for structurally identical trees.

    Two networks built twice from the same code — same combinator shape,
    same box functions (module, qualname, bytecode, defaults and captured
    closure values), same filter rules/synchrocell patterns, same placement
    nodes and tags — produce the same key even though their entities are
    distinct objects with distinct auto-generated names.  The distributed
    runtime keys its fork-shared partition templates by this hash, so a
    *warm* runtime distributes any structurally identical network instead
    of being keyed to the exact object handed to ``setup()``.

    The hash is deliberately conservative: closures over objects without a
    content ``repr`` compare by identity, so a rebuilt network capturing a
    *new* backend object does **not** match (the registered template would
    render through the old backend) — the runtime then refuses loudly
    rather than distributing the wrong subtree.

    >>> from repro.snet.boxes import box
    >>> def build():
    ...     @box("(a) -> (b)")
    ...     def double(a):
    ...         return {"b": 2 * a}
    ...     return StaticPlacement(double, 1)
    >>> structural_key(build()) == structural_key(build())
    True
    >>> structural_key(StaticPlacement(build().operand, 2)) == structural_key(build())
    False
    """
    description = repr(_describe_entity(entity)).encode()
    return hashlib.sha256(description).hexdigest()[:20]
