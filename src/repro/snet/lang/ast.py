"""Abstract syntax tree for the S-Net surface language.

The AST distinguishes the *network expression* level (combinator formulae in
``connect`` clauses) from the *declaration* level (``box`` and ``net``
declarations).  Type-level syntax (variants, patterns, guard expressions) is
translated straight into the runtime representations of
:mod:`repro.snet.types` and :mod:`repro.snet.patterns` by the parser, so the
AST only contains nodes for things that require later resolution (box names,
nested nets).

Every node carries an optional ``span`` — the (line, column) position of its
first token — so the network builder can attach source locations to the
entities it creates and the static analyzer can point diagnostics back at
the offending line of the ``.snet`` program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.snet.analysis.diagnostics import SourceSpan
from repro.snet.boxes import BoxSignature
from repro.snet.filters import Filter
from repro.snet.patterns import Pattern
from repro.snet.synchrocell import SyncroCell
from repro.snet.types import TypeSignature

__all__ = [
    "NetExpr",
    "NameRef",
    "FilterExpr",
    "SyncExpr",
    "SerialExpr",
    "ParallelExpr",
    "StarExpr",
    "SplitExpr",
    "PlacementExpr",
    "BoxDecl",
    "NetDecl",
]


class NetExpr:
    """Base class of network-expression AST nodes."""

    span: Optional[SourceSpan]


@dataclass
class NameRef(NetExpr):
    """A reference to a declared box or net by name."""

    name: str
    span: Optional[SourceSpan] = None


@dataclass
class FilterExpr(NetExpr):
    """An inline filter literal; the parser already built the entity."""

    filter: Filter
    span: Optional[SourceSpan] = None


@dataclass
class SyncExpr(NetExpr):
    """An inline synchrocell literal."""

    sync: SyncroCell
    span: Optional[SourceSpan] = None


@dataclass
class SerialExpr(NetExpr):
    """Serial composition ``left .. right``."""

    left: NetExpr
    right: NetExpr
    span: Optional[SourceSpan] = None


@dataclass
class ParallelExpr(NetExpr):
    """Parallel composition ``left | right`` (``||`` when deterministic)."""

    left: NetExpr
    right: NetExpr
    deterministic: bool = False
    span: Optional[SourceSpan] = None


@dataclass
class StarExpr(NetExpr):
    """Serial replication ``operand * pattern`` (``**`` when deterministic)."""

    operand: NetExpr
    exit_pattern: Pattern
    deterministic: bool = False
    span: Optional[SourceSpan] = None


@dataclass
class SplitExpr(NetExpr):
    """Parallel replication ``operand ! <tag>`` / ``!! <tag>`` / ``!@ <tag>``."""

    operand: NetExpr
    tag: str
    deterministic: bool = False
    placed: bool = False
    span: Optional[SourceSpan] = None


@dataclass
class PlacementExpr(NetExpr):
    """Static placement ``operand @ node`` (Distributed S-Net)."""

    operand: NetExpr
    node: int
    span: Optional[SourceSpan] = None


@dataclass
class BoxDecl:
    """A ``box name (signature);`` declaration."""

    name: str
    signature: BoxSignature
    span: Optional[SourceSpan] = None


@dataclass
class NetDecl:
    """A ``net name [typesig] [{ declarations } connect expr];`` declaration."""

    name: str
    signature: Optional[TypeSignature] = None
    boxes: List[BoxDecl] = field(default_factory=list)
    nets: List["NetDecl"] = field(default_factory=list)
    body: Optional[NetExpr] = None
    span: Optional[SourceSpan] = None
