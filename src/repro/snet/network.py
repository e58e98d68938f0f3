"""Named networks and network definitions.

A :class:`Network` wraps an entity expression (the ``connect`` clause of an
S-Net ``net`` definition) and gives it a name and an optional explicit type
signature.  A :class:`NetworkDefinition` additionally keeps the local box and
sub-network declarations so that the textual front-end can resolve names.

Networks are themselves entities, so they nest: the ``merger`` sub-net of the
paper's ray tracer is a :class:`Network` used inside the top-level
``raytracing`` network.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.snet.base import Entity
from repro.snet.combinators import Combinator, _end, _feed
from repro.snet.errors import NetworkError
from repro.snet.records import Record
from repro.snet.types import TypeSignature

__all__ = ["Network", "NetworkDefinition", "run_network"]


class Network(Combinator):
    """A named SISO network wrapping a body entity."""

    KIND = "net"
    CHILD_ATTRS = ("body",)

    def __init__(
        self,
        name: str,
        body: Entity,
        signature: Optional[TypeSignature] = None,
    ):
        super().__init__(name)
        self.body = body
        self._explicit_signature = signature

    @property
    def signature(self) -> TypeSignature:
        if self._explicit_signature is not None:
            return self._explicit_signature
        return self.body.signature

    def children(self) -> Iterable[Entity]:
        return (self.body,)

    def accepts(self, rec: Record) -> bool:
        return self.body.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        return self.body.match_score(rec)

    def feed(self, rec: Record) -> List[Record]:
        return _feed(self.body, rec)

    def end(self) -> List[Record]:
        return _end(self.body)

    def __repr__(self) -> str:
        return f"<net {self.name}>"


class NetworkDefinition:
    """A ``net`` definition: local declarations plus a connect expression."""

    def __init__(
        self,
        name: str,
        body: Entity,
        declarations: Optional[Dict[str, Entity]] = None,
        signature: Optional[TypeSignature] = None,
    ):
        self.name = name
        self.declarations = dict(declarations or {})
        self.network = Network(name, body, signature=signature)

    def instantiate(self) -> Network:
        """Return a fresh copy of the network (all internal state reset)."""
        return self.network.copy()  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"<net definition {self.name} ({len(self.declarations)} declarations)>"


def run_network(
    network: Entity, inputs: Sequence[Record], fresh: bool = True
) -> List[Record]:
    """Run a network on a finite input stream using sequential semantics.

    This is the deterministic reference interpreter: records are fed one at a
    time in order, then the network is flushed.  The threaded and simulated
    runtimes must produce the same *multiset* of output records (ordering may
    differ due to nondeterministic merging).

    Parameters
    ----------
    network:
        Any entity (box, filter, combinator expression or :class:`Network`).
    inputs:
        The finite input stream.
    fresh:
        Run on a fresh copy so that repeated calls do not share state.
    """
    target = network.copy() if fresh else network
    outputs: List[Record] = []
    for rec in inputs:
        outputs.extend(_feed(target, rec))
    outputs.extend(_end(target))
    return outputs
