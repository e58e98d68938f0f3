"""The merger sub-network of Fig. 3.

The merger re-combines the asynchronously arriving image chunks into one
complete picture.  Its S-Net source (reproduced verbatim in
:data:`repro.apps.networks.FIG3_MERGER_SOURCE`) is::

    net merger
    {
      box init ( (chunk, <fst>) -> (pic));
      box merge ( (chunk, pic) -> (pic));
    } connect
      ( ( init .. [ {} -> {<cnt=1>} ] )
        | []
      )
      .. ( [| {pic}, {chunk} |]
           .. ( ( merge
                  .. [ {<cnt>} -> {<cnt+=1>}]
                )
                | []
              )
         )*{<tasks> == <cnt>} ;

Reading it: the first chunk (tagged ``<fst>``) is turned into the initial
picture and a ``<cnt>=1`` counter is attached; every other chunk bypasses the
initialisation.  The star then repeatedly synchronises the accumulator
picture with one more chunk, merges them, increments the counter, and
releases the picture once ``<cnt>`` equals the flow-inherited ``<tasks>``.
The bypass branch inside the star forwards chunks that are not consumed by
the current unrolling to the next one (the star does not feed records back).

A structural property this network guarantees — and the backends exploit —
is that the ``pic`` token is *linear*: at any instant exactly one live
``pic`` record exists (init creates it, each synchrocell joins it with one
chunk, each merge consumes it and emits its sole successor).  The merge box
body may therefore mutate the accumulator in place (O(chunk) per merge
instead of the paper's O(H·W) copy) or reduce to pure bookkeeping when the
pixels live in a shared frame buffer; see
:class:`repro.apps.backends.RealRenderBackend` and
:class:`repro.apps.backends.SharedFrameRenderBackend`.
"""

from __future__ import annotations

from repro.apps.boxes import RayTracingBoxes
from repro.snet.combinators import Parallel, Serial, Star
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.synchrocell import SyncroCell

__all__ = ["build_merger"]


def build_merger(boxes: RayTracingBoxes) -> Network:
    """Construct the merger network programmatically (matching Fig. 3)."""
    init_box = boxes.init_box()
    merge_box = boxes.merge_box()

    # ( init .. [ {} -> {<cnt=1>} ] ) | []
    init_path = Serial(init_box, Filter.simple(Pattern(), assign_tags={"cnt": 1}, name="set-cnt"))
    init_stage = Parallel(init_path, Filter.identity("bypass-init"))

    # [| {pic}, {chunk} |] .. ( ( merge .. [ {<cnt>} -> {<cnt+=1>} ] ) | [] )
    sync = SyncroCell([Pattern(["pic"]), Pattern(["chunk"])], name="pic-chunk-sync")
    increment = Filter.simple(
        Pattern(["<cnt>"]), assign_tags={"cnt": TagRef("cnt") + 1}, name="inc-cnt"
    )
    merge_path = Serial(merge_box, increment)
    merge_stage = Serial(sync, Parallel(merge_path, Filter.identity("bypass-merge")))

    # ( ... )*{<tasks> == <cnt>}
    exit_pattern = Pattern(
        ["<tasks>", "<cnt>"], Guard(TagRef("tasks") == TagRef("cnt"))
    )
    star = Star(merge_stage, exit_pattern, name="merge-star")

    return Network("merger", Serial(init_stage, star))
