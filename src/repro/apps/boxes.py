"""The box functions of the ray-tracing application.

These are the "algorithm engineering" half of the paper's methodology: plain
functions over value parameters, with no knowledge of concurrency, placement
or scheduling.  The concurrency engineering half — how they are composed —
lives in :mod:`repro.apps.merger` and :mod:`repro.apps.networks`.

Five boxes are defined (exactly the ones of Figs. 2–4):

``splitter``
    divides the image into sections according to a scheduler and emits one
    record per section; in the static variants every section carries a
    ``<node>`` (and optionally ``<cpu>``) tag, in the dynamic variant only
    the first ``<tokens>`` sections do;
``solver``
    renders one section into a chunk;
``init``
    creates the accumulator picture from the first chunk (tagged ``<fst>``);
``merge``
    inserts a further chunk into the accumulator picture;
``genImg``
    writes the finished picture.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.apps.backends import RenderBackend
from repro.raytracer.tracer import check_render_mode
from repro.scheduling.base import EditedSection, Scheduler, Section, validate_sections
from repro.scheduling.block import BlockScheduler
from repro.snet.boxes import Box
from repro.snet.records import Record

__all__ = ["RayTracingBoxes"]


class RayTracingBoxes:
    """Factory for the application's boxes over a given render backend.

    Parameters
    ----------
    backend:
        The render backend (real or model).
    scheduler:
        How the splitter divides the image into sections.  Defaults to block
        scheduling with as many sections as there are ``<tasks>``.
    render_mode:
        Optional override of the backend's rendering strategy
        (``"fused"`` | ``"scalar"``); ``None`` leaves the backend's own
        mode untouched.  Backends without a mode knob (the model backend)
        ignore the override.
    """

    def __init__(
        self,
        backend: RenderBackend,
        scheduler: Optional[Scheduler] = None,
        render_mode: Optional[str] = None,
    ):
        self.backend = backend
        self.scheduler = scheduler
        if render_mode is not None and hasattr(backend, "render_mode"):
            backend.render_mode = check_render_mode(render_mode)

    # -- section generation ------------------------------------------------
    def _sections(self, num_tasks: int) -> List[Section]:
        scheduler = self.scheduler or BlockScheduler(num_tasks)
        sections = scheduler.sections(self.backend.height)
        validate_sections(sections, self.backend.height)
        return sections

    def _split_records(self, scene, sections) -> List[dict]:
        """Base records for one job: cached chunks or renderable sections.

        Consults the backend's temporal tile cache
        (:meth:`~repro.apps.backends.RenderBackend.plan_job`): sections
        provably unaffected by the scene edits since the cached frame are
        emitted as ready ``(chunk, <tasks>)`` records that short-circuit
        straight past the solvers to the merger, each run of row-adjacent
        ones joined into a single chunk
        (:meth:`~repro.apps.backends.RenderBackend.join_chunks`); the rest
        are emitted as the usual ``(scene, sect, <tasks>)`` records, with
        the journal entries a stale fork worker needs riding along inside an
        :class:`~repro.scheduling.base.EditedSection`.  The caller adds its
        variant-specific placement tags to the renderable records.

        The first record carries ``<fst>`` and ``<tasks>`` counts the
        records, i.e. the chunks the merger will see, so its completion
        arithmetic holds with or without reuse.
        """
        backend = self.backend
        reuse = backend.plan_job(scene, sections)
        edits = backend.edits_to_ship(scene)
        records: List[dict] = []
        run: List = []  # cached chunks of the current row-adjacent run
        run_end = None

        def close_run() -> None:
            if run:
                chunk = run[0] if len(run) == 1 else backend.join_chunks(run)
                records.append({"chunk": chunk})
                run.clear()

        for section in sections:
            cached = reuse.get(section.index)
            if cached is not None:
                if section.y_start != run_end:
                    close_run()
                run.append(cached)
                run_end = section.y_end
                continue
            close_run()
            run_end = None
            if edits:
                section = EditedSection(
                    section.index, section.y_start, section.y_end, edits=edits
                )
                backend.edits_shipped += len(edits)
            records.append({"scene": scene, "sect": section})
        close_run()
        for entries in records:
            entries["<tasks>"] = len(records)
        records[0]["<fst>"] = 1
        return records

    # -- splitter variants ---------------------------------------------------
    def static_splitter(self) -> Box:
        """Splitter of Fig. 2: every section is assigned to a node up front.

        Sections are dealt round-robin over the ``<nodes>`` compute nodes.
        The first section additionally carries ``<fst>``.
        """
        backend = self.backend
        boxes = self

        def splitter(scene, nodes, tasks, out):
            sections = boxes._sections(tasks)
            for entries in boxes._split_records(scene, sections):
                if "sect" in entries:
                    entries["<node>"] = entries["sect"].index % nodes
                out(entries)

        return Box(
            "splitter",
            "(scene, <nodes>, <tasks>) -> (scene, sect, <node>, <tasks>, <fst>)"
            " | (scene, sect, <node>, <tasks>)"
            " | (chunk, <tasks>, <fst>)"
            " | (chunk, <tasks>)",
            splitter,
            cost=lambda rec: backend.scene_load_cost() + backend.split_cost(),
            parallel_safe=False,  # control logic; not worth shipping the scene out
        )

    def static_2cpu_splitter(self) -> Box:
        """Splitter for the 2-CPU static variant: adds a ``<cpu>`` tag (0/1).

        Sections are dealt so that consecutive sections land on the same node
        but alternate CPUs, mirroring "marking input data with a <cpu> tag of
        values 0 and 1" in the paper.
        """
        backend = self.backend
        boxes = self

        def splitter(scene, nodes, tasks, out):
            sections = boxes._sections(tasks)
            for entries in boxes._split_records(scene, sections):
                sect = entries.get("sect")
                if sect is not None:
                    entries["<node>"] = (sect.index // 2) % nodes
                    entries["<cpu>"] = sect.index % 2
                out(entries)

        return Box(
            "splitter",
            "(scene, <nodes>, <tasks>) -> (scene, sect, <node>, <cpu>, <tasks>, <fst>)"
            " | (scene, sect, <node>, <cpu>, <tasks>)"
            " | (chunk, <tasks>, <fst>)"
            " | (chunk, <tasks>)",
            splitter,
            cost=lambda rec: backend.scene_load_cost() + backend.split_cost(),
            parallel_safe=False,
        )

    def dynamic_splitter(self) -> Box:
        """Splitter for the dynamically scheduled variant (Section IV-B).

        Only the first ``<tokens>`` sections carry a ``<node>`` tag (the
        initial tokens); the remaining sections queue inside the solver
        segment until a token is released by a completed section.

        Token values are distinct, so every token owns its own solver
        replica and several replicas on the same node can use all of its
        CPUs.  They are dealt so that the *physical* nodes initially receive
        contiguous bands of the image: when ``tokens == tasks`` this
        degenerates into exactly the blocked static distribution whose load
        imbalance the paper identifies as the bad case for the dynamic
        scheduler.
        """
        backend = self.backend
        boxes = self

        def splitter(scene, nodes, tasks, tokens, out):
            sections = boxes._sections(tasks)
            per_node = max(1, -(-tokens // nodes))  # ceil(tokens / nodes)
            rank = 0  # tokens are dealt over *renderable* sections only:
            # cached sections never enter the solver segment, so giving them
            # tokens would strand concurrency on skipped work
            for entries in boxes._split_records(scene, sections):
                if "sect" in entries:
                    if rank < tokens:
                        # distinct abstract node ids; the distributed runtime
                        # maps them onto physical nodes modulo the cluster
                        # size (like MPI ranks with several ranks per node),
                        # so consecutive sections initially land on the same
                        # node until that node's token quota is exhausted
                        slot = rank % per_node
                        node = rank // per_node
                        entries["<node>"] = slot * nodes + node
                    rank += 1
                out(entries)

        return Box(
            "splitter",
            "(scene, <nodes>, <tasks>, <tokens>)"
            " -> (scene, sect, <node>, <tasks>, <fst>)"
            " | (scene, sect, <node>, <tasks>)"
            " | (scene, sect, <tasks>)"
            " | (chunk, <tasks>, <fst>)"
            " | (chunk, <tasks>)",
            splitter,
            cost=lambda rec: backend.scene_load_cost() + backend.split_cost(),
            parallel_safe=False,
        )

    # -- solver ---------------------------------------------------------------
    def solver(self) -> Box:
        """The solver box of Fig. 2: render one section into a chunk."""
        backend = self.backend

        def solve(scene, sect):
            return {"chunk": backend.render_section(sect)}

        return Box(
            "solver",
            "(scene, sect) -> (chunk)",
            solve,
            cost=lambda rec: backend.section_cost(rec.field("sect")),
        )

    # -- merger boxes ------------------------------------------------------------
    def init_box(self) -> Box:
        """The init box of Fig. 3: first chunk becomes the accumulator picture."""
        backend = self.backend

        def init(chunk, fst):
            return {"pic": backend.init_picture(chunk)}

        return Box(
            "init",
            "(chunk, <fst>) -> (pic)",
            init,
            cost=lambda rec: backend.picture_copy_cost(),
            # merger boxes stay in-process: round-tripping the accumulator
            # picture through the pool would cost more than the merge itself
            parallel_safe=False,
        )

    def merge_box(self) -> Box:
        """The merge box of Fig. 3: insert one more chunk into the picture."""
        backend = self.backend

        def merge(chunk, pic):
            return {"pic": backend.merge(pic, chunk)}

        return Box(
            "merge",
            "(chunk, pic) -> (pic)",
            merge,
            # the backend owns the merge strategy (copy-per-merge in the
            # paper's model, in-place or shared-frame bookkeeping on the
            # executing backends) and therefore also its modelled cost
            cost=lambda rec: backend.merge_cost(rec.field("chunk")),
            parallel_safe=False,
        )

    def genimg_box(self) -> Box:
        """The genImg box of Fig. 2: write the completed picture to a file."""
        backend = self.backend

        def genimg(pic):
            backend.write_image(pic)
            # every section (fresh or cache-reused) has passed the merger by
            # now: promote this frame's tile summaries to the cross-job cache
            backend.finish_job()
            return None

        return Box(
            "genImg",
            "(pic) -> ()",
            genimg,
            cost=lambda rec: backend.image_write_cost(),
            # the caller observes genImg through backend.saved_images, so it
            # must execute in the coordinating process
            parallel_safe=False,
        )

    # -- environment for the textual front-end -----------------------------------
    def environment(self, dynamic: bool = False, two_cpu: bool = False) -> dict:
        """A name -> Box mapping usable as a builder :class:`BoxEnvironment`."""
        if dynamic:
            splitter = self.dynamic_splitter()
        elif two_cpu:
            splitter = self.static_2cpu_splitter()
        else:
            splitter = self.static_splitter()
        return {
            "splitter": splitter,
            "solver": self.solver(),
            "solve": self.solver(),
            "init": self.init_box(),
            "merge": self.merge_box(),
            "genImg": self.genimg_box(),
        }
