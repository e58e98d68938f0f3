"""Plain-text and CSV rendering of the reproduced figures."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.experiments import VariantResult
from repro.bench.figures import Fig5Cell
from repro.bench.paper_data import PAPER_FIG6_RUNTIMES

__all__ = ["format_fig5_table", "format_fig6_table", "to_csv"]

_VARIANT_LABELS = {
    "snet_static": "S-Net Static",
    "snet_static_2cpu": "S-Net Static 2 CPU",
    "mpi": "MPI",
    "mpi_2proc": "MPI 2 Proc/Node",
    "snet_best_dynamic": "S-Net Best Dynamic",
}


def format_fig5_table(cells: Sequence[Fig5Cell], title: str) -> str:
    """Render a Fig. 5 sweep as rows of runtimes (one row per task count)."""
    token_counts = sorted({cell.tokens for cell in cells})
    task_counts = sorted({cell.tasks for cell in cells})
    lookup = {(c.tasks, c.tokens): c.runtime_seconds for c in cells}
    lines = [title, "tasks\\tokens  " + "".join(f"{t:>10}" for t in token_counts)]
    for tasks in task_counts:
        row = [f"{tasks:>12}  "]
        for tokens in token_counts:
            value = lookup.get((tasks, tokens))
            row.append(f"{value:>10.1f}" if value is not None else f"{'-':>10}")
        lines.append("".join(row))
    return "\n".join(lines)


def format_fig6_table(
    runtimes: Dict[str, Dict[int, VariantResult]],
    include_paper: bool = True,
) -> str:
    """Render the Fig. 6 (left) table: one row per variant, one column per node count."""
    node_counts = sorted({n for per_variant in runtimes.values() for n in per_variant})
    header = f"{'variant':<24}" + "".join(f"{n:>5} nodes" for n in node_counts)
    lines = ["Absolute runtimes in seconds (reproduction)", header]
    for variant, per_node in runtimes.items():
        label = _VARIANT_LABELS.get(variant, variant)
        row = f"{label:<24}"
        for nodes in node_counts:
            result = per_node.get(nodes)
            row += f"{result.runtime_seconds:>10.1f}" if result else f"{'-':>10}"
        lines.append(row)
    if include_paper:
        lines.append("")
        lines.append("Paper values (Fig. 6 left), seconds")
        for variant, per_node in PAPER_FIG6_RUNTIMES.items():
            label = _VARIANT_LABELS.get(variant, variant)
            row = f"{label:<24}"
            for nodes in node_counts:
                value = per_node.get(nodes)
                row += f"{value:>10.1f}" if value is not None else f"{'-':>10}"
            lines.append(row)
    return "\n".join(lines)


def to_csv(rows: Iterable[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Serialise result dictionaries as CSV text (no external dependencies)."""
    rows = list(rows)
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in columns))
    return "\n".join(lines)
