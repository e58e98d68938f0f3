"""Experiment harness regenerating the paper's evaluation (Figs. 5 and 6).

* :mod:`repro.bench.experiments` -- run one variant (MPI baseline, S-Net
  static, S-Net static 2 CPU, S-Net dynamic) on a simulated cluster and
  return its makespan plus statistics;
* :mod:`repro.bench.figures` -- the parameter sweeps behind Fig. 5 (token /
  task sweep under factoring and block scheduling) and Fig. 6 (scaling of
  all five variants over 1–8 nodes, plus the speed-up chart);
* :mod:`repro.bench.reporting` -- plain-text/CSV table rendering in the same
  layout as the paper's figures;
* :mod:`repro.bench.paper_data` -- the numbers read off the paper's Fig. 6,
  printed next to the simulated ones by ``examples/cluster_experiment.py``
  and ``format_fig6_table``; ``tests/bench/test_figures.py`` asserts the
  figures' shapes.
"""

from repro.bench.experiments import (
    ExperimentSettings,
    VariantResult,
    run_mpi_variant,
    run_snet_dynamic,
    run_snet_static,
    run_variant,
)
from repro.bench.figures import (
    Fig5Cell,
    fig5_sweep,
    fig6_runtimes,
    fig6_speedups,
    scheduling_example,
)
from repro.bench.reporting import format_fig5_table, format_fig6_table, to_csv
from repro.bench.paper_data import PAPER_FIG6_RUNTIMES, PAPER_FIG5_TOKEN_COUNTS

__all__ = [
    "ExperimentSettings",
    "VariantResult",
    "run_variant",
    "run_mpi_variant",
    "run_snet_static",
    "run_snet_dynamic",
    "Fig5Cell",
    "fig5_sweep",
    "fig6_runtimes",
    "fig6_speedups",
    "scheduling_example",
    "format_fig5_table",
    "format_fig6_table",
    "to_csv",
    "PAPER_FIG6_RUNTIMES",
    "PAPER_FIG5_TOKEN_COUNTS",
]
