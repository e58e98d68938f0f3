"""The paper's Figs. 5 and 6 and the Section V example, on the simulator.

The simulated cluster (``repro.dsnet`` + ``repro.cluster``) runs in virtual
time, so every runtime below is a deterministic function of the model and
the sweep: the shape assertions hold on any host, however loaded.

* Fig. 5 (left/right): 8 nodes, tasks x tokens over {8, 16, 32, 48, 64,
  72} under simple factoring and block scheduling.  16 tokens (two per
  node, one solver per CPU) is at or near the optimum; making every
  section an initial token (tokens == tasks) is clearly worse.
* Fig. 6 (left): all five variants on 1, 2, 4, 6 and 8 nodes.  S-Net adds
  overhead on one node, is amortised from two nodes on, every variant
  scales, and the dynamically scheduled variant wins at 4-8 nodes.
* Fig. 6 (right): speed-up against MPI with 2 processes per node.  The
  static S-Net variant never overtakes MPI; the dynamic one does between 2
  and 4 nodes and reaches ~1.4x at 8 in the paper.
* Ablations: the runtime-overhead sweep and block vs factoring scheduling
  under scene imbalance.

``examples/cluster_experiment.py`` prints a slice of the same numbers next
to the paper's.
"""

from collections import defaultdict

import pytest

from repro.bench.experiments import (
    ExperimentSettings,
    run_snet_dynamic,
    run_snet_static,
    run_variant,
)
from repro.bench.figures import (
    fig5_sweep,
    fig6_runtimes,
    fig6_speedups,
    scheduling_example,
)
from repro.dsnet.config import DSNetConfig


def fig5_rows(scheduling):
    """``{tasks: {tokens: simulated seconds}}`` of one half of Fig. 5."""
    rows = defaultdict(dict)
    for cell in fig5_sweep(scheduling, ExperimentSettings()):
        rows[cell.tasks][cell.tokens] = cell.runtime_seconds
    return rows


@pytest.fixture(scope="module")
def fig6_table():
    return fig6_runtimes(ExperimentSettings())


@pytest.mark.parametrize("scheduling", ["factoring", "block"])
def test_fig5_sixteen_tokens_is_the_sweet_spot(scheduling):
    rows = fig5_rows(scheduling)

    # every configuration produced a complete picture and a sane runtime
    assert all(runtime > 0 for row in rows.values() for runtime in row.values())

    # 16 tokens (one per CPU) is within 10% of the best configuration for
    # every task count that allows it
    for tasks, row in rows.items():
        if 16 in row:
            assert row[16] <= 1.10 * min(row.values()), (tasks, row)

    # dynamic scheduling beats the degenerate fully-static assignment:
    # tokens == tasks is slower than the 16-token configuration
    for tasks, row in rows.items():
        if tasks >= 32 and 16 in row and tasks in row:
            assert row[tasks] > row[16], (tasks, row)

    if scheduling == "block":
        # with a fixed 16-token budget, more (smaller) tasks never hurt much
        assert rows[64][16] <= rows[16][16] * 1.05


def test_fig6_runtimes(fig6_table):
    runtimes = {
        variant: {nodes: result.runtime_seconds for nodes, result in per_node.items()}
        for variant, per_node in fig6_table.items()
    }

    # single node: S-Net adds overhead over the equivalent MPI configuration
    assert runtimes["snet_static"][1] >= runtimes["mpi"][1] * 0.99
    assert runtimes["snet_static_2cpu"][1] >= runtimes["mpi_2proc"][1] * 0.99

    # amortisation from 2 nodes onwards: S-Net static close to MPI
    for nodes in (2, 4, 6, 8):
        assert runtimes["snet_static"][nodes] <= runtimes["mpi"][nodes] * 1.15

    # scaling: runtime decreases monotonically with node count for every variant
    for variant, per_node in runtimes.items():
        ordered = [per_node[n] for n in sorted(per_node)]
        assert all(b <= a * 1.02 for a, b in zip(ordered, ordered[1:])), (variant, ordered)

    # the dynamically scheduled variant wins at scale
    for nodes in (4, 6, 8):
        others = [runtimes[v][nodes] for v in runtimes if v != "snet_best_dynamic"]
        assert runtimes["snet_best_dynamic"][nodes] < min(others)

    # two processes/solvers per node beat one per node
    for nodes in (1, 2, 4, 6, 8):
        assert runtimes["mpi_2proc"][nodes] < runtimes["mpi"][nodes]
        assert runtimes["snet_static_2cpu"][nodes] < runtimes["snet_static"][nodes]


def test_fig6_speedup(fig6_table):
    speedups = fig6_speedups(fig6_table)
    dynamic = speedups["snet_best_dynamic"]
    static_2cpu = speedups["snet_static_2cpu"]

    # the static S-Net variant does not overtake hand-tuned MPI
    assert all(value <= 1.05 for value in static_2cpu.values())

    # the dynamic variant overtakes MPI at scale and wins by a clear margin
    assert dynamic[8] > 1.25
    assert dynamic[6] > 1.2
    assert dynamic[4] > 1.0

    # the win comes from load balancing, which needs nodes: the advantage
    # at scale is at least as large as on a single node
    ordered = [dynamic[n] for n in sorted(dynamic)]
    assert ordered[-1] >= ordered[0]
    assert ordered[-1] >= max(ordered) * 0.9


def test_runtime_overhead_ablation():
    """Overhead x0, x1, x10, x50 on the 8-node best dynamic configuration."""
    factors = (0.0, 1.0, 10.0, 50.0)
    results = {}
    for factor in factors:
        if factor == 0.0:
            settings = ExperimentSettings(dsnet_config=DSNetConfig.zero_overhead())
        else:
            settings = ExperimentSettings().with_overhead_scale(factor)
        results[factor] = run_variant(settings, "snet_best_dynamic", 8).runtime_seconds

    # runtime grows monotonically with the coordination overhead
    ordered = [results[f] for f in factors]
    assert all(b >= a for a, b in zip(ordered, ordered[1:]))
    # and the calibrated overhead costs less than 25% on top of the ideal
    assert results[1.0] <= results[0.0] * 1.25


def test_scheduling_ablation():
    """Block vs factoring vs static, 8 nodes, 64 tasks, 16 tokens."""
    results = {}
    for clustering in (0.0, 0.45, 0.9):
        settings = ExperimentSettings(clustering=clustering)
        results[clustering] = {
            "block": run_snet_dynamic(
                settings, 8, tasks=64, tokens=16, scheduling="block"
            ).runtime_seconds,
            "factoring": run_snet_dynamic(
                settings, 8, tasks=64, tokens=16, scheduling="factoring"
            ).runtime_seconds,
            "static": run_snet_static(settings, 8).runtime_seconds,
        }

    for clustering, row in results.items():
        # both dynamic schedulers beat the static distribution
        assert row["block"] < row["static"], clustering
        assert row["factoring"] < row["static"], clustering
        # and stay within 20% of each other (the paper found both competitive)
        assert 0.8 <= row["block"] / row["factoring"] <= 1.25, clustering

    # the advantage of dynamic scheduling grows with scene imbalance
    gain_balanced = results[0.0]["static"] / results[0.0]["block"]
    gain_clustered = results[0.9]["static"] / results[0.9]["block"]
    assert gain_clustered > gain_balanced


def test_section_v_factoring_example():
    """48 sections of a 3000-row image: 24 of 93 rows, then 24 of 32."""
    result = scheduling_example()
    assert result["num_sections"] == 48
    assert result["batch_sizes"] == [93, 32]
    assert result["first_batch"] == [93] * 24
    # the final section absorbs the rounding remainder, all others are 32 rows
    assert result["second_batch"][:-1] == [32] * 23
    assert result["covers_image"]
