"""Reproduce a slice of the paper's evaluation on the simulated cluster.

Runs the five Fig. 6 variants on 2 and 8 simulated nodes (the full sweeps,
with the paper's shape assertions, are ``tests/bench/test_figures.py``) and
prints the runtimes next to the values the paper reports, plus the Fig. 5
token sweep for 64 tasks.

Run with:  python examples/cluster_experiment.py
"""

from repro.bench.experiments import ExperimentSettings, run_snet_dynamic, run_variant
from repro.bench.paper_data import PAPER_FIG6_RUNTIMES


def main() -> None:
    settings = ExperimentSettings()

    print("Fig. 6 slice - absolute runtimes (simulated seconds, paper seconds)")
    for variant in ("mpi", "mpi_2proc", "snet_static", "snet_static_2cpu", "snet_best_dynamic"):
        row = []
        for nodes in (2, 8):
            result = run_variant(settings, variant, nodes)
            paper = PAPER_FIG6_RUNTIMES[variant][nodes]
            row.append(f"{nodes} nodes: {result.runtime_seconds:7.1f}s (paper {paper:7.1f}s)")
        print(f"  {variant:<20}", "   ".join(row))

    print()
    print("Fig. 5 slice - 8 nodes, 64 tasks, block scheduling, token sweep")
    for tokens in (8, 16, 32, 64):
        result = run_snet_dynamic(settings, 8, tasks=64, tokens=tokens, scheduling="block")
        print(f"  tokens={tokens:<3} runtime={result.runtime_seconds:7.1f}s "
              f"mean CPU utilisation={result.mean_utilisation:5.2f}")

    print()
    print("The 16-token configuration (two tokens per node, one per CPU) is the")
    print("sweet spot the paper reports; making every task an initial token")
    print("degenerates into the imbalanced static distribution.")


if __name__ == "__main__":
    main()
