#!/usr/bin/env python3
"""How grid carbon characteristics shape scheduler savings (Figs. 10/14).

Runs moderately carbon-aware PCAPS and CAP against six synthetic power
grids calibrated to the paper's Table 1 (PJM, CAISO, ON, DE, NSW, ZA) and
shows the paper's core observation: the more variable the grid's carbon
intensity (more renewables), the more carbon a carbon-aware scheduler can
save — coal-flat ZA offers almost nothing to harvest.

Run:  python examples/multi_grid_comparison.py
"""

from repro.campaign import CampaignSpec, run_sweep
from repro.carbon.grids import GRID_CODES, synthesize_trace
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

NUM_EXECUTORS = 20
NUM_JOBS = 12


def main() -> None:
    config = ExperimentConfig(
        num_executors=NUM_EXECUTORS,
        workload=WorkloadSpec(family="tpch", num_jobs=NUM_JOBS),
        seed=2,
    )
    spec = CampaignSpec(
        "multi-grid",
        config,
        axes={"scheduler": ("decima", "cap-fifo", "pcaps"), "grid": GRID_CODES},
        baseline="fifo",
    )
    by_grid: dict[str, dict[str, float]] = {}
    for point in run_sweep(spec, "grid"):
        by_grid.setdefault(point.parameter, {})[point.policy] = (
            point.carbon_reduction_pct
        )
    covs = {
        grid: synthesize_trace(grid, hours=2000, seed=0).stats().coeff_var
        for grid in GRID_CODES
    }

    print("carbon reduction vs FIFO, by grid (sorted by variability):")
    print(f"  {'grid':<7} {'cov':>6} {'decima':>8} {'cap-fifo':>9} {'pcaps':>8}")
    for grid in sorted(covs, key=covs.get):
        r = by_grid[grid]
        print(
            f"  {grid:<7} {covs[grid]:>6.3f} {r['decima']:>7.1f}% "
            f"{r['cap-fifo']:>8.1f}% {r['pcaps']:>7.1f}%"
        )
    print(
        "\nZA (flat, coal) sits at the top with the least to save;"
        "\nhigh-variability grids (ON, CAISO, DE) reward deferral the most."
    )


if __name__ == "__main__":
    main()
