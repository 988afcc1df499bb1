"""The benchmark's workloads: a synthetic cohort plus a protocol grid.

Every workload fixes the protocol at the paper's values (k=5, protocol
seed 42, threshold 0.5, alpha 0.05) and draws its cohort with prevalence
0.80, biomarker signal 0.8, reported signal 0.5 and a 10% semi-quantitative
rate.  What varies is the cohort size, the missing-cell rate, the model and
group grid, and B, chosen so that each workload stresses a different layer.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20190101  # the synth.seed default of the package


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    missing_rate: float
    models: tuple
    groups: tuple
    B: int
    why: str

    def config_ini(self, seed: int, cohort_path: str) -> str:
        """INI text for ``ptrisk run``; synth.* records how the cohort was drawn."""
        return "\n".join(
            (
                "[input]",
                f"path = {cohort_path}",
                "[groups]",
                f"run = {'|'.join(self.groups)}",
                "[models]",
                f"run = {'|'.join(self.models)}",
                "[protocol]",
                "k = 5",
                "seed = 42",
                "threshold = 0.5",
                f"bootstrap_samples = {self.B}",
                "alpha = 0.05",
                "[synth]",
                f"n = {self.n}",
                "prevalence = 0.80",
                "biomarker_signal = 0.8",
                "reported_signal = 0.5",
                f"missing_rate = {self.missing_rate}",
                "semiquant_rate = 0.1",
                f"seed = {seed}",
                "",
            )
        )


ALL_MODELS = ("LR", "DT", "RF", "GBT", "KNN")
ALL_GROUPS = ("F1", "F2", "F3")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper93",
            n=93,
            missing_rate=0.0,
            models=ALL_MODELS,
            groups=ALL_GROUPS,
            B=1000,
            why="the paper's protocol as users run it: 5 models x 3 groups at n=93, B=1000; "
            "RF/GBT fitting on ~74 training rows dominates",
        ),
        Workload(
            name="ci1k",
            n=1000,
            missing_rate=0.02,
            # no LR: with missing cells, one LR fold hits the 1000-iteration
            # Newton cap on about a third of seeds, which makes run_s bimodal
            # across seeds (IQR/median 0.37 over 10 seeds)
            models=("DT", "KNN"),
            groups=ALL_GROUPS,
            B=1000,
            why="bootstrap CIs dominate (~90%) at ~620 curated rows, on heavily tied DT/KNN scores, "
            "with real row drops in curation; no RF/GBT/LR",
        ),
        Workload(
            name="trees1k",
            n=1000,
            missing_rate=0.0,
            models=("RF", "GBT"),
            groups=("F3",),
            B=100,
            why="RF/GBT split search on 800 training rows, sort-bound per node; "
            "bootstrap is ~2%, so it bypasses CI changes",
        ),
    )
}
