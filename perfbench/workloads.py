"""Workload definitions shared by the benchmark parent and its workers.

Every scene is a simu1 scene over the fixed synthetic library of the
acceptance tests (100 bands, 8 entries, library seed 1) at 20 dB SNR.
Scene ``i`` of a run with benchmark seed ``s`` uses scene seed
``s * 1000 + i``, which also seeds the solver, so seed 0 reproduces the
criterion-10 scene (unmix64) and the ROADMAP convergence scene
(converge32).  Several scenes per run average out scene-to-scene
variation in iteration counts and quality, which is far larger than
timing noise on the 32x32 workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

BANDS = 100
LIBRARY_ENTRIES = 8
LIBRARY_SEED = 1
SNR_DB = 20.0

CONVERGE_VARIANTS = ("mognmf", "snmf", "nmf")
CONVERGE_EPS1 = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # scene height = width
    m: int  # endmembers
    smoothness: float
    scenes: int  # scenes generated per run
    scenes_per_rep: int  # scenes one timed repetition processes
    runs_per_scene: int  # unmix runs per scene
    min_reps: int  # repetitions made even when --seconds is exceeded

    @property
    def runs_per_rep(self) -> int:
        return self.scenes_per_rep * self.runs_per_scene

    def rep_scenes(self, rep: int) -> list[int]:
        """Scene indices processed by repetition ``rep`` (cycling)."""
        first = (rep * self.scenes_per_rep) % self.scenes
        return [(first + k) % self.scenes for k in range(self.scenes_per_rep)]


WORKLOADS = {
    # cmd_unmix + cmd_evaluate through files; dense graph build dominates.
    # The fourth repetition reruns scene 0, so every run checks that the
    # A/S/E/objective/H CSVs are byte-identical.
    "unmix64": Workload("unmix64", 64, 6, 6.0, scenes=3, scenes_per_rep=1,
                        runs_per_scene=1, min_reps=4),
    # run_solver to eps1=1e-7 for three variants; the update loop dominates
    "converge32": Workload("converge32", 32, 4, 4.0, scenes=12, scenes_per_rep=12,
                           runs_per_scene=len(CONVERGE_VARIANTS), min_reps=1),
}


def scene_seed(seed: int, index: int) -> int:
    return seed * 1000 + index
