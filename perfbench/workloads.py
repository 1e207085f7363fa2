"""Workload definitions: which committed configs to sweep, with which overrides.

Each workload is one or more `run_sweep` calls on `configs/fig1.cfg` or
`configs/fig3.cfg`, changed only through the same KEY=VALUE overrides
``scmimo sweep --override`` accepts. The seed and the output path are added
per run by `overrides()`.

A run of a workload covers `Workload.seeds` seeds, the benchmark's seed and
seeds derived from it (`Workload.run_seeds`), swept side by side, one
process per seed. One seed is enough where the work does not depend on the
draws. `optimize_beta` does depend on them: it skips its refinement when
beta = 0 wins the coarse grid, which at the beta_grid RZFP 10 dB point
happens for about one seed in five and cuts that seed's time by a fifth to
a quarter. A beta_grid run sweeps two seeds at once, one per CPU of a
2-CPU box, and waits for both, so one skipping seed does not set its time.
"""

from dataclasses import dataclass

DEFAULT_SEED = 12345
SEED_STRIDE = 1_000_003     # between the seeds of one run

ALPHAS = (0.0, 0.7, 0.9, 0.99)
FULL_GRID = tuple(-10.0 + 2.5 * i for i in range(13))

# Paper dimensions, pinned so an edit to a config cannot resize a workload.
PAPER_DIMS = ("geometry.m=64", "dims.k=10", "dims.l=4", "dims.n=20",
              "dims.t=100", "dims.t_c=20", "trials=500", "beta.trials=100")
# Toy dimensions for the smoke test: the same code paths in a few seconds.
SMOKE_DIMS = ("geometry.m=8", "dims.k=2", "dims.l=4", "dims.n=20",
              "dims.t=20", "dims.t_c=20", "trials=20", "beta.trials=20")


@dataclass(frozen=True)
class Sweep:
    """One `run_sweep` call: a config, the cell grid it must produce, and
    the worker count (None keeps run_sweep's default)."""

    name: str
    config: str
    filters: tuple
    alphas: tuple
    grid: tuple
    workers: int = None

    def overrides(self, seed, output, smoke=False):
        return [*(SMOKE_DIMS if smoke else PAPER_DIMS),
                "filters=" + ",".join(self.filters),
                "corr.alpha=" + ",".join(map(repr, self.alphas)),
                "grid.rho_db=" + ",".join(map(repr, self.grid)),
                f"seed={seed}", f"output={output}"]

    @property
    def n_rows(self):
        return len(self.filters) * len(self.alphas) * len(self.grid)


@dataclass(frozen=True)
class Workload:
    """The sweeps one process runs in order, and the seeds a run covers."""

    sweeps: tuple
    seeds: int = 1

    def run_seeds(self, seed):
        return [seed + SEED_STRIDE * i for i in range(self.seeds)]


WORKLOADS = {
    # No beta search: channel draw, ZF bank and FFT cascade in mc_buckets,
    # first the downlink way, then the uplink way (Hhat_freq,
    # analysis-DFT bank, AWGN bucket).
    "fixed": Workload((Sweep("fig1", "configs/fig1.cfg", ("cmfp", "zfp"),
                             ALPHAS, FULL_GRID),
                       Sweep("fig3", "configs/fig3.cfg", ("cmfe", "zfe"),
                             ALPHAS, FULL_GRID))),
    # Mostly optimize_beta; includes the alpha=0.7, 10 dB RZFP point.
    "beta_grid": Workload((Sweep("fig1", "configs/fig1.cfg", ("rzfp",),
                                 (0.7,), (0.0, 10.0), workers=1),
                           Sweep("fig3", "configs/fig3.cfg", ("mmsee",),
                                 (0.9,), (0.0,), workers=1)), seeds=2),
}
