"""Hyperspectral unmixing with adaptive multi-order graph regularized
NMF and dual sparsity, plus the supporting pipeline: graph construction
and fusion, VCA-FCLS initialization, baseline solvers, synthetic scene
generation, and SAD/RMSE evaluation.
"""

from .errors import (
    DataError,
    DivergenceError,
    InitError,
    IoError,
    MetricError,
    ParamError,
    ParseError,
    ShapeError,
    UnmixingError,
)
from .hsi_core import (
    HsiCube,
    UnmixModel,
    UnmixParams,
    load_cube,
    save_abundance_maps,
    save_cube,
)
from .graph import (
    ConsensusOperator,
    MultiOrderGraphSet,
    WeightMatrix,
    build_multi_order_graphs,
    graph_powers,
    laplacian_quadratic,
    spatial_weights,
    spectral_weights,
)
from .fusion import (
    FusionState,
    fuse_graphs,
    project_simplex,
    update_weights,
)
from .unmix import (
    SolverConfig,
    estimate_gamma,
    init_fcls,
    init_vca,
    run_solver,
    update_abundances,
    update_endmembers,
    update_noise,
)
from .metrics import EvalReport, evaluate_model, match_endmembers, measure_snr, rmse, sad
from .simgen import (
    SpectralLibrary,
    SyntheticScene,
    add_noise_at_snr,
    build_simu1_scene,
    build_simu2_layout,
    generate_abundances,
    load_library,
    mix_lmm,
    synthetic_library,
)

__version__ = "0.1.0"
