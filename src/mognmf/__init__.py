"""Hyperspectral unmixing with adaptive multi-order graph regularized
NMF and dual sparsity, plus the supporting pipeline: graph construction
and fusion, VCA-FCLS initialization, baseline solvers, synthetic scene
generation, and SAD/RMSE evaluation.

``import mognmf`` loads no submodule: the module behind each name in
``__all__``, and a submodule reached as an attribute (``mognmf.hsi_core``),
is imported on first use (PEP 562).  So generating and saving a scene
loads nothing of scipy.  Of scipy the package uses only the compiled
sparse kernels of ``scipy.sparse._sparsetools``, which the graph module
loads at import without the rest of ``scipy.sparse`` (about 0.15 MB
against 17 MB); the fusion, solver and CLI modules import it, so
importing one of them pays that load before any solve, not inside it.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "errors": ("DataError", "DivergenceError", "InitError", "IoError", "MetricError",
               "ParamError", "ParseError", "ShapeError", "UnmixingError"),
    "hsi_core": ("HsiCube", "UnmixModel", "UnmixParams", "load_cube", "save_abundance_maps",
                 "save_cube"),
    "graph": ("ConsensusOperator", "MultiOrderGraphSet", "WeightMatrix",
              "build_multi_order_graphs", "graph_powers", "laplacian_quadratic",
              "spatial_weights", "spectral_weights"),
    "fusion": ("FusionState", "fuse_graphs", "project_simplex", "update_weights"),
    "unmix": ("SolverConfig", "estimate_gamma", "init_fcls", "init_vca", "run_solver",
              "update_abundances", "update_endmembers", "update_noise"),
    "metrics": ("EvalReport", "evaluate_model", "match_endmembers", "measure_snr", "rmse",
                "sad"),
    "simgen": ("SpectralLibrary", "SyntheticScene", "add_noise_at_snr", "build_simu1_scene",
               "build_simu2_layout", "generate_abundances", "load_library", "mix_lmm",
               "synthetic_library"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def _submodule(name):
    # through __import__, as an import statement goes, so -X importtime lists it
    # (importlib.import_module bypasses that report)
    return __import__(f"{__name__}.{name}", fromlist=["__name__"])


def __getattr__(name):
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(_submodule(home), name)
        globals()[name] = value  # later lookups skip this function
        return value
    try:  # a submodule not yet imported, e.g. mognmf.hsi_core
        return _submodule(name)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
