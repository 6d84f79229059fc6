"""The package namespace: every public name, each loaded on first use.

Each test runs in a fresh interpreter, since this one has imported the
whole package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mognmf

PUBLIC = {
    "errors": ["DataError", "DivergenceError", "InitError", "IoError", "MetricError",
               "ParamError", "ParseError", "ShapeError", "UnmixingError"],
    "hsi_core": ["HsiCube", "UnmixModel", "UnmixParams", "load_cube", "save_abundance_maps",
                 "save_cube"],
    "graph": ["ConsensusOperator", "MultiOrderGraphSet", "WeightMatrix",
              "build_multi_order_graphs", "graph_powers", "laplacian_quadratic",
              "spatial_weights", "spectral_weights"],
    "fusion": ["FusionState", "fuse_graphs", "project_simplex", "update_weights"],
    "unmix": ["SolverConfig", "estimate_gamma", "init_fcls", "init_vca", "run_solver",
              "update_abundances", "update_endmembers", "update_noise"],
    "metrics": ["EvalReport", "evaluate_model", "match_endmembers", "measure_snr", "rmse", "sad"],
    "simgen": ["SpectralLibrary", "SyntheticScene", "add_noise_at_snr", "build_simu1_scene",
               "build_simu2_layout", "generate_abundances", "load_library", "mix_lmm",
               "synthetic_library"],
}


def _fresh(code: str):
    """Run code in a new interpreter that imports this tree's package; its stdout as JSON."""
    src = str(Path(mognmf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def test_scene_generation_does_not_import_scipy_sparse():
    loaded = _fresh(
        "import json, sys, mognmf\n"
        "mognmf.synthetic_library, mognmf.build_simu1_scene, mognmf.save_cube\n"
        "print(json.dumps('scipy.sparse' in sys.modules))"
    )
    assert loaded is False


@pytest.mark.parametrize("module", ["mognmf.cli", "mognmf.unmix"])
def test_solver_modules_import_scipy_sparse(module):
    # so a timed solve pays no import
    assert _fresh(f"import json, sys, {module}\nprint(json.dumps('scipy.sparse' in sys.modules))")


def test_public_names_are_their_home_modules_objects():
    same = _fresh(
        "import importlib, json, mognmf\n"
        f"public = {PUBLIC!r}\n"
        "print(json.dumps({'all': mognmf.__all__, 'same': [\n"
        "    getattr(mognmf, n) is getattr(importlib.import_module('mognmf.' + m), n)\n"
        "    for m, names in public.items() for n in names]}))"
    )
    assert sorted(same["all"]) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(same["all"]) == 50
    assert all(same["same"])


def test_dir_lists_every_public_name():
    listed = _fresh("import json, mognmf\nprint(json.dumps(dir(mognmf)))")
    assert set(mognmf.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    result = _fresh(
        "import json, mognmf\n"
        "try:\n"
        "    mognmf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
        "else:\n"
        "    print(json.dumps(None))"
    )
    assert result == "module 'mognmf' has no attribute 'no_such_name'"


def test_submodules_reachable_by_import_and_attribute():
    names = _fresh(
        "import json, mognmf\n"
        "from mognmf import fusion, graph\n"
        "print(json.dumps([fusion.__name__, graph.__name__,\n"
        "                  mognmf.hsi_core.write_matrix.__module__]))"
    )
    assert names == ["mognmf.fusion", "mognmf.graph", "mognmf.hsi_core"]
