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
def test_solver_modules_load_only_the_sparse_kernels(module):
    # the kernels are loaded at import, so a timed solve pays no load, and
    # scipy.sparse's Python layer never is
    loaded = _fresh(f"import json, sys, {module}\n"
                    "print(json.dumps([m in sys.modules for m in\n"
                    "                  ('scipy.sparse._sparsetools', 'scipy.sparse')]))")
    assert loaded == [True, False]


def test_commands_and_solves_do_not_import_scipy_sparse(tmp_path):
    loaded = _fresh(
        "import json, sys\n"
        "from pathlib import Path\n"
        "from mognmf.cli import cmd_fuse, cmd_simulate, cmd_unmix\n"
        "from mognmf.hsi_core import UnmixParams, load_cube\n"
        "from mognmf.unmix import VARIANTS, SolverConfig, run_solver\n"
        f"root = Path({str(tmp_path)!r})\n"
        "cmd_simulate(root / 'scene', m=3, height=6, width=6, bands=12)\n"
        "params = UnmixParams(t1=5, neighbors=4)\n"
        "cmd_unmix(root / 'scene' / 'cube.raw', 3, root / 'run', params=params, dump_wm=True)\n"
        "cmd_fuse(root / 'scene' / 'cube.raw', 3, root / 'fuse',\n"
        "         params=params.replace(spectral_as_written=True), dump_wm=True)\n"
        "cube = load_cube(root / 'scene' / 'cube.raw')\n"
        "for variant in VARIANTS:\n"
        "    run_solver(cube, 3, SolverConfig(params=params, variant=variant))\n"
        "print(json.dumps('scipy.sparse' in sys.modules))"
    )
    assert loaded is False
    assert (tmp_path / "run" / "W_spectral.csv").exists()
    assert (tmp_path / "fuse" / "W_spatial.csv").exists()


def test_kernel_loader_reuses_scipy_sparses_module():
    same = _fresh(
        "import json, scipy.sparse\n"
        "from scipy.sparse import _sparsetools\n"
        "from mognmf import graph\n"
        "print(json.dumps(graph._sparsetools is _sparsetools))"
    )
    assert same is True


def test_scipy_sparse_imported_later_uses_the_loaded_kernels():
    same = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from mognmf import graph\n"
        "import scipy.sparse as sp\n"
        "from scipy.sparse import _compressed, _sparsetools\n"
        "kernels = graph._sparsetools\n"
        "print(json.dumps([kernels is _sparsetools, kernels is _compressed._sparsetools,\n"
        "                  kernels is sys.modules['scipy.sparse._sparsetools'],\n"
        "                  float((sp.csr_array(np.eye(3)) @ np.ones(3)).sum())]))"
    )
    assert same == [True, True, True, 3.0]


_GRAPH_BYTES = (
    "import hashlib, json, sys\n"
    "from mognmf.graph import build_multi_order_graphs\n"
    "from mognmf.hsi_core import HsiCube, UnmixParams\n"
    "import numpy as np\n"
    "cube = HsiCube(np.random.default_rng(5).random((10, 120)), 10, 12)\n"
    "digest = hashlib.sha256()\n"
    "params = UnmixParams(neighbors=5, spectral_as_written=True)\n"
    "for view in build_multi_order_graphs(cube, 1, params).views:\n"
    "    for a in (view.indptr, view.indices, view.data):\n"
    "        digest.update(a.dtype.str.encode() + a.tobytes())\n"
    "print(json.dumps([digest.hexdigest(), 'scipy.sparse' in sys.modules]))"
)


def test_kernel_loader_falls_back_to_scipy_sparse():
    # no extension file found under any suffix: the same kernels, through scipy.sparse
    found = _fresh(_GRAPH_BYTES)
    missed = _fresh("import importlib.machinery\n"
                    "importlib.machinery.EXTENSION_SUFFIXES = []\n" + _GRAPH_BYTES)
    assert found[1] is False and missed[1] is True
    assert missed[0] == found[0]


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
