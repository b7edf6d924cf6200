"""Import hygiene: every name a package module imports is used in that
module, every top-level definition and method is reached from code that
runs, the package exports exactly the pinned public API with a pinned
total of parameters, the flip design runs without loading scipy.optimize or
numpy.ma, a pipeline run loads no scipy module, and `import spinshuffle`
loads nothing but numpy and the standard library.

`__init__.py` is exempt from the first two checks: its imports are the
package's public re-exports, and a re-export alone does not make a
definition reached.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

import spinshuffle

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinshuffle"

# Reached by no workload, kept as the min-max CRB flip design, and the
# public single-tissue Fisher matrix and bound, which run on the same batched
# `seqopt._information` and `_bounds` as the design and the CRLB sweep.
KEPT_UNREACHED = ("minmax_grid_search", "fisher_info", "crlb")

# The public API. A name is added here only when another is removed, so the
# API does not grow.
PUBLIC_API = (
    "AsymptoticDesign", "DensityProfile", "Dictionary", "EllipseSpec",
    "Encoder", "EpgState", "FisherInfo", "FitMaps", "FitResult",
    "FlipOptimization", "HaarTransform", "IdentityTransform",
    "MaskSearchResult", "NormalKernel", "Phantom", "PipelineConfig",
    "PipelineReport", "PowerBudget", "ReconResult", "SamplingMasks",
    "SensitivityMaps", "SequenceParams", "SolverConfig", "SparsityModel",
    "SubspaceBasis", "TissueParams", "TissuePrior", "add_noise",
    "apply_adjoint", "apply_forward", "apply_normal_kernel", "assign_echoes",
    "back_project", "bloch_isochromat_train", "build_dictionary",
    "build_ensemble", "build_normal_kernel", "cg_solve", "compute_basis",
    "constant_train", "contrast_images", "crlb", "crlb_t2_sweep",
    "default_phantom", "design_asymptotic_flips", "dictionary_match",
    "draw_mask", "fft2c", "fisher_info", "fista_solve", "fit_map",
    "fit_voxel_nlls", "fit_voxel_subspace", "from_ini", "ifft2c",
    "load_config", "make_phantom", "minmax_grid_search",
    "monte_carlo_mask", "optimal_te", "optimize_flips", "projection_error",
    "read_array", "run_pipeline", "sample_prior", "save_config",
    "simulate_acquisition", "simulate_fse",
    "simulate_fse_ensemble", "sparsity_crb", "to_ini", "tpsf_peak",
    "train_power", "write_array", "write_csv",
)


def test_public_api_is_pinned():
    exported = {name for name, value in vars(spinshuffle).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC_API)


# Total of the signature parameters of every exported callable, a class
# counted by its constructor. A new knob shows here as a changed total.
PUBLIC_PARAMETERS = 249


def test_public_parameters_are_counted():
    total = sum(len(inspect.signature(value).parameters)
                for name, value in vars(spinshuffle).items()
                if name in PUBLIC_API and callable(value))
    assert total == PUBLIC_PARAMETERS


# Lines in src/spinshuffle/*.py. Raise it only with a reason in CHANGES.md:
# code that speeds something up or adds a check should delete what it makes
# redundant.
SOURCE_LINE_BUDGET = 2956


def test_source_line_budget():
    total = sum(len(p.read_text().splitlines())
                for p in PACKAGE.glob("*.py"))
    assert total <= SOURCE_LINE_BUDGET


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau\nx = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _identifiers(node, strings=False) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and sub.value.isidentifier()):
            found.add(sub.value)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_definitions(modules: dict, users: list, kept=()) -> list:
    """Top-level defs and classes of `modules` (stem -> source), and the
    non-dunder methods and properties of those classes, that nothing
    reaches: not module-level code, not a `users` source, not `kept`, and not
    the body of a definition reached from those. Methods are matched by
    name, and a class's own body (dunder methods included) counts as reached
    with the class. Names in `users` may also be strings, the way the
    benchmark's tracer names what it patches."""
    defined, bodies, pending = [], {}, set(kept)

    def define(owner, node, parts):
        defined.append((owner, node.name))
        for part in parts:
            bodies.setdefault(node.name, set()).update(_identifiers(part))

    for stem, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                define(stem, node, [node])
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not _is_dunder(m.name)]
                for method in methods:
                    define(f"{stem}.{node.name}", method, [method])
                define(stem, node, node.bases + node.keywords
                       + node.decorator_list
                       + [m for m in node.body if m not in methods])
            else:
                pending |= _identifiers(node)
    for source in users:
        pending |= _identifiers(ast.parse(source), strings=True)
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending |= bodies.get(name, set()) - reached
    return sorted(f"{owner}.{name}" for owner, name in defined
                  if name not in reached)


def test_reach_scanner_follows_calls_from_used_code():
    modules = {"a": "def f():\n    return g()\ndef g(): pass\n"
                    "def h():\n    return k()\ndef k(): pass\nX = f\n",
               "b": "class C: pass\ndef d(): pass\ndef e(): pass\n"}
    assert unreached_definitions(modules, ["'d'"], kept=["e"]) == [
        "a.h", "a.k", "b.C"]


def test_reach_scanner_follows_methods_by_name():
    modules = {"a": "class C:\n"
                    "    def __init__(self):\n        self.x = used()\n"
                    "    def m(self):\n        return self.n\n"
                    "    @property\n    def n(self):\n        return 1\n"
                    "    def idle(self):\n        return helper()\n"
                    "def used(): pass\ndef helper(): pass\n"}
    assert unreached_definitions(modules, ["a.C().m()"]) == [
        "a.C.idle", "a.helper"]


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    users = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    users.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unreached_definitions(modules, users, KEPT_UNREACHED) == []


def _run_fresh(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_import_loads_only_numpy_and_stdlib():
    # the benchmark's set-up time is this import; a third-party module
    # would land in it on every workload
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import spinshuffle\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names)\n"
        "             - {'numpy', 'spinshuffle'}))\n")
    assert _run_fresh(script) == "[]"


@pytest.mark.parametrize("fields", [
    {},
    # CG, a dictionary fit and an ensemble of 1024 > 2T + 1 columns: real
    # polynomial blocks, 256-column QR panels and moment-form scores
    dict(solver="cg", fit_method="dictionary", ensemble_size=1024)],
    ids=("default", "cg-dictionary"))
def test_pipeline_loads_no_scipy(tmp_path, fields):
    # importing scipy.fft alone costs 0.3-0.4 s in a fresh interpreter,
    # which would land in the benchmark's set-up time; numpy.ma (which
    # np.unique imports) costs 8-12 ms and 1.5 MB there
    cfg = dict(nx=16, ny=16, n_echoes=4, ensemble_size=16, subspace_k=2,
               max_iters=3, accel=2.0, output_dir=str(tmp_path)) | fields
    script = (
        "import sys\n"
        "import spinshuffle\n"
        "from spinshuffle.config import PipelineConfig\n"
        f"spinshuffle.run_pipeline(PipelineConfig(**{cfg!r}))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))\n")
    assert _run_fresh(script) == "[]"


def test_flip_design_loads_no_heavy_modules():
    # scipy.optimize costs about 0.5 s and 47 MB of resident memory to
    # import, numpy.ma (which np.unique imports) about a megabyte
    script = (
        "import sys\n"
        "from spinshuffle.seqopt import PowerBudget, optimize_flips\n"
        "from spinshuffle.spinsim import TissueParams, constant_train\n"
        "optimize_flips(TissueParams(t1=1000.0, t2=80.0),\n"
        "               constant_train(8, 120.0, 10.0),\n"
        "               PowerBudget.from_constant_flip(120.0, 8), max_iters=3)\n"
        "print(sorted({'scipy.optimize', 'numpy.ma'} & set(sys.modules)))\n")
    assert _run_fresh(script) == "[]"
