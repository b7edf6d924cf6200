"""Span tracing around the public functions of each spinshuffle module.

A `Tracer` replaces each traced function under every name it is bound to in
the package (``from .x import f`` binds a second name at import time, so
``recon.apply_forward`` and ``encoding.apply_forward`` are the same function
under two names), records one span per call and puts every name back on
`remove`. Nothing inside the package changes: spans sit at the boundaries
where one layer calls into another.

A span is ``[name, start, end, parent_index, attrs]``. Spans stay in memory
and are written by the caller when the run ends. `layer_metrics` turns the
spans of one job into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

import spinshuffle
from spinshuffle import transforms

_NAME, _START, _END, _PARENT, _ATTRS = range(5)


def _epg_attrs(args, kwargs, result):
    t, b = result.shape
    return {"b": int(b), "t": int(t)}


def _solve_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged),
            "final_objective": float(result.objective_trace[-1])}


def _fit_map_attrs(args, kwargs, result):
    return {"voxels": int(result.t2.size),
            "failed": int(np.count_nonzero(result.failed))}


def _voxel_attrs(args, kwargs, result):
    return {"voxels": 1}


def _flips_attrs(args, kwargs, result):
    return {"iterations": len(result.objective_trace) - 1}


def _array_bytes(args, kwargs, result):
    # write_array stores complex64: 8 bytes per element
    array = args[1] if len(args) > 1 else kwargs["array"]
    return {"bytes": int(np.asarray(array).size) * 8}


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        return {"bytes": len(fh.read())}


# (module, function name, span name, attrs extractor) for every traced
# public function. Functions are looked up in their defining module; the
# tracer then patches every module of the package that binds them.
TRACED = (
    ("spinsim", "simulate_fse_ensemble", "spinsim.epg", _epg_attrs),
    ("spinsim", "simulate_fse", "spinsim.scalar", None),
    ("subspace", "sample_prior", "subspace.sample_prior", None),
    ("subspace", "build_ensemble", "subspace.build_ensemble", None),
    ("subspace", "compute_basis", "subspace.compute_basis", None),
    ("subspace", "back_project", "subspace.back_project", None),
    ("sampling", "draw_mask", "sampling.masks", None),
    ("sampling", "assign_echoes", "sampling.masks", None),
    ("phantom", "default_phantom", "phantom.acquisition", None),
    ("phantom", "contrast_images", "phantom.acquisition", None),
    ("phantom", "simulate_acquisition", "phantom.acquisition", None),
    ("encoding", "apply_forward", "encoding.forward", None),
    ("encoding", "apply_adjoint", "encoding.adjoint", None),
    ("encoding", "apply_normal_kernel", "encoding.normal_kernel", None),
    ("encoding", "build_normal_kernel", "encoding.build_kernel", None),
    ("recon", "fista_solve", "recon.solve", _solve_attrs),
    ("recon", "cg_solve", "recon.solve", _solve_attrs),
    ("qmap", "fit_map", "qmap.fit_map", _fit_map_attrs),
    ("qmap", "fit_voxel_nlls", "qmap.fit_voxel", _voxel_attrs),
    ("qmap", "fit_voxel_subspace", "qmap.fit_voxel", _voxel_attrs),
    ("qmap", "build_dictionary", "qmap.dictionary", None),
    ("qmap", "dictionary_match", "qmap.dictionary", None),
    ("seqopt", "optimize_flips", "seqopt.optimize_flips", _flips_attrs),
    ("seqopt", "crlb_t2_sweep", "seqopt.crlb_sweep", None),
    ("seqopt", "design_asymptotic_flips", "seqopt.asymptotic", None),
    ("arrayio", "write_array", "arrayio.write", _array_bytes),
    ("arrayio", "write_csv", "arrayio.write", _csv_bytes),
    ("pipeline", "run_pipeline", "pipeline.run", None),
)

# Scalar phase-graph operators run tens of thousands of times per job, so
# they are counted, not spanned.
COUNTED = (
    ("spinsim", "apply_rf", "spinsim.scalar.steps"),
    ("spinsim", "apply_relaxation", "spinsim.scalar.steps"),
    ("spinsim", "apply_gradient_shift", "spinsim.scalar.steps"),
)

# Methods patched on their class, so every instance sees the wrapper.
TRACED_METHODS = (
    (transforms.HaarTransform, "forward", "transforms.haar"),
    (transforms.HaarTransform, "adjoint", "transforms.haar"),
)


def package_modules():
    """The package and every one of its loaded submodules."""
    prefix = spinshuffle.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == spinshuffle.__name__
                                  or name.startswith(prefix))]


def _original(module, fn):
    return getattr(sys.modules[f"{spinshuffle.__name__}.{module}"], fn)


def bindings():
    """Every (owner, attribute, value) the tracer may replace."""
    out = []
    for module, fn, *_ in TRACED + COUNTED:
        original = _original(module, fn)
        for mod in package_modules():
            for attr, value in vars(mod).items():
                if value is original:
                    out.append((mod, attr, value))
    for cls, attr, _ in TRACED_METHODS:
        out.append((cls, attr, vars(cls)[attr]))
    return out


class Tracer:
    """Records spans and counts while installed; `remove` restores names."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._saved = []

    def span(self, name, func, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][_END] = time.perf_counter()
            if attrs is not None:
                spans[idx][_ATTRS] = attrs(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for module, fn, span_name, attrs in TRACED:
            original = _original(module, fn)
            wrapped[id(original)] = self.span(span_name, original, attrs)
        for module, fn, count_name in COUNTED:
            original = _original(module, fn)
            wrapped[id(original)] = self.counter(count_name, original)
        for cls, attr, span_name in TRACED_METHODS:
            original = vars(cls)[attr]
            wrapped[id(original)] = self.span(span_name, original)
        self._saved = bindings()
        for owner, attr, value in self._saved:
            setattr(owner, attr, wrapped[id(value)])

    def remove(self):
        for owner, attr, value in self._saved:
            setattr(owner, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


# unit and direction of every per-layer metric `layer_metrics` returns
LAYER_METRICS = {
    "spinsim.epg.calls": ("count", "lower"),
    "spinsim.epg.tissue_echoes": ("count", "lower"),
    "spinsim.epg.self_s": ("s", "lower"),
    "spinsim.epg.ns_per_tissue_echo": ("ns", "lower"),
    "spinsim.epg.bytes_computed": ("B", "lower"),
    "spinsim.scalar.steps": ("count", "lower"),
    "subspace.sample_prior.s": ("s", "lower"),
    "subspace.build_ensemble.s": ("s", "lower"),
    "subspace.compute_basis.s": ("s", "lower"),
    "encoding.forward.calls": ("count", "lower"),
    "encoding.forward.ms_per_call": ("ms", "lower"),
    "encoding.adjoint.calls": ("count", "lower"),
    "encoding.adjoint.ms_per_call": ("ms", "lower"),
    "encoding.normal_kernel.calls": ("count", "lower"),
    "encoding.normal_kernel.ms_per_call": ("ms", "lower"),
    "recon.solve.s": ("s", "lower"),
    "recon.self_s": ("s", "lower"),
    "recon.iterations": ("count", "lower"),
    "recon.converged": ("ratio", "higher"),
    "recon.operator_calls_per_iter": ("count", "lower"),
    "recon.final_objective": ("1", "lower"),
    "transforms.haar.calls": ("count", "lower"),
    "transforms.haar.s": ("s", "lower"),
    "qmap.fit_map.s": ("s", "lower"),
    "qmap.fit_map.us_per_voxel": ("us", "lower"),
    "qmap.failed_voxels": ("count", "lower"),
    "qmap.dictionary.s": ("s", "lower"),
    "qmap.fit_voxel.ms_per_voxel": ("ms", "lower"),
    "qmap.epg_calls_per_voxel": ("count", "lower"),
    "seqopt.optimize_flips.s": ("s", "lower"),
    "seqopt.optimize_flips.iters": ("count", "lower"),
    "seqopt.epg_calls_per_iter": ("count", "lower"),
    "seqopt.crlb_sweep.s": ("s", "lower"),
    "seqopt.asymptotic.s": ("s", "lower"),
    "sampling.masks.s": ("s", "lower"),
    "phantom.acquisition.s": ("s", "lower"),
    "arrayio.write.s": ("s", "lower"),
    "arrayio.bytes_written": ("B", "lower"),
    "pipeline.other_s": ("s", "lower"),
    # traced job time, and its excess over the untraced jobs of the same run
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _durations(spans):
    dur = [s[_END] - s[_START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _under(spans, idx, names):
    """True when some ancestor of span idx has one of the given names."""
    parent = spans[idx][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] in names:
            return True
        parent = spans[parent][_PARENT]
    return False


def layer_metrics(spans, counts):
    """Per-layer metrics of one job from its spans and counts.

    Layer times are inclusive over the outermost span of that layer; self
    times subtract the time covered by child spans. A metric of a layer the
    job never called is 0.
    """
    dur, self_t = _durations(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[_NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, outermost=True):
        return sum(dur[i] for i in idx(name)
                   if not (outermost and _under(spans, i, {name})))

    def attr_sum(name, key):
        return sum(spans[i][_ATTRS][key] for i in idx(name))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    epg = idx("spinsim.epg")
    tissue_echoes = sum(spans[i][_ATTRS]["b"] * spans[i][_ATTRS]["t"]
                        for i in epg)
    # state bytes swept per echo: (F+, F-, Z) x (T + 3) orders x B tissues,
    # complex128, over five passes (two relaxations, two shifts, one mix)
    epg_bytes = sum(5 * 3 * (a["t"] + 3) * a["b"] * 16 * a["t"]
                    for a in (spans[i][_ATTRS] for i in epg))
    epg_self = sum(self_t[i] for i in epg)

    solves = idx("recon.solve")
    iterations = attr_sum("recon.solve", "iterations")
    operators = {"encoding.forward", "encoding.adjoint",
                 "encoding.normal_kernel"}
    solve_set = set(solves)
    operator_calls = sum(1 for s in spans
                         if s[_NAME] in operators and s[_PARENT] in solve_set)

    fits = {"qmap.fit_map", "qmap.fit_voxel"}
    voxels = attr_sum("qmap.fit_map", "voxels") + len(idx("qmap.fit_voxel"))
    fit_epg = sum(1 for i in epg if _under(spans, i, fits))
    flip_iters = attr_sum("seqopt.optimize_flips", "iterations")
    flip_epg = sum(1 for i in epg
                   if _under(spans, i, {"seqopt.optimize_flips"}))

    def calls(name):
        return len(idx(name))

    other = sum(self_t[i] for i in idx("job") + idx("pipeline.run"))
    return {
        "spinsim.epg.calls": len(epg),
        "spinsim.epg.tissue_echoes": tissue_echoes,
        "spinsim.epg.self_s": epg_self,
        "spinsim.epg.ns_per_tissue_echo": per(epg_self, tissue_echoes, 1e9),
        "spinsim.epg.bytes_computed": epg_bytes,
        "spinsim.scalar.steps": counts.get("spinsim.scalar.steps", 0),
        "subspace.sample_prior.s": total("subspace.sample_prior"),
        "subspace.build_ensemble.s": total("subspace.build_ensemble"),
        "subspace.compute_basis.s": total("subspace.compute_basis"),
        "encoding.forward.calls": calls("encoding.forward"),
        "encoding.forward.ms_per_call": per(total("encoding.forward"),
                                            calls("encoding.forward"), 1e3),
        "encoding.adjoint.calls": calls("encoding.adjoint"),
        "encoding.adjoint.ms_per_call": per(total("encoding.adjoint"),
                                            calls("encoding.adjoint"), 1e3),
        "encoding.normal_kernel.calls": calls("encoding.normal_kernel"),
        "encoding.normal_kernel.ms_per_call": per(
            total("encoding.normal_kernel"), calls("encoding.normal_kernel"),
            1e3),
        "recon.solve.s": total("recon.solve"),
        "recon.self_s": sum(self_t[i] for i in solves),
        "recon.iterations": iterations,
        "recon.converged": per(attr_sum("recon.solve", "converged"),
                               len(solves)),
        "recon.operator_calls_per_iter": per(operator_calls, iterations),
        "recon.final_objective": (spans[solves[-1]][_ATTRS]["final_objective"]
                                  if solves else 0.0),
        "transforms.haar.calls": calls("transforms.haar"),
        "transforms.haar.s": total("transforms.haar"),
        "qmap.fit_map.s": total("qmap.fit_map"),
        "qmap.fit_map.us_per_voxel": per(total("qmap.fit_map"),
                                         attr_sum("qmap.fit_map", "voxels"),
                                         1e6),
        "qmap.failed_voxels": attr_sum("qmap.fit_map", "failed"),
        "qmap.dictionary.s": total("qmap.dictionary"),
        "qmap.fit_voxel.ms_per_voxel": per(total("qmap.fit_voxel"),
                                           calls("qmap.fit_voxel"), 1e3),
        "qmap.epg_calls_per_voxel": per(fit_epg, voxels),
        "seqopt.optimize_flips.s": total("seqopt.optimize_flips"),
        "seqopt.optimize_flips.iters": flip_iters,
        "seqopt.epg_calls_per_iter": per(flip_epg, flip_iters),
        "seqopt.crlb_sweep.s": total("seqopt.crlb_sweep"),
        "seqopt.asymptotic.s": total("seqopt.asymptotic"),
        "sampling.masks.s": total("sampling.masks"),
        "phantom.acquisition.s": total("phantom.acquisition"),
        "arrayio.write.s": total("arrayio.write"),
        "arrayio.bytes_written": attr_sum("arrayio.write", "bytes"),
        "pipeline.other_s": other,
    }
