"""Pipeline configuration with lossless INI round-tripping.

The file format is plain "[section]" / "key = value" text with '#' comments.
Every seed is explicit so a written config reproduces its run bit for bit.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class PipelineConfig:
    # phantom
    nx: int = 64
    ny: int = 64
    # sequence
    n_echoes: int = 32
    echo_spacing_ms: float = 10.0
    excitation_deg: float = 90.0
    excitation_phase_deg: float = 90.0
    flips_deg: tuple = (180.0,)       # single value = constant train
    # tissue prior / basis
    t1_min_ms: float = 500.0
    t1_max_ms: float = 3000.0
    t2_min_ms: float = 20.0
    t2_max_ms: float = 400.0
    prior_sampling: str = "log-uniform"
    prior_seed: int = 1234
    ensemble_size: int = 256
    subspace_k: int = 3
    # sampling
    profile_shape: str = "polynomial"
    fully_sampled_radius: float = 0.04
    decay_power: float = 3.0
    profile_sigma: float = 0.3
    accel: float = 4.0
    ordering: str = "randomized"
    mask_seed: int = 2001
    assign_seed: int = 2002
    # noise
    noise_sigma: float = 0.005
    noise_seed: int = 3001
    # solver
    solver: str = "fista"             # cg | fista
    max_iters: int = 150
    tolerance: float = 1e-10
    lam: float = 1e-3
    # fit
    fit_method: str = "subspace"      # subspace | nlls | dictionary
    fit_t2_min_ms: float = 5.0
    fit_t2_max_ms: float = 2000.0
    fit_t1_nominal_ms: float = 1000.0
    # output
    output_dir: str = "out"

    def train_flips(self) -> tuple:
        if len(self.flips_deg) == 1:
            return (self.flips_deg[0],) * self.n_echoes
        if len(self.flips_deg) != self.n_echoes:
            raise ValueError("flips_deg must be a single value or one per echo")
        return self.flips_deg


_SECTIONS = {
    "phantom": ("nx", "ny"),
    "sequence": ("n_echoes", "echo_spacing_ms", "excitation_deg",
                 "excitation_phase_deg", "flips_deg"),
    "prior": ("t1_min_ms", "t1_max_ms", "t2_min_ms", "t2_max_ms",
              "prior_sampling", "prior_seed", "ensemble_size"),
    "subspace": ("subspace_k",),
    "mask": ("profile_shape", "fully_sampled_radius", "decay_power",
             "profile_sigma", "accel", "ordering", "mask_seed", "assign_seed"),
    "noise": ("noise_sigma", "noise_seed"),
    "solver": ("solver", "max_iters", "tolerance", "lam"),
    "fit": ("fit_method", "fit_t2_min_ms", "fit_t2_max_ms",
            "fit_t1_nominal_ms"),
    "output": ("output_dir",),
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _encode(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _decode(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "tuple":
        return tuple(float(tok) for tok in raw.split())
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def to_ini(cfg: PipelineConfig) -> str:
    out = io.StringIO()
    for section, names in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for name in names:
            out.write(f"{name} = {_encode(getattr(cfg, name))}\n")
        out.write("\n")
    return out.getvalue()


def from_ini(text: str) -> PipelineConfig:
    parser = configparser.ConfigParser(comment_prefixes=("#", ";"),
                                       inline_comment_prefixes=("#",))
    parser.read_string(text)
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for name, raw in parser.items(section):
            if name not in _SECTIONS[section]:
                raise ValueError(f"unknown key {name!r} in [{section}]")
            values[name] = _decode(name, raw)
    return PipelineConfig(**values)


def save_config(cfg: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_ini(cfg))


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_ini(fh.read())
