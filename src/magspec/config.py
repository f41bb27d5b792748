"""Dataclass configuration and YAML loading for the experiment drivers.

Configs are plain nested key/value documents.  Rational flux is written
"p/q" (kept exact as a Fraction); a bare float is allowed but disables the
quadrature oracle.  The weight section carries two fault-injection knobs
(``conjugation_defect`` and ``perturb``) so a config can deliberately break
an invariant and exercise the named failures of the verify driver.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import yaml

from .lattice import PeriodicGraph, periodic_graph
from .operators import (
    LocalOperator,
    WeightFunction,
    dml_operator,
    harper_operator,
    hofstadter_weights,
    local_operator,
    perturbed_weights,
    uniform_weights,
    with_conjugation_defect,
    zero_operator,
)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def parse_flux(value) -> Union[Fraction, float, None]:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            try:
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad rational flux {value!r}: {exc}") from None
        try:
            return Fraction(int(text))
        except ValueError:
            try:
                return float(text)
            except ValueError:
                raise ConfigError(f"bad flux {value!r}") from None
    raise ConfigError(f"bad flux {value!r}")


@dataclass(frozen=True)
class PerturbSpec:
    template: int
    shift: tuple[int, ...]
    turns: float


@dataclass(frozen=True)
class WeightSpec:
    kind: str = "uniform"  # uniform | hofstadter
    flux: Union[Fraction, float, None] = None
    conjugation_defect: Optional[float] = None
    perturb: Optional[PerturbSpec] = None


@dataclass(frozen=True)
class GraphSpec:
    dimension: int
    orbits: int
    templates: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ModelSpec:
    label: str
    graph: GraphSpec
    weights: WeightSpec = WeightSpec()
    operator: str = "dml"  # harper | dml | custom | zero
    custom_stencil: tuple[tuple[int, int, tuple[int, ...], complex], ...] = ()


@dataclass(frozen=True)
class LambdaSpec:
    kind: str = "auto"  # auto | explicit
    count: int = 9
    margin: float = 0.1
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class OracleSpec:
    grid_n: int = 128
    compare: bool = True
    allow_band_edge: bool = False


@dataclass(frozen=True)
class ButterflySpec:
    q_max: int = 12


@dataclass(frozen=True)
class VerifySpec:
    inertia_instances: int = 200
    window_sizes: tuple[int, ...] = (4, 6)


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    model: Optional[ModelSpec] = None
    models: tuple[ModelSpec, ...] = ()
    boundary: str = "dirichlet"  # dirichlet | neumann | both
    windows: tuple[int, ...] = (8, 16, 32)
    lambdas: LambdaSpec = LambdaSpec()
    oracle: OracleSpec = OracleSpec()
    butterfly: ButterflySpec = ButterflySpec()
    verify: VerifySpec = VerifySpec()
    interior_radius: Optional[int] = None
    jump_tol_scale: float = 1e-8
    seed: int = 0


def _fields(entry: Optional[dict], **convert) -> dict:
    """The keys of a config section that have a converter, converted; keys
    the section leaves out are left to the dataclass defaults.  A section
    that is not a mapping, or a value its converter rejects, is a
    ConfigError."""
    if entry is None:
        return {}
    if not isinstance(entry, dict):
        raise ConfigError(f"expected a mapping of keys, got {entry!r}")
    out = {}
    for key in (k for k in convert if k in entry):
        try:
            out[key] = convert[key](entry[key])
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key} {entry[key]!r}: {type(exc).__name__}: {exc}") from None
    return out


def _optional(fn):
    return lambda value: None if value is None else fn(value)


def _flag(value) -> bool:
    """A YAML boolean; a string such as "false" or "no" is not one."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


def _graph_spec(entry: dict) -> GraphSpec:
    """The graph section, validated at parse time by ``periodic_graph``."""
    templates = tuple((int(a), int(b), _ints(off)) for a, b, off in entry.get("templates", []))
    spec = GraphSpec(int(entry["dimension"]), int(entry["orbits"]), templates)
    build_graph(spec)
    return spec


def _stencil(entries) -> tuple:
    """(origin, target, offset, coeff) rows; a coeff [re, im] is complex."""
    return tuple(
        (int(a), int(b), _ints(off), complex(*map(float, c)) if isinstance(c, list) else complex(c))
        for a, b, off, c in entries
    )


def _perturb_spec(p) -> Optional[PerturbSpec]:
    return PerturbSpec(int(p["template"]), _ints(p["shift"]), float(p["turns"])) if p else None


def _weight_spec(entry: Optional[dict]) -> WeightSpec:
    return WeightSpec(**_fields(
        entry, kind=str, flux=parse_flux, conjugation_defect=_optional(float),
        perturb=_perturb_spec,
    ))


def _model_spec(entry: dict, default_label: str) -> ModelSpec:
    if not isinstance(entry, dict) or "graph" not in entry:
        raise ConfigError(f"a model needs a graph section, got {entry!r}")
    spec = ModelSpec(
        label=str(entry.get("label", default_label)),
        **_fields(entry, graph=_graph_spec, weights=_weight_spec, operator=str,
                  custom_stencil=_stencil),
    )
    p, g = spec.weights.perturb, spec.graph
    if p is not None and not (0 <= p.template < len(g.templates) and len(p.shift) == g.dimension):
        raise ConfigError(
            f"perturb {p} does not fit a graph of dimension {g.dimension} "
            f"with {len(g.templates)} templates"
        )
    return spec


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_SECTION_KEYS = {
    "model": _field_names(ModelSpec),
    "graph": _field_names(GraphSpec),
    "weights": _field_names(WeightSpec),
    "perturb": _field_names(PerturbSpec),
    "lambdas": _field_names(LambdaSpec),
    "oracle": _field_names(OracleSpec),
    "butterfly": _field_names(ButterflySpec),
    "verify": _field_names(VerifySpec),
}
_TOP_KEYS = _field_names(ExperimentConfig)


def _unknown_keys(doc: dict) -> list[str]:
    """Dotted names of the top-level and section keys that no config field
    reads, in document order.  A document with a top-level ``graph`` is
    itself the model, so the model keys are known at the top too."""
    found: list[str] = []

    def visit(entry, known, prefix: str) -> None:
        if not isinstance(entry, dict):
            return
        for key in entry:
            if key not in known:
                found.append(f"{prefix}{key}")
            elif key in _SECTION_KEYS:
                visit(entry[key], _SECTION_KEYS[key], f"{prefix}{key}.")

    visit(doc, _TOP_KEYS | (_SECTION_KEYS["model"] if "graph" in doc else set()), "")
    models = doc.get("models")
    for i, entry in enumerate(models if isinstance(models, list) else []):
        visit(entry, _SECTION_KEYS["model"], f"models[{i}].")
    return found


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    return parse_config(text, default_label=Path(path).stem)


def parse_config(text: str, default_label: str = "experiment") -> ExperimentConfig:
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    unknown = _unknown_keys(doc)
    if unknown:
        warnings.warn(
            f"config {default_label!r}: unknown keys ignored: {', '.join(unknown)}",
            UserWarning,
            stacklevel=2,
        )
    label = str(doc.get("label", default_label))

    model = None
    if "graph" in doc:
        model = _model_spec(doc, label)
    elif "model" in doc:
        model = _model_spec(doc["model"], label)
    models = tuple(
        _model_spec(entry, f"{label}-{i}") for i, entry in enumerate(doc.get("models", []))
    )

    cfg = ExperimentConfig(
        label=label,
        model=model,
        models=models,
        lambdas=LambdaSpec(**_fields(
            doc.get("lambdas"), kind=str, count=int, margin=float,
            values=lambda values: tuple(float(x) for x in values),
        )),
        oracle=OracleSpec(**_fields(
            doc.get("oracle"), grid_n=int, compare=_flag, allow_band_edge=_flag,
        )),
        butterfly=ButterflySpec(**_fields(doc.get("butterfly"), q_max=int)),
        verify=VerifySpec(**_fields(
            doc.get("verify"), inertia_instances=int, window_sizes=_ints,
        )),
        **_fields(
            doc, boundary=str, windows=_ints, interior_radius=_optional(int),
            jump_tol_scale=float, seed=int,
        ),
    )
    if any(b <= a for a, b in zip(cfg.windows, cfg.windows[1:])):
        raise ConfigError("windows must be strictly increasing")
    if not cfg.windows or min(cfg.windows) < 1:
        raise ConfigError(f"windows must be one or more sides >= 1, got {list(cfg.windows)}")
    if cfg.boundary not in ("dirichlet", "neumann", "both"):
        raise ConfigError(f"unknown boundary condition {cfg.boundary!r}")
    if cfg.interior_radius is not None and cfg.interior_radius < 0:
        raise ConfigError(f"interior_radius must be >= 0, got {cfg.interior_radius}")
    if not cfg.jump_tol_scale > 0:
        raise ConfigError(f"jump_tol_scale must be > 0, got {cfg.jump_tol_scale}")
    if cfg.oracle.grid_n < 8:
        raise ConfigError(f"oracle.grid_n must be >= 8, got {cfg.oracle.grid_n}")
    if cfg.butterfly.q_max < 1:
        raise ConfigError(f"butterfly.q_max must be >= 1, got {cfg.butterfly.q_max}")
    if cfg.lambdas.kind not in ("auto", "explicit"):
        raise ConfigError(f"unknown lambda selection {cfg.lambdas.kind!r}")
    if cfg.lambdas.kind == "explicit" and not cfg.lambdas.values:
        raise ConfigError("explicit lambda selection needs values")
    if cfg.lambdas.count < 1:
        raise ConfigError(f"lambdas.count must be >= 1, got {cfg.lambdas.count}")
    if not cfg.verify.window_sizes or min(cfg.verify.window_sizes) < 1:
        raise ConfigError(
            f"verify.window_sizes must be one or more sides >= 1, got {list(cfg.verify.window_sizes)}"
        )
    if cfg.verify.inertia_instances < 1:
        raise ConfigError(f"verify.inertia_instances must be >= 1, got {cfg.verify.inertia_instances}")
    return cfg


@dataclass(eq=False)
class BuiltModel:
    spec: ModelSpec
    graph: PeriodicGraph
    weights: WeightFunction
    operator: LocalOperator


def build_graph(spec: GraphSpec) -> PeriodicGraph:
    return periodic_graph(spec.dimension, spec.orbits, spec.templates)


def build_weights(graph: PeriodicGraph, spec: WeightSpec) -> WeightFunction:
    if spec.kind == "uniform":
        w = uniform_weights(graph)
    elif spec.kind == "hofstadter":
        if spec.flux is None:
            raise ConfigError("hofstadter weights need a flux")
        w = hofstadter_weights(graph, spec.flux)
    else:
        raise ConfigError(f"unknown weight kind {spec.kind!r}")
    if spec.perturb is not None:
        w = perturbed_weights(w, spec.perturb.template, spec.perturb.shift, spec.perturb.turns)
    if spec.conjugation_defect is not None:
        w = with_conjugation_defect(w, spec.conjugation_defect)
    return w


def build_model(spec: ModelSpec) -> BuiltModel:
    graph = build_graph(spec.graph)
    weights = build_weights(graph, spec.weights)
    if spec.operator in ("harper", "dml"):
        op = (harper_operator if spec.operator == "harper" else dml_operator)(graph, weights)
    elif spec.operator == "custom":
        if not spec.custom_stencil:
            raise ConfigError("custom operator needs a custom_stencil section")
        op = local_operator(graph, spec.custom_stencil)
    elif spec.operator == "zero":
        op = zero_operator(graph)
    else:
        raise ConfigError(f"unknown operator {spec.operator!r}")
    return BuiltModel(spec, graph, weights, op)


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
