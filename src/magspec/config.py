"""Dataclass configuration and YAML loading for the experiment drivers.

Configs are plain nested key/value documents.  Rational flux is written
"p/q" (kept exact as a Fraction); a bare float is allowed but disables the
quadrature oracle.  The weight section carries two fault-injection knobs
(``conjugation_defect`` and ``perturb``) so a config can deliberately break
an invariant and exercise the named failures of the verify driver.
"""

from __future__ import annotations

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
    harper_dml,
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
    q_max: int = 50
    grid_n: int = 64


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


def _graph_spec(entry: dict) -> GraphSpec:
    try:
        templates = tuple(
            (int(a), int(b), tuple(int(x) for x in off))
            for a, b, off in entry.get("templates", [])
        )
        return GraphSpec(int(entry["dimension"]), int(entry["orbits"]), templates)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad graph section: {exc}") from None


def _weight_spec(entry: Optional[dict]) -> WeightSpec:
    if not entry:
        return WeightSpec()
    perturb = None
    if entry.get("perturb"):
        p = entry["perturb"]
        perturb = PerturbSpec(
            int(p["template"]), tuple(int(x) for x in p["shift"]), float(p["turns"])
        )
    defect = entry.get("conjugation_defect")
    return WeightSpec(
        kind=str(entry.get("kind", "uniform")),
        flux=parse_flux(entry.get("flux")),
        conjugation_defect=None if defect is None else float(defect),
        perturb=perturb,
    )


def _model_spec(entry: dict, default_label: str) -> ModelSpec:
    stencil = []
    for item in entry.get("custom_stencil", []):
        a, b, off, coeff = item
        if isinstance(coeff, (list, tuple)):
            coeff = complex(float(coeff[0]), float(coeff[1]))
        else:
            coeff = complex(coeff)
        stencil.append((int(a), int(b), tuple(int(x) for x in off), coeff))
    return ModelSpec(
        label=str(entry.get("label", default_label)),
        graph=_graph_spec(entry["graph"]),
        weights=_weight_spec(entry.get("weights")),
        operator=str(entry.get("operator", "dml")),
        custom_stencil=tuple(stencil),
    )


_SECTION_KEYS = {
    "model": {"label", "graph", "weights", "operator", "custom_stencil"},
    "graph": {"dimension", "orbits", "templates"},
    "weights": {"kind", "flux", "conjugation_defect", "perturb"},
    "perturb": {"template", "shift", "turns"},
    "lambdas": {"kind", "count", "margin", "values"},
    "oracle": {"grid_n", "compare", "allow_band_edge"},
    "butterfly": {"q_max", "grid_n"},
    "verify": {"inertia_instances", "window_sizes"},
}
_TOP_KEYS = {
    "label", "model", "models", "boundary", "windows", "lambdas", "oracle",
    "butterfly", "verify", "interior_radius", "jump_tol_scale", "seed",
}


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

    lam_entry = doc.get("lambdas", {}) or {}
    lambdas = LambdaSpec(
        kind=str(lam_entry.get("kind", "auto")),
        count=int(lam_entry.get("count", 9)),
        margin=float(lam_entry.get("margin", 0.1)),
        values=tuple(float(x) for x in lam_entry.get("values", [])),
    )
    ora_entry = doc.get("oracle", {}) or {}
    oracle = OracleSpec(
        grid_n=int(ora_entry.get("grid_n", 128)),
        compare=bool(ora_entry.get("compare", True)),
        allow_band_edge=bool(ora_entry.get("allow_band_edge", False)),
    )
    b_entry = doc.get("butterfly", {}) or {}
    butterfly = ButterflySpec(
        q_max=int(b_entry.get("q_max", 12)), grid_n=int(b_entry.get("grid_n", 64))
    )
    v_entry = doc.get("verify", {}) or {}
    verify = VerifySpec(
        inertia_instances=int(v_entry.get("inertia_instances", 200)),
        window_sizes=tuple(int(x) for x in v_entry.get("window_sizes", (4, 6))),
    )

    windows = tuple(int(x) for x in doc.get("windows", (8, 16, 32)))
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ConfigError("windows must be strictly increasing")
    boundary = str(doc.get("boundary", "dirichlet"))
    if boundary not in ("dirichlet", "neumann", "both"):
        raise ConfigError(f"unknown boundary condition {boundary!r}")
    interior = doc.get("interior_radius")
    cfg = ExperimentConfig(
        label=label,
        model=model,
        models=models,
        boundary=boundary,
        windows=windows,
        lambdas=lambdas,
        oracle=oracle,
        butterfly=butterfly,
        verify=verify,
        interior_radius=None if interior is None else int(interior),
        jump_tol_scale=float(doc.get("jump_tol_scale", 1e-8)),
        seed=int(doc.get("seed", 0)),
    )
    if lambdas.kind not in ("auto", "explicit"):
        raise ConfigError(f"unknown lambda selection {lambdas.kind!r}")
    if lambdas.kind == "explicit" and not lambdas.values:
        raise ConfigError("explicit lambda selection needs values")
    return cfg


@dataclass(eq=False)
class BuiltModel:
    spec: ModelSpec
    graph: PeriodicGraph
    weights: WeightFunction
    harper: Optional[LocalOperator]
    dml: Optional[LocalOperator]
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
    harper = dml = None
    if spec.operator in ("harper", "dml"):
        harper, dml = harper_dml(graph, weights)
        op = harper if spec.operator == "harper" else dml
    elif spec.operator == "custom":
        if not spec.custom_stencil:
            raise ConfigError("custom operator needs a custom_stencil section")
        op = local_operator(graph, spec.custom_stencil)
    elif spec.operator == "zero":
        op = zero_operator(graph)
    else:
        raise ConfigError(f"unknown operator {spec.operator!r}")
    return BuiltModel(spec, graph, weights, harper, dml, op)


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
