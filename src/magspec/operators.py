"""U(1) edge weights, gauge cocycles, magnetic translations, and
self-adjoint finite-propagation operators given by Hermitian stencils.

Weights assign a unit-modulus phase to every oriented edge, with reversal
acting by complex conjugation.  A weight is weakly invariant under the
translation action when each generator changes it only by a vertex
coboundary; that coboundary is recovered here by integrating phase ratios
over a spanning forest of a box window and checking consistency on the
remaining edges.  Operators are stored as one aggregated stencil per
orbit, with coefficients that may depend on the origin translate (this is
how magnetic phases enter).  Weight rules and coefficients map an array of
k origin translates (shape (k, d)) to k complex values; everything
downstream reads the stencil off at arrays of vertices (``triplets``), and
on a window as COO triplets (``window_coo``).  Functions live on windows
as arrays indexed by window position: cocycles, the twisted translations
they define and the matvecs behind the trace powers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .exhaustion import Window
from .lattice import (
    PeriodicGraph,
    Shift,
    Vertex,
    neg,
    simplicial_distance,
    word_ball,
    word_length,
)

HERMITIAN_TOL = 1e-12
COCYCLE_TOL = 1e-12
SAMPLE_RADIUS = 2  # local_operator checks Hermitian symmetry at translates this close to 0

# array rules: origin translates of shape (k, d) -> k complex values
PhaseRule = Union[complex, Callable[[np.ndarray], np.ndarray]]
CoeffRule = Callable[[np.ndarray], np.ndarray]


class WeightError(ValueError):
    """Weight function violating the U(1)/conjugation contract."""


class NotWeaklyInvariantError(WeightError):
    """Weight whose generator translates are not coboundary-equivalent to it."""


class StencilError(ValueError):
    """Stencil that is not Hermitian or not of bounded propagation."""


def unit_phase(turns) -> complex:
    """e^{2 pi i turns}, with the argument reduced mod 1 before
    exponentiation so rational turns give exactly periodic phases."""
    if isinstance(turns, Fraction):
        turns = float(turns % 1)
    else:
        turns = float(turns) % 1.0
    return complex(np.exp(2j * np.pi * turns))


def landau_phase(flux, x: np.ndarray) -> np.ndarray:
    """e^{2 pi i flux x} on an integer array x, bit for bit unit_phase(flux
    * x): a rational flux p/q is reduced exactly, as ((p x) mod q) / q, and
    a float flux as (flux x) mod 1."""
    if isinstance(flux, (Fraction, int)):
        turns = (flux.numerator * x) % flux.denominator / flux.denominator
    else:
        turns = (flux * x) % 1.0
    return np.exp(2j * np.pi * turns)


def _cmul(a, b) -> np.ndarray:
    """Elementwise a * b as Python's complex product computes it; numpy's
    complex multiply may fuse a multiply-add and differ in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class WeightFunction:
    """Per-template phase rules on E+ edges; reversal conjugates.

    ``rules[i]`` is a complex constant or an array rule of the origin
    translates of the template's edges.  ``flux`` records the magnetic flux
    parameter when meaningful (a Fraction for rational flux); the Floquet
    oracle uses it to size its enlarged cell.  ``conjugation_defect`` is a
    fault-injection knob multiplying reversed-edge phases, used to exercise
    the validator.
    """

    def __init__(
        self,
        graph: PeriodicGraph,
        rules: Sequence[PhaseRule],
        flux=None,
        conjugation_defect: Optional[complex] = None,
    ):
        if len(rules) != len(graph.templates):
            raise WeightError("need one phase rule per edge template")
        self.graph = graph
        self._rules = tuple(_as_rule(r) for r in rules)
        self.flux = flux
        self._defect = conjugation_defect

    def positive_phase(self, template: int, shifts: np.ndarray) -> np.ndarray:
        """Phases of the E+ edges of ``template`` anchored at the origin
        translates ``shifts``, shape (k, d)."""
        return self._rules[template](shifts)

    def reversed_phase(self, template: int, shifts: np.ndarray) -> np.ndarray:
        """Phases of the reverses of those edges: the conjugates, times the
        injected defect if any."""
        value = self.positive_phase(template, shifts).conj()
        return value if self._defect is None else _cmul(value, self._defect)


def uniform_weights(graph: PeriodicGraph) -> WeightFunction:
    """sigma identically 1 (flux-free case)."""
    return WeightFunction(graph, [1.0 + 0.0j] * len(graph.templates), flux=Fraction(0))


def hofstadter_weights(graph: PeriodicGraph, flux) -> WeightFunction:
    """Landau-gauge weights on the square lattice: horizontal E+ edges carry
    phase 1, the vertical E+ edge with origin column x carries
    e^{2 pi i alpha x}.  ``flux`` may be a Fraction (rational alpha) or a
    float."""
    offsets = sorted(t.offset for t in graph.templates)
    if (
        graph.dimension != 2
        or graph.num_orbits != 1
        or offsets != [(0, 1), (1, 0)]
    ):
        raise WeightError("hofstadter weights need the standard square lattice")
    rules: list[PhaseRule] = []
    for t in graph.templates:
        if t.offset == (1, 0):
            rules.append(1.0 + 0.0j)
        else:
            rules.append(lambda s: landau_phase(flux, s[:, 0]))
    return WeightFunction(graph, rules, flux=flux)


def gauge_transformed(
    weights: WeightFunction, u: Callable[[int, np.ndarray], np.ndarray]
) -> WeightFunction:
    """sigma'(e) = sigma(e) u(terminus) conj(u(origin)) for a U(1) vertex
    function u, evaluated as u(orbit, shifts) on the translates of one
    orbit; window spectra are invariant under this."""
    g = weights.graph
    rules: list[PhaseRule] = []
    for i, t in enumerate(g.templates):
        def rule(s: np.ndarray, i=i, t=t) -> np.ndarray:
            head = _cmul(weights.positive_phase(i, s), u(t.terminus_orbit, s + t.offset))
            return _cmul(head, np.conj(u(t.origin_orbit, s)))

        rules.append(rule)
    return WeightFunction(g, rules, flux=weights.flux)


def perturbed_weights(
    weights: WeightFunction, template: int, shift: Shift, turns: float
) -> WeightFunction:
    """Multiply the phase of one E+ edge by e^{2 pi i turns}; a nonzero
    perturbation breaks weak invariance."""
    shift = tuple(shift)
    factor = unit_phase(turns)
    rules = list(weights._rules)
    rules[template] = lambda s, rule=rules[template]: _cmul(
        rule(s), np.where((s == shift).all(axis=1), factor, 1.0 + 0.0j)
    )
    return WeightFunction(weights.graph, rules, flux=weights.flux)


def with_conjugation_defect(weights: WeightFunction, turns: float) -> WeightFunction:
    """Fault injection: reversed edges no longer carry the conjugate phase."""
    return WeightFunction(
        weights.graph, weights._rules, flux=weights.flux, conjugation_defect=unit_phase(turns)
    )


@dataclass(eq=False)
class Cocycle:
    """U(1) vertex function s_gamma solving the coboundary equation for one
    generator, on the window it was solved on: ``values[j]`` is its value
    at window position j."""

    gamma: Shift
    window: Window
    values: np.ndarray


def _box(graph: PeriodicGraph, radius: int) -> Window:
    side = range(-radius, radius + 1)
    return Window(graph, tuple(itertools.product(side, repeat=graph.dimension)))


def _per_template(rule, templates: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """rule(i, shifts of the edges of template i), one call per template."""
    out = np.empty(len(templates), dtype=complex)
    for i in np.unique(templates):
        sel = templates == i
        out[sel] = rule(int(i), shifts[sel])
    return out


def check_conjugation_symmetry(
    graph: PeriodicGraph, weights: WeightFunction, radius: int
) -> float:
    """Max residual of |sigma| = 1 and sigma(reversed) = conj(sigma) over a
    box window; raises WeightError above 1e-12."""
    window = _box(graph, radius)
    tails, _, templates = window.edge_ends()
    shifts = window.shifts[tails]
    p = _per_template(weights.positive_phase, templates, shifts)
    bad = np.flatnonzero(np.abs(_abs(p) - 1.0) > HERMITIAN_TOL)
    if bad.size:
        k = bad[0]
        e = graph.template_edge(int(templates[k]), tuple(int(x) for x in shifts[k]))
        raise WeightError(f"invalid weight: |sigma| != 1 on edge {e}")
    diff = _per_template(weights.reversed_phase, templates, shifts) - p.conj()
    worst = float(_abs(diff).max(initial=0.0))
    if worst > HERMITIAN_TOL:
        raise WeightError(
            f"invalid weight: sigma(reversed) != conj(sigma), residual {worst:.3e}"
        )
    return worst


def validate_weights(
    graph: PeriodicGraph, weights: WeightFunction, radius: int
) -> dict[Shift, Cocycle]:
    """Solve the coboundary equation for every generator on a box window.

    For each generator gamma the ratio sigma(gamma e)/sigma(e) is
    integrated along a BFS spanning forest (base value 1 on the least
    vertex of each connected component, in (orbit, shift) order) and every
    non-tree edge is checked for consistency.  Returns one cocycle per
    generator, on the box window.

    Raises NotWeaklyInvariantError when some cycle carries holonomy
    mismatch above 1e-12, and WeightError when the conjugation contract
    itself is broken.
    """
    window = _box(graph, radius)
    tails, heads, templates = window.edge_ends()
    check_conjugation_symmetry(graph, weights, radius)

    ends = list(zip(tails.tolist(), heads.tolist()))
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(len(window))]
    for k, (a, b) in enumerate(ends):
        adjacency[a].append((b, k))
        adjacency[b].append((a, k))
    shifts = window.shifts[tails]
    phase = _per_template(weights.positive_phase, templates, shifts).tolist()
    bases = np.argsort(window.orbits, kind="stable").tolist()  # (orbit, shift) order

    cocycles: dict[Shift, Cocycle] = {}
    for gamma in graph.generators:
        moved = _per_template(weights.positive_phase, templates, shifts + gamma).tolist()
        # Python complex arithmetic, not numpy's, which rounds differently
        ratio = [p / q for p, q in zip(moved, phase)]
        values: list = [None] * len(window)
        for base in bases:
            if values[base] is not None:
                continue
            values[base] = 1.0 + 0.0j
            queue = [base]
            while queue:
                u = queue.pop()
                for w, k in adjacency[u]:
                    if values[w] is not None:
                        continue
                    # s(terminus) = ratio * s(origin) along the tree edge
                    values[w] = values[u] * ratio[k] if u == ends[k][0] else values[u] / ratio[k]
                    queue.append(w)
        worst = 0.0
        for (a, b), r in zip(ends, ratio):
            worst = max(worst, abs(r - values[b] * values[a].conjugate()))
        if worst > COCYCLE_TOL:
            raise NotWeaklyInvariantError(
                f"not weakly invariant: cycle residual {worst:.3e} for generator {gamma}"
            )
        cocycles[gamma] = Cocycle(gamma, window, np.array(values, dtype=complex))
    return cocycles


@dataclass(frozen=True)
class StencilEntry:
    target_orbit: int
    offset: Shift
    coeff: CoeffRule


@dataclass(eq=False)
class LocalOperator:
    """Self-adjoint operator of bounded propagation, one aggregated stencil
    per orbit.  ``propagation`` is the graph-metric bound on how far a
    basis vector's image can spread; ``offset_reach`` is the largest l1
    translate jump of any entry (0 for a block-diagonal stencil); ``norm_bound``
    is the Gershgorin row-sum bound on the operator norm."""

    graph: PeriodicGraph
    entries: dict[int, tuple[StencilEntry, ...]]
    propagation: int
    offset_reach: int
    norm_bound: float

    def triplets(
        self, orbits: np.ndarray, shifts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The operator's columns at the source vertices (orbits[j],
        shifts[j]), shifts of shape (k, d): target orbit, target shift,
        source position j and value of every stencil entry, ordered by
        source, then by stencil entry.  Each coefficient rule is evaluated
        once, on the translates of all sources of its orbit."""
        parts = [(np.zeros(0, dtype=np.intp), np.zeros((0, self.graph.dimension), dtype=np.int64),
                  np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex))]
        for orbit, ents in self.entries.items():
            src = np.flatnonzero(orbits == orbit)
            at = shifts[src]
            for ent in ents:
                parts.append((np.full(src.size, ent.target_orbit), at + ent.offset, src, ent.coeff(at)))
        to_orbit, to_shift, src, vals = (np.concatenate(col) for col in zip(*parts))
        order = np.argsort(src, kind="stable")
        return to_orbit[order], to_shift[order], src[order], vals[order]


def _as_rule(c) -> CoeffRule:
    if callable(c):
        return c
    value = complex(c)
    return lambda s, value=value: np.full(len(s), value)


def _abs(values: np.ndarray) -> np.ndarray:
    """|z| as abs() of a complex scalar computes it; numpy's can differ."""
    return np.hypot(values.real, values.imag)


def local_operator(
    graph: PeriodicGraph,
    raw_entries: Iterable[tuple[int, int, Iterable[int], object]],
) -> LocalOperator:
    """Build and validate a stencil operator.

    ``raw_entries`` is an iterable of (origin_orbit, target_orbit, offset,
    coeff) with coeff a complex constant or an array rule of origin
    translates.  Entries sharing (origin, target, offset) are summed.
    Hermitian symmetry is checked numerically on the translates within
    SAMPLE_RADIUS of the origin and the propagation bound is computed by
    BFS in the graph metric; unreachable stencil targets are rejected.
    """
    table: dict[tuple[int, int, Shift], list[CoeffRule]] = {}
    for a, b, off, coeff in raw_entries:
        off = tuple(int(x) for x in off)
        if len(off) != graph.dimension:
            raise StencilError(f"offset {off} has wrong dimension")
        if not (0 <= a < graph.num_orbits and 0 <= b < graph.num_orbits):
            raise StencilError(f"orbit index out of range in entry ({a},{b},{off})")
        table.setdefault((a, b, off), []).append(_as_rule(coeff))

    def combined(key) -> CoeffRule:
        rules = table[key]
        if len(rules) == 1:
            return rules[0]
        return lambda s, rules=tuple(rules): sum(r(s) for r in rules)

    merged = {key: combined(key) for key in table}
    samples = np.array(word_ball(graph.dimension, SAMPLE_RADIUS), dtype=np.int64)
    values = {key: rule(samples) for key, rule in merged.items()}
    scale = max([1.0] + [float(_abs(v).max()) for v in values.values()])
    for (a, b, off), rule in merged.items():
        partner = merged.get((b, a, neg(off)))
        if partner is None:
            if _abs(values[(a, b, off)]).max() > HERMITIAN_TOL * scale:
                raise StencilError(
                    f"stencil entry ({a},{b},{off}) has no Hermitian partner"
                )
            continue
        resid = _abs(partner(samples + off) - values[(a, b, off)].conj())
        bad = np.flatnonzero(resid > HERMITIAN_TOL * scale)
        if bad.size:
            s = tuple(int(x) for x in samples[bad[0]])
            raise StencilError(
                f"stencil not Hermitian at entry ({a},{b},{off}), translate {s}"
            )

    propagation = 0
    for (a, b, off) in merged:
        if a == b and all(x == 0 for x in off):
            continue
        cap = max(4, (word_length(off) + 2) * (graph.num_orbits + 2))
        dist = simplicial_distance(
            graph, Vertex(a, (0,) * graph.dimension), Vertex(b, off), cap
        )
        if dist is None:
            raise StencilError(
                f"stencil entry ({a},{b},{off}) connects vertices beyond graph "
                f"distance {cap}; not of bounded propagation"
            )
        propagation = max(propagation, dist)

    entries: dict[int, list[StencilEntry]] = {}
    for (a, b, off) in sorted(merged):
        entries.setdefault(a, []).append(StencilEntry(b, off, merged[(a, b, off)]))
    norm_bound = 0.0
    for a in entries:
        row = sum(float(_abs(values[(a, e.target_orbit, e.offset)]).max()) for e in entries[a])
        norm_bound = max(norm_bound, row)
    offset_reach = max(
        (word_length(off) for (_, _, off) in merged), default=0
    )
    return LocalOperator(
        graph,
        {a: tuple(ents) for a, ents in entries.items()},
        propagation,
        offset_reach,
        norm_bound,
    )


def zero_operator(graph: PeriodicGraph) -> LocalOperator:
    return LocalOperator(graph, {}, 0, 0, 0.0)


def _hopping_entries(
    graph: PeriodicGraph, weights: WeightFunction
) -> list[tuple[int, int, Shift, CoeffRule]]:
    """The sigma phases of all oriented edges out of each vertex: each
    template in its own direction and reversed, where it carries the
    conjugate phase (the self-adjoint orientation convention)."""
    hop_raw: list[tuple[int, int, Shift, CoeffRule]] = []
    for i, t in enumerate(graph.templates):
        hop_raw.append(
            (t.origin_orbit, t.terminus_orbit, t.offset,
             lambda s, i=i: weights.positive_phase(i, s))
        )
        hop_raw.append(
            (t.terminus_orbit, t.origin_orbit, neg(t.offset),
             lambda s, i=i, off=t.offset: weights.positive_phase(i, s - off).conj())
        )
    return hop_raw


def harper_operator(graph: PeriodicGraph, weights: WeightFunction) -> LocalOperator:
    """The magnetic hopping (Harper) operator: the sum of the sigma phases
    over all oriented edges out of each vertex."""
    return local_operator(graph, _hopping_entries(graph, weights))


def dml_operator(graph: PeriodicGraph, weights: WeightFunction) -> LocalOperator:
    """The discrete magnetic Laplacian: the valence diagonal minus the
    hopping part."""
    lap_raw: list[tuple[int, int, Shift, object]] = [
        (orb, orb, (0,) * graph.dimension, float(graph.valence(orb)))
        for orb in range(graph.num_orbits)
    ]
    for a, b, off, rule in _hopping_entries(graph, weights):
        lap_raw.append((a, b, off, lambda s, rule=rule: -rule(s)))
    return local_operator(graph, lap_raw)


def harper_dml(
    graph: PeriodicGraph, weights: WeightFunction
) -> tuple[LocalOperator, LocalOperator]:
    """The magnetic hopping operator and the magnetic Laplacian; a caller
    that reads one of them builds it alone with ``harper_operator`` or
    ``dml_operator``."""
    return harper_operator(graph, weights), dml_operator(graph, weights)


def window_coo(
    op: LocalOperator, window: Window, sources: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator's columns at the window positions ``sources`` (all by
    default) as COO triplets: the window position of each stencil target
    (-1 off the window), the index of its source in ``sources`` and its
    value, ordered by source, then by stencil entry.  Every window matrix
    and matvec reads the operator through this."""
    src = np.arange(len(window)) if sources is None else sources
    to_orbit, to_shift, cols, vals = op.triplets(window.orbits[src], window.shifts[src])
    return window.positions(to_orbit, to_shift), cols, vals


def window_matvec(coo: tuple[np.ndarray, np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """The operator's compression to the window applied to functions f on
    it (last axis: window positions); targets off the window drop out."""
    rows, cols, vals = coo
    inside = rows >= 0
    out = np.zeros(f.shape, dtype=complex)
    np.add.at(out.T, rows[inside], (vals[inside] * f[..., cols[inside]]).T)
    return out


def _leaves(window: Window, sources: np.ndarray, targets: np.ndarray, what: str) -> None:
    """WeightError at the first source whose target is off the window."""
    off = np.flatnonzero(targets < 0)
    if off.size:
        v = window.vertex(int(sources[off[0]]))
        raise WeightError(f"{what} of {v} leaves the window; enlarge the validation radius")


def translation_commutator(op: LocalOperator, cocycle: Cocycle, tests: np.ndarray) -> float:
    """max over the test functions f (rows of ``tests``, functions on the
    cocycle's window) of ||A T f - T A f||_2 for the twisted translation
    (T f)(gamma x) = s(x) f(x).  Vanishes (to rounding) exactly when the
    cocycle solves the coboundary equation.  Raises WeightError when T or
    A would carry a test function off the window."""
    window = cocycle.window
    rows, cols, _ = coo = window_coo(op, window)
    image = window.positions(window.orbits, window.shifts + np.asarray(cocycle.gamma))

    def translate(f: np.ndarray) -> np.ndarray:
        supp = np.flatnonzero(f.any(axis=0))
        _leaves(window, supp, image[supp], f"translate by {cocycle.gamma}")
        out = np.zeros_like(f)
        out[:, image[supp]] = cocycle.values[supp] * f[:, supp]
        return out

    def apply(f: np.ndarray) -> np.ndarray:
        touched = f.any(axis=0)[cols]
        _leaves(window, cols[touched], rows[touched], "operator image")
        return window_matvec(coo, f)

    f = np.asarray(tests, dtype=complex)
    diff = apply(translate(f)) - translate(apply(f))
    return float(np.linalg.norm(diff, axis=1).max(initial=0.0))


def gamma_trace_power(op: LocalOperator, n: int) -> float:
    """Trace per fundamental domain of the n-th power: the sum over orbit
    representatives v of <A^n delta_v, delta_v>, by n matvecs on the box
    {-R..R}^d, R = (n // 2) * offset_reach.  The truncation is exact: a
    step moves the translate by at most offset_reach in l1, so a closed
    n-walk from v is within k * reach of v after k steps and within
    (n - k) * reach walking back, never farther than R.  n = 0 returns the
    number of orbits; the result is real for Hermitian stencils."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    graph = op.graph
    box = _box(graph, (n // 2) * op.offset_reach)
    coo = window_coo(op, box)
    orbits = np.arange(graph.num_orbits)
    origin = box.positions(orbits, np.zeros((graph.num_orbits, graph.dimension), dtype=np.int64))
    f = np.zeros((graph.num_orbits, len(box)), dtype=complex)
    f[orbits, origin] = 1.0
    for _ in range(n):
        f = window_matvec(coo, f)
    total = complex(f[orbits, origin].sum())
    tol = 1e-12 * max(1.0, op.norm_bound**n)
    if abs(total.imag) > tol:
        raise ArithmeticError(f"trace power came out non-real: {total}")
    return float(total.real)
