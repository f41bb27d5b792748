"""Integrated density of states of magnetic lattice operators.

Builds Harper-type hopping operators and magnetic Laplacians on periodic
graphs with a free Z^d action, restricts them to Folner windows with
Dirichlet or Neumann boundary conditions, and compares the normalized
eigenvalue counting functions against Bloch-Floquet ground truth at
rational flux, including the jump (flat-band) structure.
"""

__version__ = "0.1.0"

import os

# one OpenBLAS thread (see spectra): OpenBLAS reads this once, when it
# loads, and the first submodule import below loads numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .exhaustion import (
    InteriorSplit,
    Window,
    folner_box,
    interior_vertices,
    isoperimetric_ratio,
    window_boundary_ratio,
    window_subgraph,
)
from .floquet import (
    Band,
    BandEdgeError,
    Jump,
    MagneticCell,
    OracleUnavailableError,
    band_edges,
    bloch_fiber,
    hofstadter_band_edges,
    hofstadter_ids,
    ids_oracle,
    jump_oracle,
    magnetic_cell,
    moment_crosscheck,
)
from .lattice import (
    GraphSpecError,
    OrientedEdge,
    PeriodicGraph,
    Vertex,
    line_graph,
    periodic_graph,
    square_lattice,
    triangle_cells,
    word_ball,
)
from .operators import (
    Cocycle,
    LocalOperator,
    NotWeaklyInvariantError,
    StencilError,
    WeightFunction,
    WeightError,
    dml_operator,
    gamma_trace_power,
    gauge_transformed,
    harper_dml,
    harper_operator,
    hofstadter_weights,
    local_operator,
    translation_commutator,
    uniform_weights,
    validate_weights,
    zero_operator,
)
from .spectra import (
    UnresolvedClusterError,
    WindowSpectrum,
    WindowTooLargeError,
    assemble_dirichlet,
    assemble_neumann,
    count_leq,
    inertia_count_leq,
    interior_restriction,
    projection_window_dim,
    rect_kernel_dim,
    spectral_density,
)
