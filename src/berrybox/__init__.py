"""Geometric phases of a quantum particle in a 1D box with moving walls.

The package classifies the self-adjoint boundary conditions of the kinetic
operator on an interval, solves the spectrum of the dilation-invariant
eta family in closed form and by a generic transcendental root finder,
evaluates the Berry connection/curvature/loop phases through several
independent renormalization prescriptions, handles the degenerate
eta = +/-1 matrix holonomy, and verifies everything dynamically by slow
traversal of closed loops in the (length, center) parameter half-plane.
"""

import os as _os
import sys as _sys

# One BLAS thread unless the caller chose otherwise.  The hot linear algebra
# is stacked eigh of at most 33x33 Hamiltonians, where OpenBLAS's default pool
# buys no wall time and busy-waits on every other core.  Measured on 2 cores,
# OpenBLAS 0.3.31 (BENCH_one_blas_thread.json): the `adiabatic` benchmark
# workload's calibrated CPU time falls 37% (median of 10 alternating pairs)
# at the same wall time, with byte-identical outputs; beside another numpy
# process the pooled adiabatic acceptance test took 41-56 s instead of 3.3 s.
# OpenBLAS reads the variables when numpy loads it, so this runs before the
# first import below and not at all once numpy is loaded.
if "numpy" not in _sys.modules and not any(
    v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = _os.environ["MKL_NUM_THREADS"] = "1"

from .boundary import (
    ETA_INF,
    BCClass,
    BoundaryData,
    Eta,
    as_eta,
    bc_residual,
    boundary_form,
    boundary_traces,
    classify_unitary,
    compliant_data,
    dilation_transport,
    eta_to_unitary,
    triple_identity_defect,
)
from .quadrature import GridFunction, oscillatory_rule, panel_rule, reference_rule
from .spectrum import (
    DegenerateEtaError,
    EigenLevel,
    Geometry,
    Mode,
    RootSearchError,
    alpha_of,
    degenerate_basis,
    degenerate_wavenumber,
    eigenfunction_fixed,
    eigenfunction_fixed_dx,
    eigenfunction_physical,
    eigenvalue,
    extension_physical,
    extension_physical_grad,
    generic_spectrum,
    mode,
    mode_boundary_data,
    wavenumber,
)
from .paths import ParameterPath, point_loop, polyline_path, rectangle_corners, rectangle_loop
from .berry import (
    ConnectionSample,
    CurvatureSample,
    LoopPhaseResult,
    MeshTooCoarseError,
    commutator_defect,
    connection_analytic,
    connection_interior,
    connection_mollified,
    curvature,
    loop_phase_analytic,
    loop_phase_connection,
    loop_phase_mollified,
    loop_phase_overlap,
    loop_phase_overlap_meshes,
    power_law_extrapolate,
    require_geometric,
    standard_mollifier,
    state_overlap,
    stokes_defect,
)
from .wilczek_zee import (
    ConnectionCheckError,
    Holonomy,
    MatrixConnection,
    connection_from_basis,
    diagonalize_in_plane_waves,
    wz_connection,
    wz_curvature,
    wz_holonomy,
)
from .adiabatic import (
    PhaseReport,
    Schedule,
    effective_hamiltonian,
    mode_window,
    momentum_matrix,
    propagate,
    virial_matrix,
)

__version__ = "0.1.0"
