"""Geometric phases of a quantum particle in a 1D box with moving walls.

The package classifies the self-adjoint boundary conditions of the kinetic
operator on an interval, solves the spectrum of the dilation-invariant
eta family in closed form and by a generic transcendental root finder,
evaluates the Berry connection/curvature/loop phases through several
independent renormalization prescriptions, handles the degenerate
eta = +/-1 matrix holonomy, and verifies everything dynamically by slow
traversal of loops in the (length, center) parameter half-plane.  A loop
(`ParameterPath`) closes itself, so no routine tests for closure.
The walls are dilation invariant, so the unit box is the one frame: a box is
its length l, and each state those checks integrate is one record of two
plane waves at one wavenumber in the box coordinate (`PlaneWaves`, from a
`Mode` or `degenerate_waves`), whose overlap with another at any box (l, c),
over any window, is one closed form (`window_integral`).

The namespace loads on demand (PEP 562): `import berrybox` imports no
submodule, and the first read of a public name such as `berrybox.mode`
imports the submodule that defines it.  So each `berrybox` command loads
only the modules it runs, all of them on the standard library: no module
of the package imports numpy or scipy.  Each loads `boundary`, the CLI
front `cli` and its own module of the CLI (`cli.bc`, `cli.spectrum`, ...),
never another command's: `bc` loads no more; `spectrum` adds `closed_form`,
and `spectrum` for --check generic; every `berry` command adds
`closed_form` and `paths`, with `quadrature` and `berry` for the oracles
and `svgplot` for --plot; `wz` adds `closed_form`, `paths` and
`wilczek_zee`; `adiabatic` adds `closed_form`, `paths` and `adiabatic`,
whose eigensolver is Householder reduction and implicit QL on tuples of
rows.  No command loads the boundary-triple identities (`boundary_triple`);
the boundary tour demo prints them.
"""

# each submodule's public names: its __all__, which tests/test_imports.py
# checks they equal
_EXPORTS = {
    "boundary": "Eta ETA_INF as_eta BCClass eta_to_unitary classify_unitary require_unitary require_mass",
    "boundary_triple": "BoundaryData bc_residual boundary_form triple_identity_defect dilation_transport "
                       "compliant_data boundary_traces",
    "quadrature": "gauss_legendre panel_nodes",
    "closed_form": "DegenerateEtaError require_length Mode PlaneWaves alpha_of wavenumber mode eigenvalue "
                   "degenerate_wavenumber degenerate_waves window_integral connection_analytic "
                   "loop_phase_analytic curvature",
    "spectrum": "RootSearchError EigenLevel generic_spectrum",
    "paths": "ParameterPath rectangle_loop log_ratio",
    "berry": "MeshTooCoarseError standard_mollifier connection_interior connection_mollified LoopPhaseResult "
             "loop_phase_overlap_meshes state_overlap power_law_extrapolate require_geometric require_interior_step",
    "wilczek_zee": "SIGMA2 ConnectionCheckError MatrixConnection Holonomy wz_connection connection_from_basis "
                   "wz_curvature wz_holonomy diagonalize_in_plane_waves",
    "adiabatic": "Schedule PhaseReport mode_window weak_form_matrix generator eigh propagate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # an unknown name (a submodule not yet imported, say) imports nothing
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import through __import__, unlike importlib's, shows in -X importtime
    value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    globals()[name] = value  # later reads bypass this hook
    return value


__version__ = "0.1.0"
