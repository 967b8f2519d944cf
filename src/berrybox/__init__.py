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
over any window, is one closed form (`window_integral`), and whose matrices
of p and x o p, read by the propagator, the degenerate connection check and
the mollified oracle, are another (`weak_form`).

Each module's `__all__` is its public API, and `import berrybox` runs only
this file, so each command loads only the modules it runs, none of which
imports numpy or scipy.
"""

__version__ = "0.1.0"
