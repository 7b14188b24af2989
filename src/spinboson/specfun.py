"""Complex exponential, sine, and cosine integrals in double precision.

The decay-rate formulas of this package need E1 at complex arguments
z = x + iy with x = omega0*t and y = omega0/omega_c.  scipy.special's
``exp1`` and ``sici`` evaluate the principal branches at complex
arguments; this module wraps them with the package's domain checks.
Against the 40-digit test fixtures the worst relative error is below
1e-12 for |z| <= 500, in both half-planes.

scipy.special is imported on a function's first evaluation, after its
domain checks pass, so ``import spinboson`` and the code paths that never
evaluate E1 (the unraveling among them) load numpy alone.

All functions are pure and thread-safe; concurrent first calls meet in
Python's import lock, which hands each the one fully imported module.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def expint_e1(z):
    """Principal-branch exponential integral E1(z), elementwise.

    Accepts a scalar or an array of nonzero points off the negative real
    axis (the branch cut).  Returns a ``complex`` for a scalar and a
    complex array for an array.

    Raises
    ------
    DomainError
        If any point is 0, lies on the negative real axis or has a NaN
        real or imaginary part.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise DomainError("E1 is singular at z = 0")
    on_cut = (z.imag == 0.0) & (z.real < 0.0)
    if np.any(on_cut):
        raise DomainError("E1 is not defined on the negative real axis "
                          f"(branch cut); got z={z[on_cut].flat[0]}")
    if np.isnan(z).any():
        raise DomainError(
            f"E1 is not defined at NaN; got z={z[np.isnan(z)].flat[0]}")
    from scipy import special
    e1 = special.exp1(z)
    return complex(e1) if e1.ndim == 0 else e1


def sin_cos_integral(z: complex) -> tuple[complex, complex]:
    """Sine and cosine integrals (Si(z), Ci(z)) for Re z >= 0, z != 0.

    Raises
    ------
    DomainError
        If z = 0 (Ci has a logarithmic singularity there), Re z < 0 or
        z has a NaN real or imaginary part.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("Ci is singular at z = 0")
    if z.real < 0.0:
        raise DomainError(f"sin_cos_integral requires Re z >= 0; got z={z}")
    if np.isnan(z):
        raise DomainError(f"sin_cos_integral is not defined at NaN; got z={z}")
    from scipy import special
    si, ci = special.sici(z)
    return complex(si), complex(ci)

