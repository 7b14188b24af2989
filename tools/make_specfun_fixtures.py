"""Generate high-precision reference fixtures for the special functions.

Evaluates E1, Si, Ci with mpmath at 40 significant digits and freezes the
correctly-rounded double values into tests/fixtures/specfun_reference.json,
or into the path given as the one argument.  Run from the repository root:

    python3 tools/make_specfun_fixtures.py [OUT]

The main set is 200 points with Re z >= 0 and |z| in [1e-3, 500]:
real-axis points, pure-imaginary points, and a log-radial fan of general
complex points (radii nudged away from Si/Ci zeros so relative
comparisons stay meaningful).  A second set covers Re z < 0 for E1 alone,
including points just off the branch cut on both sides.
"""

import json
import math
import pathlib
import sys

import mpmath as mp

mp.mp.dps = 40

OUT = (pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"
       / "specfun_reference.json")

R_MIN, R_MAX = 1e-3, 500.0


def _pair(x: "mp.mpc") -> list[float]:
    return [float(mp.re(x)), float(mp.im(x))]


def _log_radii(n: int) -> list[float]:
    lo, hi = math.log(R_MIN), math.log(R_MAX)
    return [math.exp(lo + (hi - lo) * k / (n - 1)) for k in range(n)]


def _safe_radius(r: float, theta: float) -> float:
    """Nudge r until Si and Ci at r*e^{i theta} are safely away from zero."""
    for _ in range(80):
        z = mp.mpc(r * math.cos(theta), r * math.sin(theta))
        if min(abs(mp.si(z)), abs(mp.ci(z))) >= 1e-4:
            return r
        r *= 1.0331
    raise RuntimeError(f"could not find a zero-free radius near {r}, {theta}")


def main_points() -> list[complex]:
    pts: list[complex] = []
    # real axis (20)
    for r in _log_radii(20):
        pts.append(complex(_safe_radius(r, 0.0), 0.0))
    # pure imaginary, both signs (20)
    for r in _log_radii(10):
        rr = _safe_radius(r, math.pi / 2)
        pts.append(complex(0.0, rr))
        pts.append(complex(0.0, -rr))
    # general fan (160): 20 radii x 8 angles covering near-axis to
    # near-imaginary on both sides
    angles = [0.02, 0.35, 0.8, 1.2, 1.55, -0.12, -0.7, -1.45]
    for i, r in enumerate(_log_radii(20)):
        for j, th in enumerate(angles):
            rr = _safe_radius(r * (1.0 + 0.013 * j), th)
            pts.append(complex(rr * math.cos(th), rr * math.sin(th)))
    assert len(pts) == 200
    return pts


def left_points() -> list[complex]:
    pts: list[complex] = []
    angles = [1.7, 2.2, 2.7, 3.0, math.pi - 1e-3, -(math.pi - 1e-3), -2.5, -1.8]
    for r in _log_radii(8):
        for th in angles:
            pts.append(complex(r * math.cos(th), r * math.sin(th)))
    # just off the cut at rate-like arguments (Re z = -y, small imag)
    for y in (0.5, 5.0, 10.0, 50.0, 200.0):
        pts.append(complex(-y, 1e-12))
        pts.append(complex(-y, -1e-12))
    return pts


def build() -> dict:
    main = []
    for z in main_points():
        zm = mp.mpc(z.real, z.imag)
        main.append({"z": [z.real, z.imag], "e1": _pair(mp.e1(zm)),
                     "si": _pair(mp.si(zm)), "ci": _pair(mp.ci(zm))})
    left = []
    for z in left_points():
        zm = mp.mpc(z.real, z.imag)
        left.append({"z": [z.real, z.imag], "e1": _pair(mp.e1(zm))})
    return {"dps": mp.mp.dps, "main": main, "e1_left": left}


if __name__ == "__main__":
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {path}")
