"""Generate 40-digit reference values of the bare decay rates.

Evaluates gamma_plus, gamma_minus and gamma_zero per unit alpha with
mpmath at 40 significant digits and freezes the correctly rounded doubles
into tests/fixtures/rates_reference.json, or into the path given as the
one argument.  Run from the repository root:

    python3 tools/make_rate_fixtures.py [OUT]

The bare rate at omega = +-y is Re int_0^t e^{i omega s} (1 + i s)^{-2} ds.
With u = 1 + i s it has the closed form

    -i e^{-omega} [-e^{omega u}/u + omega Ei(omega u)]_{u=1}^{1+it}

whose exponential integral, Ei(y u) at omega = y and -E1(y u) at
omega = -y, runs along Re u = 1, clear of the branch cut; gamma_zero is
t/(1 + t^2).  The closed form is checked against mp.quad of the
integral at the points where omega0 t is at most 20.

The times are exact doubles t = k * 1e-3, as np.arange(n + 1) * 1e-3
gives them, over (0, 500]: a fixed set of k at every omega0/omega_c, the
two grid times on each side of the first two sign changes of gamma_plus
and of gamma_minus up to t = 50, and, at each omega0 below 128, the two
on each side of the junction where the grid rates switch from quadrature
to their far-range series: the last row below, and the first row at,
t >= 1 and omega0 t >= 64.  Every choice is made in integer, mpmath or
single correctly rounded double arithmetic, so the output is the same
bytes on every platform.
"""

import json
import pathlib
import sys

import mpmath as mp

mp.mp.dps = 40

OUT = (pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"
       / "rates_reference.json")

H = 1e-3
OMEGA0 = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 150.0, 300.0)

#: grid indices k, t = k H, at every omega0
K_FIXED = (1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 700, 1000,
           1414, 1732, 2000, 2718, 3000, 4000, 5000, 7071, 10000, 14142,
           20000, 31416, 50000, 100000, 200000, 314159, 500000)

#: further indices at one omega0: t = 2.122 at omega0 2, where rate_table's
#: gamma_minus is furthest from the reference
K_EXTRA = {2.0: (2122,)}

#: sign changes located per rate, and the last index scanned for them
CROSSINGS, K_SCAN = 2, 50000

#: the mp.quad check runs where omega0 t is at most this
QUAD_RADIANS = 20

#: the far-range series takes the grid rows with t >= 1 and omega0 t >=
#: FAR_RADIANS, and every row t > 0 from omega0 = FAR_OMEGA0 up
FAR_RADIANS, FAR_OMEGA0 = 64.0, 128.0


def bare(y: float, sign: int, t: float) -> mp.mpf:
    """Re int_0^t e^{i sign y s} (1 + i s)^{-2} ds, by the closed form."""
    y, t = mp.mpf(y), mp.mpf(t)
    omega = sign * y

    def antiderivative(u):
        ei = mp.ei(y * u) if sign > 0 else -mp.e1(y * u)
        return -mp.exp(omega * u) / u + omega * ei

    value = -1j * mp.exp(-omega) * (antiderivative(mp.mpc(1, t))
                                    - antiderivative(mp.mpf(1)))
    return mp.re(value)


def by_quadrature(y: float, sign: int, t: float) -> mp.mpf:
    """The same integral by mp.quad, on panels of at most one radian."""
    omega, t = sign * mp.mpf(y), mp.mpf(t)

    def f(s):
        return ((1 - s * s) * mp.cos(omega * s) + 2 * s * mp.sin(omega * s)) \
            / (1 + s * s) ** 2

    panels = max(1, int(mp.ceil(abs(omega) * t)))
    return mp.quad(f, mp.linspace(0, t, panels + 1))


def crossings(y: float, sign: int) -> list[int]:
    """The grid indices on both sides of the rate's first CROSSINGS sign
    changes at k <= K_SCAN, bracketed in steps shorter than half a period
    of e^{i y s} and closed by bisection on k.  Each rate starts as t, so
    positive."""
    step = max(1, int(1000 / y))
    found, k, f_lo = [], 0, 1
    while len(found) < 2 * CROSSINGS and k + step <= K_SCAN:
        lo, hi = k, k + step
        f_hi = mp.sign(bare(y, sign, hi * H))
        if f_hi != f_lo:
            a, b = lo, hi
            while b - a > 1:
                mid = (a + b) // 2
                if mp.sign(bare(y, sign, mid * H)) == f_lo:
                    a = mid
                else:
                    b = mid
            found += [a, b]
        k, f_lo = hi, f_hi
    return found


def first_far_row(y: float) -> int:
    """The least k with t = k H >= 1 and y t >= FAR_RADIANS, as doubles."""
    k = int(FAR_RADIANS / y / H) - 2
    while not (k * H >= 1.0 and y * (k * H) >= FAR_RADIANS):
        k += 1
    return k


def build() -> dict:
    points, checked = [], 0
    for y in OMEGA0:
        junction = (first_far_row(y) - 1, first_far_row(y)) \
            if y < FAR_OMEGA0 else ()
        ks = {*K_FIXED, *K_EXTRA.get(y, ()), *junction,
              *crossings(y, 1), *crossings(y, -1)}
        for k in sorted(k for k in ks if 0 < k <= 500000):
            t = k * H
            gp, gm = bare(y, 1, t), bare(y, -1, t)
            if y * t <= QUAD_RADIANS:
                for sign, value in ((1, gp), (-1, gm)):
                    gap = abs(value - by_quadrature(y, sign, t))
                    if gap > mp.mpf("1e-30"):
                        raise RuntimeError(f"closed form and mp.quad differ "
                                           f"by {gap} at y={y}, t={t}")
                checked += 1
            g0 = mp.mpf(t) / (1 + mp.mpf(t) ** 2)
            points.append({"omega0": y, "k": k, "t": t,
                           "gamma_plus": float(gp), "gamma_minus": float(gm),
                           "gamma_zero": float(g0)})
    return {"dps": mp.mp.dps, "h": H, "quad_checked": checked,
            "points": points}


if __name__ == "__main__":
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {path}")
