"""Compute the mpmath reference values that the benchmark checks outputs against.

    python3 bench/make_refs.py            # rewrites bench/refs.json

The references are computed from the spec files alone, at 40 significant
digits, without importing ``hankelpos``, so they do not share code with the
program under test.  For every spec in ``bench/specs``:

* ``rho``: rho((0, oo)) = int d mu / (1 + lambda^2) for half-line specs; the
  total mass for disc specs (the ``rho_total`` field of the Widom report);
* ``h_points`` / ``h_im``: Im h(p) = (1/pi) int p / (lambda^2 + p^2) d mu at 20
  points of the default symbol grid (half-line specs);
* ``kernel``: K_h(z, w) = (1/4 pi^2) int d mu / ((lambda - iz)(lambda + i conj w))
  at the 9 probe pairs z, w in {i, 2i, 1+i} (half-line specs);
* ``moments``: c_0 .. c_126 of the disc-side measure (the Cayley pushforward
  for half-line specs);
* ``norms``: the operator norms of the N x N moment sections, N = 8, 16, 32, 64
  (for ``disc_leb01`` these are the Hilbert-matrix norms).

Runs never recompute these: ``bench/run.py`` only reads ``bench/refs.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
DPS = 40
N_MOMENTS = 127
NORM_SIZES = (8, 16, 32, 64)
KERNEL_PROBES = (1j, 2j, 1.0 + 1j)
#: Indices into the positive half of the default symbol grid, logspace(-6, 6, 1024).
H_GRID = np.logspace(-6.0, 6.0, 1024)
H_INDICES = [int(round(k)) for k in np.linspace(0, 1023, 20)]


def quad(f, lo, hi, breaks=()):
    """int_lo^hi f with tanh-sinh on subintervals; refuses an unconverged value."""
    lo = mp.mpf(lo)
    unbounded = hi == "inf"
    top = lo + 1 if unbounded else mp.mpf(hi)
    pts = [lo + (top - lo) * mp.mpf(k) / 8 for k in range(9)]
    if unbounded:
        pts += [top * mp.mpf(10) ** k for k in range(1, 9)]
    pts += [mp.mpf(b) for b in breaks if lo < b and (unbounded or b < top)]
    pts = sorted(set(pts))
    if unbounded:
        pts.append(mp.inf)
    value, err = mp.quad(f, pts, error=True, maxdegree=10)
    if err > mp.mpf(1e-15) * max(abs(value), mp.mpf(1e-300)):
        raise RuntimeError(f"mpmath quadrature error {err} too large (value {value})")
    return value


def density(piece):
    """The piece's density as an mpmath function of the original variable."""
    c, kind = mp.mpf(piece["coeff"]), piece["kind"]
    if kind == "cayley_power":
        a, b = mp.mpf(piece["plus_exponent"]), mp.mpf(piece["minus_exponent"])
        return lambda x: c * (1 + x) ** a * (1 - x) ** b
    e, base = mp.mpf(piece["exponent"]), piece["base"]
    if base in ("x", "lambda"):
        return lambda x: c * x**e
    if base == "one_minus_x":
        return lambda x: c * (1 - x) ** e
    return lambda x: c * (1 + x) ** e


def integrate_measure(spec, g, breaks=()):
    """int g d mu for the spec's own measure (atoms plus density pieces)."""
    total = mp.mpf(0)
    for a in spec.get("atoms", []):
        total += mp.mpf(a["mass"]) * g(mp.mpf(a["pos"]))
    for piece in spec.get("densities", []):
        f = density(piece)
        lo, hi = piece["support"]
        total += quad(lambda x: g(x) * f(x), lo, hi, breaks)
    return total


def disc_moments(spec):
    """c_0 .. c_126 of the disc-side measure."""
    if spec["domain"] == "disc":
        return [integrate_measure(spec, lambda x, j=j: x**j) for j in range(N_MOMENTS)]
    # Cayley pushforward: t = (l - 1)/(l + 1); an atom (l, m) lands with mass
    # m (1 - t)^2 / 2, a density f(l) dl lands as f((1 + t)/(1 - t)) dt.
    atoms = []
    for a in spec.get("atoms", []):
        lam, m = mp.mpf(a["pos"]), mp.mpf(a["mass"])
        t = (lam - 1) / (lam + 1)
        atoms.append((t, m * (1 - t) ** 2 / 2))
    pieces = []
    for piece in spec.get("densities", []):
        f = density(piece)
        lo, hi = piece["support"]
        t_lo = (mp.mpf(lo) - 1) / (mp.mpf(lo) + 1)
        t_hi = mp.mpf(1) if hi == "inf" else (mp.mpf(hi) - 1) / (mp.mpf(hi) + 1)
        pieces.append((lambda t, f=f: f((1 + t) / (1 - t)), t_lo, t_hi))
    out = []
    for j in range(N_MOMENTS):
        c = sum((m * t**j for t, m in atoms), mp.mpf(0))
        for g, t_lo, t_hi in pieces:
            # Scaled by m^j so that high orders on short supports are not tiny.
            m = max(abs(t_lo), abs(t_hi))
            c += m**j * quad(lambda t: (t / m) ** j * g(t), t_lo, t_hi)
        out.append(c)
    return out


def section_norm(c, n):
    m = mp.matrix(n, n)
    for i in range(n):
        for k in range(n):
            m[i, k] = c[i + k]
    return max(abs(v) for v in mp.eigsy(m, eigvals_only=True))


def spec_refs(spec):
    out = {}
    c = disc_moments(spec)
    out["moments"] = [float(v) for v in c]
    out["norms"] = {str(n): float(section_norm(c, n)) for n in NORM_SIZES}
    if spec["domain"] == "disc":
        out["rho"] = float(c[0])
        return out
    out["rho"] = float(integrate_measure(spec, lambda lam: 1 / (1 + lam * lam)))
    points = [float(H_GRID[k]) for k in H_INDICES]
    out["h_points"] = points
    out["h_im"] = [
        float(integrate_measure(spec, lambda lam, p=mp.mpf(p): p / (lam * lam + p * p),
                                breaks=(p,)) / mp.pi)
        for p in points
    ]
    kernel = []
    for z in KERNEL_PROBES:
        for w in KERNEL_PROBES:
            zz, wb = mp.mpc(z), mp.conj(mp.mpc(w))
            k = integrate_measure(
                spec, lambda lam: 1 / ((lam - 1j * zz) * (lam + 1j * wb))
            ) / (4 * mp.pi**2)
            kernel.append({"z": [z.real, z.imag], "w": [w.real, w.imag],
                           "re": float(k.real), "im": float(k.imag)})
    out["kernel"] = kernel
    return out


def main() -> None:
    mp.mp.dps = DPS
    start = time.perf_counter()
    specs = {}
    for path in sorted((HERE / "specs").glob("*.json")):
        t0 = time.perf_counter()
        specs[path.stem] = spec_refs(json.loads(path.read_text()))
        print(f"{path.stem}: {time.perf_counter() - t0:.1f} s", flush=True)
    elapsed = time.perf_counter() - start
    payload = {
        "meta": {
            "generator": "bench/make_refs.py",
            "mpmath": mp.__version__,
            "dps": DPS,
            "seconds": round(elapsed, 1),
        },
        "specs": specs,
    }
    (HERE / "refs.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote refs.json in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
