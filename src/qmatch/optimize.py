"""Derivative-free minimization for the low-dimensional fits.

A plain Nelder-Mead simplex: reflection 1, expansion 2, contraction 1/2,
shrink 1/2.  The parameter spaces here are one or two dimensional and the
objectives are smooth away from their -inf plateaus (infinite objective
values just lose every comparison), so nothing fancier is warranted.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["nelder_mead"]

_INITIAL_STEP = 0.5     # the first simplex: x0 plus this along each axis
_DIAMETER_TOL = 1e-8    # converged once each vertex is this close to the best
_MAX_ITER = 20_000


def nelder_mead(f, x0):
    """Minimize f from x0; returns (x_best, f_best).  The tolerance is
    fixed (simplex diameter 1e-8), and so is the iteration cap: a run
    still open after 20000 iterations raises rather than returning
    silently unconverged.

    f may return +inf (treated as worse than any finite value); it must
    never return NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("x0 must be a non-empty 1-D vector")
    n = x0.size

    def feval(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"objective returned NaN at {x}")
        return fx

    verts = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += _INITIAL_STEP
        verts.append(v)
    vals = [feval(v) for v in verts]

    def sort_simplex():
        order = np.argsort(vals, kind="stable")
        return [verts[i] for i in order], [vals[i] for i in order]

    verts, vals = sort_simplex()

    for _ in range(_MAX_ITER):
        diameter = max(float(np.max(np.abs(v - verts[0]))) for v in verts[1:])
        if diameter < _DIAMETER_TOL:
            return verts[0], vals[0]

        centroid = np.mean(verts[:-1], axis=0)
        worst = verts[-1]
        reflected = centroid + (centroid - worst)
        f_r = feval(reflected)

        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = feval(expanded)
            if f_e < f_r:
                verts[-1], vals[-1] = expanded, f_e
            else:
                verts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            verts[-1], vals[-1] = reflected, f_r
        else:
            if f_r < vals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = feval(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid + 0.5 * (worst - centroid)
                f_c = feval(contracted)
                accept = f_c < vals[-1]
            if accept:
                verts[-1], vals[-1] = contracted, f_c
            else:
                best = verts[0]
                for i in range(1, n + 1):
                    verts[i] = best + 0.5 * (verts[i] - best)
                    vals[i] = feval(verts[i])
        verts, vals = sort_simplex()

    raise RuntimeError(
        f"simplex failed to shrink below {_DIAMETER_TOL} in {_MAX_ITER} "
        f"iterations (best value {vals[0]})"
    )
