"""Solve-per-kink LARS-lasso homotopy: the reference that
dpls_iv.linear._lasso_path, which works from one Cholesky factor a kink, is
checked against bit for bit. It lives here because the package needs one
path algorithm and only the tests need a second.

Each kink solves G_AA [X | v | u] = [G_A' | c_A | s_A] with
scipy.linalg.solve, and the span test reads the Schur-complement residual
of every column off X. A 1 x 1 system is divided out, which is what
scipy.linalg.solve itself does from scipy 1.17 on; older releases factor it,
which rounds differently.
"""
import numpy as np
from scipy import linalg

from dpls_iv.linear import _SPAN_RTOL, _lasso_moments


def lasso_path_by_solves(xc, yc, lams, moments=None):
    """The (d, len(lams)) exact lasso coefficients over a descending grid."""
    gram, cross = _lasso_moments(xc, yc) if moments is None else moments
    d = len(cross)
    gdiag = np.diag(gram)
    lams = np.asarray(lams, dtype=np.float64)
    coefs = np.zeros((d, len(lams)))
    active, signs = [], []
    lam, filled, changed, side = np.inf, 0, -1, 0.0
    while filled < len(lams):
        if active:
            rhs = np.column_stack([gram[active], cross[active], signs])
            gaa = gram[np.ix_(active, active)]
            sol = rhs / gaa if len(active) == 1 else linalg.solve(gaa, rhs, assume_a="pos")
            v, u = sol[:, d], sol[:, d + 1]
            resid = cross - gram[:, active] @ v
            slope = gram[:, active] @ u
            spanned = gdiag - np.einsum("ij,ij->j", gram[active], sol[:, :d])
            free = spanned > _SPAN_RTOL * gdiag
            free[active] = False
        else:
            v = u = np.zeros(0)
            resid, slope, free = cross, np.zeros(d), gdiag > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(free & (1.0 - slope > 0.0), resid / (1.0 - slope), -np.inf)
            down = np.where(free & (1.0 + slope > 0.0), -resid / (1.0 + slope), -np.inf)
            shrinking = np.asarray(signs) * u < 0.0
            drops = np.where(shrinking, v / u, -np.inf)
        if changed in active:
            drops[active.index(changed)] = -np.inf
        elif changed >= 0:
            (up if side > 0.0 else down)[changed] = -np.inf
        joins = np.maximum(up, down)
        j_join = int(np.argmax(joins))
        drop_lam = drops.max(initial=-np.inf)
        nxt = max(joins[j_join], drop_lam)
        nxt = min(nxt, lam) if nxt > 0.0 else 0.0
        while filled < len(lams) and lams[filled] >= nxt:
            coefs[active, filled] = v - lams[filled] * u
            filled += 1
        if nxt == 0.0:
            break
        if drop_lam >= joins[j_join]:
            k = int(np.argmax(drops))
            changed, side = active.pop(k), signs.pop(k)
        else:
            changed = j_join
            active.append(j_join)
            signs.append(1.0 if up[j_join] >= down[j_join] else -1.0)
        lam = nxt
    return coefs
