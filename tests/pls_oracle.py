"""Deflation PLS: the independent reference that the closed-form Krylov fit
(dpls_iv.fit_pls_closed_form) is checked against. It lives here because the
package needs one PLS algorithm and only the tests need a second."""
import numpy as np

from dpls_iv import DataError, PlsFit


def fit_pls_deflation(zbar, p, q: int) -> PlsFit:
    """SIMPLS-style fit: deflate the cross-product vector only.

    The first direction is the dominant singular pair of the centered
    cross-product (for a scalar policy, the normalized cross-product vector
    itself). If the cross-product vanishes before q components are found,
    the fit stops and reports the achieved q.
    """
    zbar = np.asarray(zbar, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    d = zbar.shape[1]
    if not (1 <= q <= d):
        raise DataError(f"q must lie in [1, {d}]")
    means = zbar.mean(axis=0)
    p_mean = float(p.mean())
    zc = zbar - means
    pc = p - p_mean
    s = zc.T @ pc
    s0 = float(np.linalg.norm(s))
    if s0 == 0.0:
        raise DataError(
            "s_zp is the zero vector: no instrument-policy covariance"
        )
    ws, y_loads = [], []
    loading_basis = []
    for _ in range(q):
        if float(np.linalg.norm(s)) <= 1e-12 * s0:
            break
        w = s / np.linalg.norm(s)
        t = zc @ w
        tn = float(np.linalg.norm(t))
        if tn <= 1e-12:
            break
        t = t / tn
        v = zc.T @ t
        q_a = float(pc @ t)
        ws.append(w)
        y_loads.append(q_a / tn)
        vb = v.copy()
        for _ in range(2):  # Gram-Schmidt, twice
            for b in loading_basis:
                vb -= (b @ vb) * b
        vbn = float(np.linalg.norm(vb))
        if vbn <= 1e-12 * float(np.linalg.norm(v)):
            break
        vb = vb / vbn
        loading_basis.append(vb)
        s = s - vb * (vb @ s)
    if not ws:
        raise DataError("no usable PLS component found")
    return PlsFit(y_loadings=np.asarray(y_loads), weights=np.column_stack(ws), means=means,
                  p_mean=p_mean)
