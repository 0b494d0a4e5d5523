"""Moore-Penrose pseudoinverse and principal component regression."""
from __future__ import annotations

import numpy as np

from .. import _chebops as cheb
from ..approx import LIB_MAX_DEGREE, approx_inverse, approx_rect
from ..blockenc import ProjectedUnitary, operator_norm
from ..errors import SpectrumBelowDelta
from ..poly import ChebSeries
from ..svt import svt_apply
from .project import threshold_projectors_exact


def pseudoinverse(pu: ProjectedUnitary, delta: float, eps: float,
                  threshold_mode: float = None,
                  max_degree: int = LIB_MAX_DEGREE):
    """Encode (delta/2) A^+ within eps (plain), or the threshold variant
    Pi_{>=sigma} (sigma/2) A^+ Pi~_{>=sigma} when ``threshold_mode`` is a
    cutoff sigma; the transition band [sigma-delta, sigma+delta] carries
    no accuracy claim.  A polynomial above ``max_degree`` raises
    DegreeOverflow; a delta outside (0, 1] raises ValueError.
    """
    if not 0 < delta <= 1:
        raise ValueError("need delta in (0, 1]")
    if threshold_mode is None:
        sigma = np.linalg.svd(pu.block())[1]
        nonzero = sigma[sigma > 1e-11]
        if len(nonzero) and nonzero.min() < delta - 1e-12:
            raise SpectrumBelowDelta(
                f"nonzero singular value {nonzero.min():.4g} below delta")
        inv = approx_inverse(1.0 / delta, min(eps, 0.4), bounded=True,
                             max_degree=max_degree)
        coeffs = inv.cheb.cheb_coeffs.real
        scale = delta / 2.0
    else:
        sigma = float(threshold_mode)
        inv = approx_inverse(1.0 / sigma, min(eps / 2.0, 0.4), bounded=True,
                             max_degree=max_degree)
        # multiply by a high-pass complement whose plateau sits inside the
        # transition band; both factors, and so the product, peak at most
        # 1 - b/4 for their budget b
        rect = approx_rect(sigma, delta, min(eps / 2.0, 0.4), max_degree)
        high = cheb.add(np.array([1.0]), -rect.cheb.cheb_coeffs.real)
        coeffs = cheb.trim(cheb.mul(inv.cheb.cheb_coeffs.real, high), 1e-15)
        scale = sigma / 2.0
    p_re = ChebSeries(coeffs, "odd")
    outcome = svt_apply(pu.dagger(), p_re, kind="real_poly",
                        delta=max(eps, 1e-7))
    pinv_exact = np.linalg.pinv(pu.encoded(), rcond=1e-10)
    if threshold_mode is None:
        target = scale * pinv_exact
        measured = operator_norm(outcome.result - target)
    else:
        # no accuracy claim inside the transition band: compare both sides
        # with the band projected out
        sigma = float(threshold_mode)
        right, left = threshold_projectors_exact(pu, (sigma, 2.0))
        r_band, l_band = threshold_projectors_exact(
            pu, (sigma - delta, sigma + delta))
        keep_r = pu.pi.matrix() - r_band
        keep_l = pu.pi_tilde.matrix() - l_band
        target = keep_r @ right @ (scale * pinv_exact) @ left @ keep_l
        measured = operator_norm(keep_r @ outcome.result @ keep_l - target)
    report = {"measured": measured, "claimed": eps, "scale": scale,
              "degree": len(outcome.phases.phis)}
    return outcome, report


def pcr_solve(pu: ProjectedUnitary, b_vec, sigma: float, delta: float,
              eps: float):
    """Principal component regression: x = A^+ Pi~_{>=sigma} b via the
    threshold pseudoinverse, with the residual checked against the
    normal-equations least squares on the projected operator."""
    outcome, rep = pseudoinverse(pu, delta, eps, threshold_mode=sigma)
    b_vec = np.asarray(b_vec, complex)
    scale = rep["scale"]
    x_hat = (outcome.result @ b_vec) / scale
    right, left = threshold_projectors_exact(pu, (sigma, 2.0))
    a_full = pu.encoded()
    a_proj = left @ a_full @ right
    # direct least squares oracle
    x_star, *_ = np.linalg.lstsq(a_proj, b_vec, rcond=1e-10)
    resid_hat = np.linalg.norm(a_proj @ x_hat - b_vec)
    resid_star = np.linalg.norm(a_proj @ x_star - b_vec)
    rep = dict(rep)
    rep.update({
        "x_hat": x_hat,
        "x_star": x_star,
        "residual": float(resid_hat),
        "residual_optimal": float(resid_star),
        "residual_gap": float(resid_hat - resid_star),
    })
    return x_hat, rep
