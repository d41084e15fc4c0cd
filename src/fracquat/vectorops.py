"""Local fractional gradient, divergence and curl in any frame.

One generic formula per operator, driven by the frame's Lame
coefficients h_i (H = h_1 h_2 h_3, (i, j, k) cyclic):

    grad_i = D_i f / h_i
    div    = sum_i D_i(H/h_i v_i) / H
    curl_i = (D_j(h_k v_k) - D_k(h_j v_j)) / (h_j h_k)

expanded by the product rule into derivative terms scaled by 1/h and
undifferentiated terms scaled by the connection coefficients the frame
derives once.  The second-order operators in `quatops` stay hand
transcribed, so the identity checks compare two independent sources.
"""

from __future__ import annotations

from .canonical import CanonicalExpr, as_canonical_scalar
from .derivative import d_alpha
from .frames import Frame, QuaternionField, vector_field

_CYCLIC = ((1, 2), (2, 0), (0, 1))  # (j, k) for curl component i = 0, 1, 2


def grad_alpha(f0, frame: Frame) -> QuaternionField:
    """Gradient of a scalar, as a pure vector field."""
    f0 = as_canonical_scalar(f0)
    return vector_field(
        frame, *(ih * d_alpha(f0, v) for v, ih in zip(frame.variables, frame.inv_lame))
    )


def div_alpha(v: QuaternionField) -> CanonicalExpr:
    """Divergence of the vector part."""
    frame = v.frame
    out = CanonicalExpr.zero()
    for var, ih, conn, vi in zip(
        frame.variables, frame.inv_lame, frame.div_connection, v.vector_components
    ):
        out = out + ih * d_alpha(vi, var) + conn * vi
    return out


def curl_alpha(v: QuaternionField) -> QuaternionField:
    """Curl of the vector part, as a pure vector field."""
    frame, comps = v.frame, v.vector_components

    def part(j, k):  # D_j(h_k v_k) / (h_j h_k)
        d = d_alpha(comps[k], frame.variables[j])
        return frame.inv_lame[j] * d + frame.curl_connection[j][k] * comps[k]

    return vector_field(frame, *(part(j, k) - part(k, j) for j, k in _CYCLIC))
