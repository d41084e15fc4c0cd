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

from .canonical import CanonicalExpr, _add_products, as_canonical_scalar
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
    frame, acc = v.frame, {}
    for var, ih, conn, vi in zip(
        frame.variables, frame.inv_lame, frame.div_connection, v.vector_components
    ):
        vi = as_canonical_scalar(vi)
        _add_products(acc, ih.terms, d_alpha(vi, var).terms)
        _add_products(acc, conn.terms, vi.terms)
    return CanonicalExpr._of(acc)


def curl_alpha(v: QuaternionField) -> QuaternionField:
    """Curl of the vector part, as a pure vector field."""
    frame, comps = v.frame, tuple(map(as_canonical_scalar, v.vector_components))

    def component(j, k):  # (D_j(h_k v_k) - D_k(h_j v_j)) / (h_j h_k)
        acc = {}
        for a, b, sign in ((j, k, 1), (k, j, -1)):
            ih, conn = sign * frame.inv_lame[a], sign * frame.curl_connection[a][b]
            _add_products(acc, ih.terms, d_alpha(comps[b], frame.variables[a]).terms)
            _add_products(acc, conn.terms, comps[b].terms)
        return CanonicalExpr._of(acc)

    return vector_field(frame, *(component(j, k) for j, k in _CYCLIC))
