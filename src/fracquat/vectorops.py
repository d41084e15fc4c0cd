"""Local fractional gradient, divergence and curl in any frame: each is one
call to the kernel `frames.apply_table` with the table its frame derived
from its Lame coefficients (see `frames.Frame`).
"""

from __future__ import annotations

from .canonical import CanonicalExpr
from .frames import Frame, QuaternionField, apply_table, vector_field


def grad_alpha(f0, frame: Frame) -> QuaternionField:
    """Gradient of a scalar, as a pure vector field."""
    return vector_field(frame, *apply_table(frame.rows["grad"], (f0,)))


def div_alpha(v: QuaternionField) -> CanonicalExpr:
    """Divergence of the vector part."""
    return apply_table(v.frame.rows["div"], v.components)[0]


def curl_alpha(v: QuaternionField) -> QuaternionField:
    """Curl of the vector part, as a pure vector field."""
    return vector_field(v.frame, *apply_table(v.frame.rows["curl"], v.components))
