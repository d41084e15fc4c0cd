"""Reference values computed without fracquat.

Two oracles live here:

* a float evaluator for the expression DSL over truncated multivariate
  Taylor series ("jets"), plus the classical gradient, divergence and curl
  written from the Lame coefficients of each frame.  At alpha = 1 the
  derivation mode of fracquat is ordinary calculus, so these give the
  expected value of every `diff` and `apply` output;
* E_alpha, sin_alpha and cos_alpha from cmath (alpha = 1), from the erfc
  closed form E_1/2(z) = exp(z^2) erfc(-z) in mpmath (alpha = 1/2) and
  from a high-precision mpmath series otherwise, never through
  fracquat.series.
"""

from __future__ import annotations

import cmath
import math
import re

NVARS = 3


# -- jets -------------------------------------------------------------------


def _layout(order):
    idx = [(0, 0, 0)]
    for deg in range(1, order + 1):
        for i in range(deg, -1, -1):
            for j in range(deg - i, -1, -1):
                idx.append((i, j, deg - i - j))
    pos = {m: k for k, m in enumerate(idx)}
    table = []
    for a, ma in enumerate(idx):
        for b, mb in enumerate(idx):
            mc = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            if mc in pos:
                table.append((a, b, pos[mc]))
    return idx, pos, table


_LAYOUTS = [_layout(k) for k in range(3)]


class Jet:
    """Taylor coefficients of a function of the three frame variables,
    truncated at total degree `order`; coefficients are ordered by degree,
    so truncating to a lower order keeps a prefix."""

    __slots__ = ("order", "c")

    def __init__(self, order, c):
        self.order = order
        self.c = c

    @staticmethod
    def const(order, value):
        c = [0j] * len(_LAYOUTS[order][0])
        c[0] = complex(value)
        return Jet(order, c)

    @staticmethod
    def variable(order, i, value):
        out = Jet.const(order, value)
        if order:
            unit = [0, 0, 0]
            unit[i] = 1
            out.c[_LAYOUTS[order][1][tuple(unit)]] = 1 + 0j
        return out

    @property
    def value(self):
        return self.c[0]

    def _pair(self, other):
        if not isinstance(other, Jet):
            return None
        k = min(self.order, other.order)
        n = len(_LAYOUTS[k][0])
        return k, self.c[:n], other.c[:n]

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            c = list(self.c)
            c[0] += other
            return Jet(self.order, c)
        k, a, b = pair
        return Jet(k, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, [-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return Jet(self.order, [x * other for x in self.c])
        k, a, b = pair
        out = [0j] * len(a)
        for i, j, m in _LAYOUTS[k][2]:
            out[m] += a[i] * b[j]
        return Jet(k, out)

    __rmul__ = __mul__

    def compose(self, derivs):
        """g(self) from g and its derivatives at the constant term."""
        delta = Jet(self.order, [0j] + self.c[1:])
        out = Jet.const(self.order, derivs[0])
        power = Jet.const(self.order, 1)
        fact = 1
        for m in range(1, self.order + 1):
            power = power * delta
            fact *= m
            out = out + power * (derivs[m] / fact)
        return out

    def reciprocal(self):
        x = self.c[0]
        return self.compose([(-1) ** m * math.factorial(m) / x ** (m + 1) for m in range(3)])

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet.const(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sin(self):
        s, c = cmath.sin(self.c[0]), cmath.cos(self.c[0])
        return self.compose([s, c, -s])

    def cos(self):
        s, c = cmath.sin(self.c[0]), cmath.cos(self.c[0])
        return self.compose([c, -s, -c])

    def exp(self):
        e = cmath.exp(self.c[0])
        return self.compose([e, e, e])

    def d(self, i):
        """Partial derivative along variable i, one order lower."""
        if self.order == 0:
            raise ValueError("a degree-0 jet has no derivative")
        _, pos, _ = _LAYOUTS[self.order]
        low = _LAYOUTS[self.order - 1][0]
        out = []
        for m in low:
            up = list(m)
            up[i] += 1
            out.append(self.c[pos[tuple(up)]] * up[i])
        return Jet(self.order - 1, out)


def _sin(x):
    return x.sin() if isinstance(x, Jet) else cmath.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Jet) else cmath.cos(x)


def _exp(x):
    return x.exp() if isinstance(x, Jet) else cmath.exp(x)


def _const(x):
    return x.value if isinstance(x, Jet) else x


# -- DSL evaluator ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)(i?)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _tokens(text):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize at {pos}")
        num, imag, ident, sym = m.groups()
        if num is not None:
            out.append(("num", complex(0, float(num)) if imag else complex(float(num))))
        elif ident is not None:
            out.append(("id", ident))
        else:
            out.append((sym, sym))
        pos = m.end()
    out.append(("end", None))
    return out


class Semantics:
    """How generators evaluate.  At alpha = 1 they are ordinary functions
    of the frame variables (jets when order > 0); otherwise P, sina, cosa
    and Ea are evaluated at u = v^alpha through the reference functions."""

    def __init__(self, variables, point, lam, comp_coeffs=None, order=0, alpha=1.0):
        self.variables = tuple(variables)
        self.point = point
        self.lam = complex(lam)
        self.order = order
        self.alpha = alpha
        self.vars = {}
        for i, v in enumerate(self.variables):
            if order:
                self.vars[v] = Jet.variable(order, i, point[v])
            else:
                self.vars[v] = complex(point[v])
        self.comp_coeffs = comp_coeffs or {}
        self.comps = {}
        for k, coeffs in self.comp_coeffs.items():
            lin = sum(a * self.vars[v] for a, v in zip(coeffs, self.variables))
            self.comps[k] = _exp(lin)

    def power(self, v, n):
        if self.alpha == 1.0:
            return self.vars[v] ** n
        return complex(self.point[v] ** self.alpha) ** n

    def trig(self, v, kind):
        if self.alpha == 1.0:
            return _sin(self.vars[v]) if kind == "sin" else _cos(self.vars[v])
        u = self.point[v] ** self.alpha
        return special("sina" if kind == "sin" else "cosa", self.alpha, complex(u))

    def ea(self, scale, v):
        if self.alpha == 1.0:
            return _exp(scale * self.vars[v])
        return special("Ea", self.alpha, scale * self.point[v] ** self.alpha)

    def component(self, k, midx):
        value = self.comps[k]
        for v in midx:
            value = value * self.comp_coeffs[k][self.variables.index(v)]
        return value


class _Eval:
    def __init__(self, text, sem):
        self.toks = _tokens(text)
        self.i = 0
        self.sem = sem

    def peek(self):
        return self.toks[self.i][0]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind!r}, found {tok[1]!r}")
        self.i += 1
        return tok[1]

    def expr(self, top=False):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        value = self.term() * sign
        abs_sum = abs(_const(value))
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            abs_sum += abs(_const(t))
            value = value + t if op == "+" else value - t
        return (value, abs_sum) if top else value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            value = value ** self.integer()
        return value

    def integer(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return sign * int(self.take("num").real)

    def atom(self):
        kind = self.peek()
        if kind == "num":
            return self.take()
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        name = self.take("id")
        sem = self.sem
        if name == "lam":
            return sem.lam
        if name in ("f0", "f1", "f2", "f3"):
            return sem.component(int(name[1]), ())
        self.take("(")
        if name == "P":
            v = self.take("id")
            self.take(",")
            n = self.integer()
            out = sem.power(v, n)
        elif name in ("sina", "cosa"):
            out = sem.trig(self.take("id"), name[:3])
        elif name == "Ea":
            scale = _const(self.expr())
            self.take(",")
            out = sem.ea(scale, self.take("id"))
        elif name == "d":
            k = int(self.take("id")[1])
            midx = []
            while self.peek() == ",":
                self.take()
                midx.append(self.take("id"))
            out = sem.component(k, midx)
        else:
            raise ValueError(f"unknown identifier {name!r}")
        self.take(")")
        return out


def evaluate(text, sem):
    """(value, sum of |top-level term|) of DSL text under a semantics."""
    ev = _Eval(text, sem)
    value, abs_sum = ev.expr(top=True)
    ev.take("end")
    if not isinstance(value, Jet) and sem.order:
        value = Jet.const(sem.order, value)
    return value, abs_sum


# -- classical frame operators at alpha = 1 ------------------------------------


def lame(frame, sem):
    """Lame coefficients (h1, h2, h3) of the frame as jets."""
    one = Jet.const(sem.order, 1)
    if frame == "cartesian":
        return one, one, one
    r = sem.vars["r"]
    if frame == "cylindrical":
        return one, r, one
    return one, r, r * _sin(sem.vars["theta"])


def grad(f, h):
    return [f.d(i) / h[i] for i in range(NVARS)]


def div(v, h):
    big = h[0] * h[1] * h[2]
    return sum((big / h[i] * v[i]).d(i) for i in range(NVARS)) / big


def curl(v, h):
    out = []
    for i in range(NVARS):
        j, k = (i + 1) % NVARS, (i + 2) % NVARS
        out.append(((h[k] * v[k]).d(j) - (h[j] * v[j]).d(k)) / (h[j] * h[k]))
    return out


def apply_operator(operator, frame, comps, sem):
    """Classical value of `operator` on the field (f0, f1, f2, f3)."""
    h = lame(frame, sem)
    f0, vec = comps[0], comps[1:]
    if operator in ("mt", "mt-right"):
        g, c = grad(f0, h), curl(vec, h)
        s = 1 if operator == "mt" else -1
        out = [-div(vec, h)] + [g[i] + s * c[i] for i in range(NVARS)]
    else:
        gd, cc = grad(div(vec, h), h), curl(curl(vec, h), h)
        s = 1 if operator == "bitsadze" else -1
        out = [div(grad(f0, h), h)] + [gd[i] + s * cc[i] for i in range(NVARS)]
        if operator == "helmholtz":
            lam2 = sem.lam * sem.lam
            out = [o + lam2 * f for o, f in zip(out, comps)]
    return [_const(o) for o in out]


# -- special functions ------------------------------------------------------------

_POWERS = {
    "Ea": (lambda k: k, lambda k: 1),
    "sina": (lambda k: 2 * k + 1, lambda k: (-1) ** k),
    "cosa": (lambda k: 2 * k, lambda k: (-1) ** k),
}


def _series(kind, alpha, u):
    import mpmath as mp

    power, sign = _POWERS[kind]
    au = abs(u)
    if au == 0:
        return complex(sign(0)) if power(0) == 0 else 0j
    peak, k = 0.0, 0
    while True:
        p = power(k)
        log_term = p * math.log(au) - math.lgamma(1 + p * alpha)
        peak = max(peak, log_term)
        if p * alpha > 2 * au + 10 and log_term < peak - 90:
            break
        k += 1
    dps = int(35 + peak / math.log(10))
    with mp.workdps(dps):
        z = mp.mpc(u.real, u.imag)
        a = mp.mpf(alpha)
        stop = mp.mpf(10) ** (-dps + 5)
        total = mp.mpc(0)
        k = 0
        while True:
            p = power(k)
            term = sign(k) * z**p * mp.rgamma(1 + p * a)
            total += term
            if p * alpha > 2 * au + 10 and abs(term) < stop:
                return complex(total)
            k += 1


def special(kind, alpha, u):
    """Reference value of E_alpha, sin_alpha or cos_alpha at u."""
    u = complex(u)
    if alpha == 1.0:
        return {"Ea": cmath.exp, "sina": cmath.sin, "cosa": cmath.cos}[kind](u)
    if alpha == 0.5:
        import mpmath as mp

        with mp.workdps(40):
            z = mp.mpc(u.real, u.imag)

            def e_half(w):
                return mp.exp(w * w) * mp.erfc(-w)

            if kind == "Ea":
                return complex(e_half(z))
            plus, minus = e_half(1j * z), e_half(-1j * z)
            if kind == "sina":
                return complex((plus - minus) / 2j)
            return complex((plus + minus) / 2)
    return _series(kind, alpha, u)
