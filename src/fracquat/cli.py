"""Command line front end.

Subcommands: apply (operators on a field spec), verify (identity suite),
diff (symbolic derivative of a DSL expression), eval (numeric evaluation
of a field spec at a point), series (fractal special functions).

Exit codes: 0 success, 1 verification or convergence failure or a closed
stdout, 2 usage, parse or validation error.  Structured output is one JSON
document per line; text output is plain ASCII rendering of canonical forms.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from .canonical import CanonicalExpr, eval_canonical, render_canonical, substitute_lam
from .derivative import DerivativeMode, differentiate
from .expr import COMPONENT_NAMES, ExpressionError
from .frames import FRAMES, QuaternionField, frame_by_name
from .parser import parse
from .quatops import (
    FORMAL,
    IDENTITY_NAMES,
    bitsadze,
    helmholtz_residual,
    laplacian,
    mt_apply,
    verify_all,
)
from .series import SeriesConvergenceError, evaluate_series, validate_alpha

_OPERATORS = {
    "mt": lambda f, lam: mt_apply(f, "left"),
    "mt-right": lambda f, lam: mt_apply(f, "right"),
    "laplacian": lambda f, lam: laplacian(f),
    "bitsadze": lambda f, lam: bitsadze(f),
    "helmholtz": lambda f, lam: helmholtz_residual(f, lam),
}

# numeric options: argparse reads a following "-1+2i", "-1e-3", "-inf" or
# "-2i" as an option name unless it is attached as "--u=-1+2i"
_NUMBER_OPTIONS = ("--alpha", "--u", "--lam", "--tol")


class SpecError(ValueError):
    """Field spec document failed validation."""


# the types json.load returns, as a message names them
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "a number", float: "a number",
    bool: "a boolean", type(None): "null",
}


def _naming(where: str, compute):
    """compute(), an expression or series error ending in " in " + where."""
    try:
        return compute()
    except (ExpressionError, SeriesConvergenceError) as exc:
        exc.args = (f"{exc} in {where}",)
        raise


def _spec_value(raw, name: str, frame) -> CanonicalExpr:
    """A spec value: a finite JSON number, read exactly (the constructor's
    as_crat takes a float's shortest repr), or DSL text in frame's variables."""
    if type(raw) is float and not cmath.isfinite(raw):  # an int past 1e308 is finite
        raise SpecError(f"{name!r} must be finite, not {raw}")
    if type(raw) is int or type(raw) is float:
        return CanonicalExpr.const(raw)
    if type(raw) is not str:
        raise SpecError(f"{name!r} must be a string or a number, not {_JSON_TYPES[type(raw)]}")
    return parse(raw, frame)


def _parse_lambda(raw):
    """The spec's "lambda" or --lam: "formal" or null, or a constant spec value."""
    if raw is None or raw == FORMAL:
        return FORMAL
    ce = _spec_value(raw, "lambda", ())
    if not all(m.is_one() for m in ce.terms):
        raise SpecError(f"lambda must be a complex constant or 'formal', got {raw!r}")
    return ce.constant_coefficient()


def load_field_spec(path: str, lam=None):
    """Read a field spec document: {"alpha": ..., "frame": ...,
    "components": {"f0": ..., ...}, "lambda": ...}.  Missing components
    default to "0".  A numeric lambda, or lam where given (it overrides the
    spec's, as --lam does), is put in for every lam in the components.  An
    expression error names the component, 'lambda' or --lam that it is in.
    Returns (alpha, QuaternionField, lambda)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SpecError("field spec nests too deeply") from None
    if not isinstance(doc, dict):
        raise SpecError("field spec must be a JSON object")
    for key in ("alpha", "frame"):
        if key not in doc:
            raise SpecError(f"field spec is missing the {key!r} key")
    alpha, frame = doc["alpha"], doc["frame"]
    if type(alpha) is not int and type(alpha) is not float:
        raise SpecError(f"'alpha' must be a number, not {_JSON_TYPES[type(alpha)]}")
    if type(frame) is not str:
        raise SpecError(f"'frame' must be a string, not {_JSON_TYPES[type(frame)]}")
    alpha = validate_alpha(alpha)
    frame = frame_by_name(frame)
    components = doc.get("components", {})
    if not isinstance(components, dict):
        raise SpecError("'components' must be an object with keys f0..f3")
    unknown = set(components) - set(COMPONENT_NAMES)
    if unknown:
        raise SpecError(f"unknown component keys {sorted(unknown)}; expected f0..f3")
    parsed = {k: _naming(f"component {k}", lambda: _spec_value(components.get(k, "0"), k, frame))
              for k in COMPONENT_NAMES}
    raw, where = (doc.get("lambda"), "'lambda'") if lam is None else (lam, "--lam")
    lam = _naming(where, lambda: _parse_lambda(raw))
    if lam != FORMAL:
        parsed = {k: _naming(f"component {k}", lambda: substitute_lam(c, lam))
                  for k, c in parsed.items()}
    return alpha, QuaternionField(frame, *parsed.values()), lam


def _parse_point(raw: str, frame) -> dict:
    point = {}
    for item in raw.split(","):
        if "=" not in item:
            raise SpecError(f"bad point entry {item!r}; expected var=value")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in frame.variables:
            raise SpecError(f"variable {name!r} is not in frame {frame.name}")
        if name in point:
            raise SpecError(f"variable {name!r} is given twice in the point")
        try:
            point[name] = float(value)
        except ValueError:
            raise SpecError(f"point entry {item.strip()!r}: {name!r} needs a number") from None
        if not cmath.isfinite(point[name]):
            raise SpecError(f"point value {item.strip()!r} is not finite")
    return point


def _parse_complex(raw: str) -> complex:
    raw = raw.strip()
    for candidate in (raw, raw.replace("i", "j")):
        try:
            value = complex(candidate)
        except ValueError:
            continue
        if cmath.isfinite(value):
            return value
        raise SpecError(f"complex number {raw!r} is not finite")
    raise SpecError(f"cannot parse complex number {raw!r}")


def _emit(args, doc: dict, text: str):
    """One JSON document with --format structured, else the text."""
    print(json.dumps(doc) if args.format == "structured" else text)


def _emit_field(out: QuaternionField, args, extra: dict):
    rendered = {key: render_canonical(c) for key, c in zip(COMPONENT_NAMES, out.components)}
    text = "\n".join(f"{key} = {c}" for key, c in rendered.items())
    _emit(args, {**extra, "frame": out.frame.name, "components": rendered}, text)


def cmd_apply(args) -> int:
    alpha, f, lam = load_field_spec(args.spec)
    out = _OPERATORS[args.operator](f, lam)
    _emit_field(out, args, {"operator": args.operator, "alpha": alpha})
    return 0


def cmd_verify(args) -> int:
    names = None if args.identity == "all" else (args.identity,)
    frames = None if args.frame == "all" else (args.frame,)
    all_pass = True
    for report in verify_all(names, frames):
        all_pass = all_pass and report.passed
        if args.format == "structured":
            line = json.dumps(report.to_dict())
        else:
            status = "PASS" if report.passed else "FAIL"
            line = f"{status} {report.identity} {report.frame} (mode={report.mode.value})"
            if not report.passed:
                line += " residuals: " + "; ".join(report.residual_strings())
        print(line, flush=True)  # each report as soon as it is computed, also into a pipe
    return 0 if all_pass else 1


def cmd_diff(args) -> int:
    frame = frame_by_name(args.frame)
    if args.var not in frame.variables:
        raise SpecError(f"variable {args.var!r} is not in frame {frame.name}")
    out = differentiate(parse(args.expr, frame), args.var, DerivativeMode(args.mode))
    rendered = render_canonical(out)
    doc = {"input": args.expr, "var": args.var, "mode": args.mode, "derivative": rendered}
    _emit(args, doc, rendered)
    return 0


def cmd_eval(args) -> int:
    alpha, f, _ = load_field_spec(args.spec, args.lam)
    if args.alpha is not None:
        alpha = validate_alpha(args.alpha)
    point = _parse_point(args.at, f.frame)
    values = {k: _naming(f"component {k}", lambda: eval_canonical(c, alpha, point, tol=args.tol))
              for k, c in zip(COMPONENT_NAMES, f.components)}
    components = {key: {"re": v.real, "im": v.imag} for key, v in values.items()}
    doc = {"frame": f.frame.name, "alpha": alpha, "point": point, "components": components}
    _emit(args, doc, "\n".join(f"{key} = {v}" for key, v in values.items()))
    return 0


def cmd_series(args) -> int:
    u = _parse_complex(args.u)
    value, terms = evaluate_series(args.function, args.alpha, u, args.tol)
    doc = {
        "function": args.function,
        "alpha": args.alpha,
        "u": {"re": u.real, "im": u.imag},
        "value": {"re": value.real, "im": value.imag},
        "terms": terms,
    }
    shown = value.real if value.imag == 0 else value
    _emit(args, doc, f"{args.function}(alpha={args.alpha}, u={args.u}) = {shown} ({terms} terms)")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line on stderr, like every other error."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fracquat",
        description="local fractional vector calculus over complex quaternions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="text rendering or one JSON document per line",
        )

    p = sub.add_parser("apply", help="apply an operator to a field spec file")
    p.add_argument("spec", help="path to a JSON field spec document")
    p.add_argument(
        "--operator", "-o", required=True, choices=sorted(_OPERATORS),
        help="operator to apply",
    )
    add_format(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="verify operator identities symbolically")
    p.add_argument(
        "identity", nargs="?", default="all", choices=IDENTITY_NAMES + ("all",),
        help="identity name or 'all'",
    )
    p.add_argument(
        "--frame", default="all", choices=tuple(FRAMES) + ("all",),
        help="frame name or 'all' (the documented verification matrix)",
    )
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diff", help="symbolic local fractional derivative")
    p.add_argument("expr", help="DSL expression")
    p.add_argument("--var", required=True, help="differentiation variable")
    p.add_argument("--frame", required=True, choices=tuple(FRAMES))
    p.add_argument(
        "--mode", default="derivation", choices=("derivation", "gamma"),
        help="derivation rules or the Gamma-normalized index shift",
    )
    add_format(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("eval", help="evaluate a field spec numerically at a point")
    p.add_argument("spec", help="path to a JSON field spec document")
    p.add_argument("--at", required=True, help="point, e.g. r=2,theta=0.7,z=1")
    p.add_argument("--alpha", type=float, default=None, help="override the field file alpha")
    p.add_argument("--lam", default=None, help="lam's value as the spec's lambda, or formal")
    p.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("series", help="evaluate Ea, sina or cosa numerically")
    p.add_argument("function", choices=("Ea", "sina", "cosa"))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--u", required=True, help="complex argument, e.g. 1 or 0.5+2i")
    p.add_argument("--tol", type=float, default=1e-12)
    add_format(p)
    p.set_defaults(func=cmd_series)

    return parser


def _shield_values(argv) -> list:
    """Attach a value that starts with "-" to the numeric option before it, or
    to an abbreviation that argparse resolves ("--to -inf" -> "--to=-inf"), and
    move any other word that starts with one "-" and is not -h or -o, such as
    the expression "-sina(theta)", behind a "--" as a positional."""
    cut = argv.index("--") if "--" in argv else len(argv)
    out, moved = [], []
    for arg in argv[:cut]:
        prev = out[-1] if out else ""
        if arg[:1] == "-" and len(prev) > 2 and any(o.startswith(prev) for o in _NUMBER_OPTIONS):
            out[-1] += "=" + arg
        elif arg[:1] == "-" and arg[:2] not in ("--", "-h", "-o"):
            moved.append(arg)
        else:
            out.append(arg)
    return out + ["--", *moved, *argv[cut + 1 :]] if moved or cut < len(argv) else out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args, extra = parser.parse_known_args(_shield_values(argv))
    if extra:
        if "--" not in argv:  # then _shield_values put it there
            extra = [arg for arg in extra if arg != "--"]
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not in the flush at shutdown
        return code
    except BrokenPipeError:  # the reader closed stdout: `fracquat verify | head -1`
        # devnull takes what the flush at shutdown writes, so it prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended", file=sys.stderr)
        return 1
    except SeriesConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExpressionError, SpecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
