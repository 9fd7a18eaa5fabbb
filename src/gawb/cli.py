"""Command-line front end.

Exit codes: 0 on success, 1 on engine errors, 2 on usage errors.  The
verify-paper subcommand exits 0 even when discrepancies are documented; they
are findings, not failures.  Every flag has a GAWB_-prefixed environment
variable override.

--matrix, --presentation and --derivation take inline text or the name of a
file holding it; a value that is both an existing file and valid inline text
is rejected as ambiguous.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TypeVar

from . import __version__, cech, claims, groebner, p1bundles, surfaces
from .derivations import (
    Derivation,
    descends_to_quotient,
    exponential,
    is_slice,
    nilpotency_certificate,
)
from .parse import PolyParseError, parse_poly
from .poly import TermOrder, render_poly
from .quotient import AlgebraPresentation

ENV_PREFIX = "GAWB_"

T = TypeVar("T")


class UsageError(Exception):
    """Bad or ambiguous command-line input (exit 2)."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _env_default(name: str, fallback, cast=int):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"invalid {ENV_PREFIX}{name}={raw!r}") from None


def _read_source(flag: str, value: str, parse: Callable[[str], T]) -> T:
    """Parse the argument as inline text, or as the contents of the file it
    names when it does not parse inline."""
    path = Path(value)
    if not path.is_file():
        return parse(value)
    try:
        parse(value)
    except (ValueError, KeyError, TypeError):
        return parse(path.read_text())
    raise UsageError(
        f"{flag} {value!r} is ambiguous: it is valid inline text and also names the file "
        f"{path.resolve()}; pass that absolute path to read the file"
    )


def _add_global_flags(ap: argparse.ArgumentParser, suppress: bool):
    # the same flags are accepted before and after the subcommand; the
    # subcommand copies default to SUPPRESS so they never clobber the
    # values parsed at the top level
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--json", action="store_true",
                    default=d(bool(_env_default("JSON", 0))), help="emit JSON output")
    ap.add_argument("--seed", type=int, default=d(_env_default("SEED", 0)))
    ap.add_argument("--groebner-budget", type=_positive_int,
                    default=d(_env_default("GROEBNER_BUDGET", groebner.DEFAULT_SPAIR_BUDGET, _positive_int)))
    ap.add_argument("--nilpotency-bound", type=_positive_int,
                    default=d(_env_default("NILPOTENCY_BOUND", 64, _positive_int)))
    ap.add_argument("--power-bound", type=_positive_int,
                    default=d(_env_default("POWER_BOUND", 12, _positive_int)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gawb",
        allow_abbrev=False,
        description="exact symbolic workbench: group actions on hypersurface "
        "threefolds, two-chart cocycles, bundle splitting, divisor arithmetic",
        epilog="environment overrides: GAWB_SEED, GAWB_GROEBNER_BUDGET, "
        "GAWB_NILPOTENCY_BOUND, GAWB_POWER_BOUND, GAWB_JSON=1",
    )
    ap.add_argument("--version", action="version", version=f"gawb {__version__}")
    _add_global_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _add_global_flags(common, suppress=True)

    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], allow_abbrev=False, **kw))

    p = sub.add_parser("eval", help="parse and canonically render a polynomial")
    p.add_argument("expr")
    p.add_argument("--vars", help="comma-separated declared variables")

    p = sub.add_parser("cocycle", help="two-chart cocycle operations")
    p.add_argument("action", choices=["class", "normalize", "coboundary"])
    p.add_argument("expr")

    p = sub.add_parser("affine-cert", help="affineness certificate for X(m, n, p)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("p")

    p = sub.add_parser("lnd", help="derivation checks")
    p.add_argument("action", choices=["check", "exp", "slice"])
    p.add_argument("--presentation", required=True, help="file or inline text")
    p.add_argument("--derivation", required=True, help="file or inline text")
    p.add_argument("--element", help="candidate slice (for the slice action)")

    p = sub.add_parser("splitting", help="Birkhoff splitting type of a 2x2 matrix")
    p.add_argument("--matrix", required=True, help="JSON file or inline JSON")

    p = sub.add_parser("h0", help="h^0 of a twist of a rank-2 bundle")
    p.add_argument("--matrix", required=True)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("intersect", help="intersection number of divisor classes")
    p.add_argument("--surface", required=True, help="F<k> or Scroll(m,n)")
    p.add_argument("--d1", required=True, help="coefficients c1,c2")
    p.add_argument("--d2", required=True)

    p = sub.add_parser("classify", help="isomorphy classification")
    psub = p.add_subparsers(dest="mode", required=True)
    pm = psub.add_parser("mn")
    pm.add_argument("m", type=int)
    pm.add_argument("n", type=int)
    pm.add_argument("p", type=int)
    pm.add_argument("q", type=int)
    pf = psub.add_parser("fg")
    pf.add_argument("f")
    pf.add_argument("g")

    p = sub.add_parser("verify-paper", help="run the machine-checkable claims registry")
    p.add_argument("--only", action="append", help="restrict to claim id (repeatable)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock data (breaks byte-identical reports)")
    return ap


def _ints(flag: str, text: str, count: int) -> List[int]:
    """Exactly ``count`` comma-separated integers, or a usage error."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise UsageError(f"{flag} needs {count} comma-separated integers, got {text!r}")
    return values


def _parse_surface(text: str) -> surfaces.RuledSurface:
    t = text.strip()
    if t.upper().startswith("F") and t[1:].isdigit():
        make, params = surfaces.hirzebruch, [int(t[1:])]
    elif t.lower().startswith("scroll(") and t.endswith(")"):
        make, params = surfaces.scroll, _ints("--surface Scroll(m,n)", t[t.index("(") + 1:-1], 2)
    else:
        raise UsageError(f"unknown surface {text!r} (use F<k> or Scroll(m,n))")
    try:
        return make(*params)
    except ValueError as e:
        raise UsageError(f"--surface {text!r}: {e}") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_eval(args) -> int:
    variables = None
    if args.vars:
        variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    poly = parse_poly(args.expr, variables)
    order = TermOrder("degrevlex", variables) if variables else None
    text = render_poly(poly, order)
    _emit(args, {"result": text}, text)
    return 0


def _cmd_cocycle(args) -> int:
    g = cech.parse_cocycle(args.expr)
    if args.action == "class":
        cls = cech.class_of(g)
        if cls.is_trivial():
            human = "trivial class"
        else:
            human = "{" + ", ".join(
                f"({i},{j}): {c}" for (i, j), c in cls.coefficients
            ) + "}"
        _emit(args, cls.to_json(), human)
        return 0
    if args.action == "coboundary":
        ok, witness = cech.is_coboundary(g)
        payload = {"coboundary": ok}
        human = f"coboundary: {ok}"
        if witness:
            payload["witness"] = {
                "regular_on_x_chart": render_poly(witness[0]),
                "regular_on_y_chart": render_poly(witness[1]),
            }
            human += (
                f"; g = ({render_poly(witness[0])}) - ({render_poly(witness[1])})"
            )
        _emit(args, payload, human)
        return 0
    cls = cech.class_of(g)
    if cls.is_trivial():
        print("trivial class: no (m, n, p) normal form", file=sys.stderr)
        return 1
    nf = cech.normal_form_mnp(cls)
    payload = {"m": nf.m, "n": nf.n, "p": render_poly(nf.p)}
    _emit(args, payload, f"m={nf.m} n={nf.n} p={render_poly(nf.p)}")
    return 0


def _trace_json(cert: cech.AffinenessCertificate) -> List[dict]:
    out = []
    for s in cert.trace:
        if isinstance(s, cech.Case2Step):
            out.append({
                "case": 2, "b": s.b, "new_n": s.new_n,
                "new_p": render_poly(s.new_p),
                "substitution": f"{s.old_fiber_var} = y^{s.b}*{s.new_fiber_var}",
            })
        else:
            out.append({
                "case": 1, "a": s.a, "q0": render_poly(s.q0),
                "witness": f"({render_poly(s.witness_numer)})/y",
                "witness_power": s.witness_power,
            })
    return out


def _cmd_affine_cert(args) -> int:
    p = parse_poly(args.p, ("x", "y"))
    nf = cech.NormalFormMNP(args.m, args.n, p)
    cert = cech.affineness_certificate(nf)
    payload = {
        "m": cert.m, "n": cert.n, "p": render_poly(cert.p),
        "outcome": cert.outcome,
        "q0": None if cert.q0 is None else render_poly(cert.q0),
        "trace": _trace_json(cert),
    }
    _emit(args, payload, f"{cert.outcome}: {claims.describe_trace(cert)}")
    return 0


def _cmd_lnd(args) -> int:
    pres = _read_source(
        "--presentation", args.presentation,
        lambda text: AlgebraPresentation.from_text(text, groebner_budget=args.groebner_budget),
    )
    d = _read_source("--derivation", args.derivation, lambda text: Derivation.from_text(pres, text))
    if args.action == "check":
        ok = descends_to_quotient(d)
        payload: dict = {"descends": ok}
        human = f"descends to the quotient: {ok}"
        if ok:
            cert = nilpotency_certificate(d, bound=args.nilpotency_bound)
            payload["nilpotency_indices"] = dict(sorted(cert.indices.items()))
            human += f"; nilpotency indices {dict(sorted(cert.indices.items()))}"
        _emit(args, payload, human)
        return 0
    if args.action == "exp":
        act = exponential(d, "t", bound=args.nilpotency_bound)
        images = {v: act.images[v].render() for v in pres.variables}
        _emit(args, {"exponential": images},
              "; ".join(f"{v} -> {img}" for v, img in images.items()))
        return 0
    if not args.element:
        raise UsageError("--element is required for the slice check")
    s = pres.element(args.element)
    ok = is_slice(d, s)
    _emit(args, {"slice": ok}, f"is a slice: {ok}")
    return 0


def _cmd_splitting(args) -> int:
    M = _read_source("--matrix", args.matrix, p1bundles.TransitionMatrix2.loads)
    fac = p1bundles.birkhoff_split(M)
    payload = fac.splitting.to_json()
    _emit(args, payload,
          f"splitting type ({fac.splitting.a1}, {fac.splitting.a2}); "
          f"ruled model F{fac.splitting.hirzebruch_index}")
    return 0


def _cmd_h0(args) -> int:
    M = _read_source("--matrix", args.matrix, p1bundles.TransitionMatrix2.loads)
    dim, basis = p1bundles.h0_twist(M, args.j)
    payload = {
        "j": args.j,
        "h0": dim,
        "basis": [[render_poly(g1), render_poly(g2)] for g1, g2 in basis],
    }
    _emit(args, payload, f"h0(E(j={args.j})) = {dim}")
    return 0


def _cmd_intersect(args) -> int:
    surf = _parse_surface(args.surface)
    c1 = _ints("--d1", args.d1, 2)
    c2 = _ints("--d2", args.d2, 2)
    d1 = surf.divisor(*c1)
    d2 = surf.divisor(*c2)
    val = surfaces.intersect(d1, d2)
    payload = {"surface": surf.name(), "basis": list(surf.basis),
               "d1": c1, "d2": c2, "intersection": val}
    _emit(args, payload, f"{surf.name()}: ({c1} . {c2}) = {val}")
    return 0


def _cmd_classify(args) -> int:
    if args.mode == "mn":
        verdict = surfaces.classify_xmn(args.m, args.n, args.p, args.q)
        _emit(args, verdict.to_json(),
              f"{verdict.verdict}" + (f" (d = {verdict.d})" if verdict.d else ""))
        return 0
    f = parse_poly(args.f, ("x", "y"))
    g = parse_poly(args.g, ("x", "y"))
    result = surfaces.classify_xfg(f, g)
    _emit(args, result.to_json(),
          f"degrees ({result.m}, {result.n}); boundary square {result.delta_square}; "
          f"{result.verdict}")
    return 0


def _cmd_verify_paper(args) -> int:
    if args.groebner_budget != groebner.DEFAULT_SPAIR_BUDGET:
        raise UsageError(
            "verify-paper runs every claim under the library Groebner budget of "
            f"{groebner.DEFAULT_SPAIR_BUDGET}; --groebner-budget (GAWB_GROEBNER_BUDGET) "
            "does not apply to it"
        )
    cfg = claims.RunConfig(
        seed=args.seed,
        nilpotency_bound=args.nilpotency_bound,
        power_bound=args.power_bound,
    )
    report = claims.run_claims(cfg, only=args.only)
    if args.json:
        print(json.dumps(report.to_json(timings=args.timings), indent=2, sort_keys=True))
    else:
        print(report.to_table(timings=args.timings))
    return 0 if report.ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "cocycle": _cmd_cocycle,
    "affine-cert": _cmd_affine_cert,
    "lnd": _cmd_lnd,
    "splitting": _cmd_splitting,
    "h0": _cmd_h0,
    "intersect": _cmd_intersect,
    "classify": _cmd_classify,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"gawb: error: {e}", file=sys.stderr)
        return 2
    except PolyParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
