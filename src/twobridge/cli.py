"""Command-line interface.

Exit codes: 0 success / all checks passed; 1 failed verification or
arithmetic failure (with a distinct message when precision was
exhausted, and when memory ran out); 2 parameter errors.  --json emits
one deterministic JSON document on standard output; this module alone
shapes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable

from .deformations import build_family, universality_certificate
from .groupring import fox_derivative
from .homology import ad_cohomology, l_function, twisted_alexander
from .padics import Indeterminate
from .presentations import two_bridge
from .registry import EXAMPLE_IDS, FAMILY_TO_ID
from .riley import char_points, riley_polynomial
from .verify import verify_example
from .words import parse_word


def _emit(args, payload: dict, text_lines: Callable[[], Iterable[str]]) -> None:
    """Print payload as JSON under --json, else text_lines(), which only
    the text mode builds (in full before its first line is printed)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in list(text_lines()):
            print(line)


def _letters(word) -> list[list[int]]:
    return [[g, s] for g, s in word]


def _coeffs(series) -> list[str]:
    """The coefficients of a p-adic series, constant term first."""
    return [str(c) for c in series.coeffs]


def _matrix(mat) -> list:
    return [[_coeffs(e) for e in row] for row in mat.rows()]


def _laurent(f) -> dict[str, str]:
    """The coefficients of a Laurent polynomial, keyed by exponent."""
    return {str(k): str(c) for k, c in sorted(f.coeffs.items())}


def _normal_form(nf) -> dict:
    return {"mu": nf.mu, "lambda": nf.lam, "certified": nf.certified}


def _run(run) -> dict:
    """One run of verify-example at its (N, D)."""
    return {
        "example_id": run.example_id,
        "N": run.N,
        "D": run.D,
        "rows": [r._asdict() for r in run.rows],
        "l": _normal_form(run.l_form),
        "ok": run.ok,
    }


def cmd_presentation(args) -> int:
    pres = two_bridge(args.m, args.n)
    payload = {
        "m": pres.m,
        "n": pres.n,
        "epsilon": list(pres.epsilon),
        "w": _letters(pres.w),
        "relator": _letters(pres.relator),
    }
    _emit(args, payload, lambda: [
        "B(%d, %d)" % (pres.m, pres.n),
        "epsilon: %s" % (" ".join("%+d" % e for e in pres.epsilon)),
        "w = %s" % pres.w,
        "relator = %s" % pres.relator,
    ])
    return 0


def cmd_fox(args) -> int:
    word = parse_word(args.word)
    # by number of letters, then text form; no two distinct words share both
    terms = sorted((len(w), str(w), c) for w, c in fox_derivative(word, args.gen).items())
    payload = {"word": str(word), "gen": args.gen, "derivative": [[w, c] for _, w, c in terms]}

    def lines():
        # every coefficient is +1 or -1: the words are distinct prefixes of word
        text = " ".join("%s %s" % ("-" if c < 0 else "+", w) for _, w, c in terms)
        text = text[2:] if text.startswith("+") else text.replace("- ", "-", 1) or "0"
        yield "d(%s)/dg%d = %s" % (word, args.gen, text)

    _emit(args, payload, lines)
    return 0


def cmd_riley(args) -> int:
    pres = two_bridge(args.m, args.n)
    data = riley_polynomial(pres)
    payload = {
        "m": args.m,
        "n": args.n,
        "phi_tu": [[i, j, c] for i, j, c in data.phi.sorted_terms()],
        "phi_xu": [[i, j, c] for i, j, c in data.phi_xu.sorted_terms()],
        "psi": [[i, j, c] for i, j, c in data.psi.sorted_terms()],
        "l": data.l,
        "sign": data.sign,
    }
    _emit(args, payload, lambda: [
        "phi(t, u)  = %s" % data.phi.text(("t", "u")),
        "phi(x, u)  = %s  (t^%d phi = phi_xu at x = t + 1/t)" % (data.phi_xu.text(("x", "u")), data.l),
        "psi(x, y)  = %s" % data.psi.text(("x", "y")),
    ])
    return 0


def cmd_char_points(args) -> int:
    pres = two_bridge(args.m, args.n)
    pts = char_points(pres, args.p)
    payload = {
        "m": args.m,
        "n": args.n,
        "p": args.p,
        "points": [
            {"x": x, "y": y, "on_abelian_line": line, "absolutely_irreducible": irreducible}
            for x, y, line, irreducible in pts
        ],
        "count": len(pts),
    }

    def lines():
        yield "(x, y) over F_%d on the character scheme:" % args.p
        for pt in pts:
            tags = []
            if pt.on_abelian_line:
                tags.append("abelian-line")
            if pt.absolutely_irreducible:
                tags.append("absolutely-irreducible")
            yield "  (%2d, %2d)  %s" % (pt.x, pt.y, " ".join(tags))
        yield "%d points" % len(pts)

    _emit(args, payload, lines)
    return 0


def cmd_lift(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    cert = universality_certificate(fam)
    payload = {
        "example": fam.key,
        "p": fam.p,
        "N": args.prec,
        "D": args.deg,
        "alpha": {"p": fam.alpha.ring.p, "N": fam.alpha.ring.N, "residue": str(fam.alpha)},
        "g1": _matrix(fam.rep.matrices[1]),
        "g2": _matrix(fam.rep.matrices[2]),
        "certificate": {**cert._asdict(), "regular": cert.regular, "ok": cert.ok},
    }
    _emit(args, payload, lambda: [
        "family %s over Z_%d[[T]], T = x - alpha, alpha = %s" % (fam.key, fam.p, fam.alpha),
        "g1 = %s" % fam.rep.matrices[1],
        "g2 = %s" % fam.rep.matrices[2],
        "certificate: trace=%s relation=%s residual=%s point=%s regular=%s -> %s"
        % (cert.trace_ok, cert.relation_ok, cert.residual_ok, cert.point_ok, cert.regular,
           "ok" if cert.ok else "FAILED"),
    ])
    return 0 if cert.ok else 1


def cmd_talex(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    pres = fam.pres
    rep = fam.rep.residual()
    ta = twisted_alexander(pres, rep)
    payload = {
        "example": fam.key,
        "p": fam.p,
        "results": [
            {
                "deleted_index": r.deleted_index,
                "numerator": _laurent(r.numerator),
                "denominator": _laurent(r.denominator),
                "quotient": None if r.quotient is None else _laurent(r.quotient),
            }
            for r in ta
        ],
        "at_1": str(ta[0].value_at_one()),
    }
    _emit(args, payload, lambda: [
        *("delete g%d: numerator %s / denominator %s = %s"
          % (r.deleted_index, r.numerator, r.denominator, r.quotient) for r in ta),
        "Delta(1) = %s" % payload["at_1"],
    ])
    return 0


def cmd_lfunction(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    lres = l_function(fam.pres, fam.rep)
    nf = lres.normal_form
    payload = {**_normal_form(nf), "minors": [_coeffs(m) for m in lres.minors], "example": fam.key}
    _emit(args, payload, lambda: [
        "L = p^%d T^%d (certified=%s) for %s" % (nf.mu, nf.lam, nf.certified, fam.key),
        *("  minor %d: %s" % (k, m) for k, m in enumerate(lres.minors, 1)),
    ])
    return 0


def cmd_cohomology(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    dims = ad_cohomology(fam.pres, fam.rep.residual())
    payload = {"h0": dims.h0, "h1": dims.h1, "h2": dims.h2, "example": fam.key}
    _emit(args, payload, lambda: ["h0=%d h1=%d h2=%d for %s" % (dims.h0, dims.h1, dims.h2, fam.key)])
    return 0


def cmd_verify_example(args) -> int:
    report = verify_example(args.id, N=args.prec, D=args.deg)
    payload = {
        "base": _run(report.base),
        "escalated": _run(report.escalated),
        "stable": report.stable,
        "ok": report.ok,
    }

    def lines():
        yield "example %s at N=%d D=%d" % (args.id, args.prec, args.deg)
        width = max(len(r.name) for r in report.base.rows)
        for r in report.base.rows:
            yield "  %s %-*s  %s" % ("PASS" if r.passed else "FAIL", width, r.name, r.detail)
        yield "  %s %-*s  normal form stable at N=%d D=%d" % (
            "PASS" if report.stable else "FAIL", width, "stability", report.escalated.N, report.escalated.D)
        yield "result: %s" % ("ok" if report.ok else "FAILED")

    _emit(args, payload, lines)
    return 0 if report.ok else 1


_MN = (("--m", {"type": int, "required": True}), ("--n", {"type": int, "required": True}))
_PREC = (
    ("--prec", {"type": int, "default": 8, "metavar": "N", "help": "p-adic precision (default 8)"}),
    ("--deg", {"type": int, "default": 8, "metavar": "D", "help": "series truncation degree (default 8)"}),
)
_EXAMPLE = (("--example", {"required": True, "choices": sorted(FAMILY_TO_ID)}), *_PREC)

# name -> (help, arguments before --json, handler), in the order --help lists them
COMMANDS = {
    "presentation": ("epsilon sequence, w and relator of B(m, n)", _MN, cmd_presentation),
    "fox": (
        "free derivative of a word",
        (
            ("--word", {"required": True, "help": 'e.g. "g1 g2^-1 g1"'}),
            ("--gen", {"type": int, "required": True, "help": "generator index (1-based)"}),
        ),
        cmd_fox,
    ),
    "riley": ("Riley polynomial of B(m, n) in all coordinate systems", _MN, cmd_riley),
    "char-points": (
        "F_p points of the character scheme",
        (*_MN, ("--p", {"type": int, "required": True})),
        cmd_char_points,
    ),
    "lift": ("universal deformation matrices and certificate", _EXAMPLE, cmd_lift),
    "talex": ("twisted Alexander invariant of the residual representation", _EXAMPLE, cmd_talex),
    "lfunction": ("gcd normal form of the six second-boundary minors", _EXAMPLE, cmd_lfunction),
    "cohomology": ("adjoint cohomology dimensions of the residual representation", _EXAMPLE, cmd_cohomology),
    "verify-example": (
        "full pipeline against the reference values",
        (("--id", {"required": True, "choices": list(EXAMPLE_IDS)}), *_PREC),
        cmd_verify_example,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the subparser of command when it names one,
    else with every subparser."""
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Exact arithmetic for 2-bridge knot groups: Fox calculus, "
        "Riley polynomials, p-adic deformations, twisted Alexander invariants "
        "and L-function normal forms.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # an error after the subcommand prints the top-level usage, which lists
    # every subcommand; on the full path the default metavar does so, and a
    # metavar there would change the "required" and "invalid choice" errors
    extra = {"metavar": "{%s}" % ",".join(COMMANDS)} if len(names) == 1 else {}
    sub = parser.add_subparsers(dest="command", required=True, **extra)
    for name in names:
        help_text, arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: keep the flush at exit from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Indeterminate as exc:
        print("indeterminate (precision exhausted): %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("parameter error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:  # the input outgrew the memory this process may use
        print("out of memory: %s input too large for the available memory" % args.command,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
