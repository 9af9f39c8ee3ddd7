"""Command-line interface.

Exit codes: 0 success / all checks passed; 1 failed verification or
arithmetic failure (with a distinct message when precision was
exhausted); 2 parameter errors.  --json emits one deterministic JSON
document on standard output.
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
    elt = fox_derivative(word, args.gen)
    pairs = [[str(w), c] for w, c in elt.sorted_items()]
    payload = {"word": str(word), "gen": args.gen, "derivative": pairs}
    _emit(args, payload, lambda: ["d(%s)/dg%d = %s" % (word, args.gen, elt)])
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
        "points": [pt.to_json() for pt in pts],
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


def _series_json(mat) -> list:
    return [[e.to_json()["coeffs"] for e in row] for row in mat.rows()]


def cmd_lift(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    cert = universality_certificate(fam)
    payload = {
        "example": fam.key,
        "p": fam.p,
        "N": args.prec,
        "D": args.deg,
        "alpha": fam.alpha.to_json(),
        "g1": _series_json(fam.rep.matrices[1]),
        "g2": _series_json(fam.rep.matrices[2]),
        "certificate": cert.to_json(),
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
        "results": [r.to_json() for r in ta.results],
        "at_1": str(ta.value_at_one()),
    }
    _emit(args, payload, lambda: [
        *("delete g%d: numerator %s / denominator %s = %s"
          % (r.deleted_index, r.numerator, r.denominator, r.quotient) for r in ta.results),
        "Delta(1) = %s" % payload["at_1"],
    ])
    return 0


def cmd_lfunction(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    lres = l_function(fam.pres, fam.rep)
    nf = lres.normal_form
    payload = dict(nf.to_json())
    payload["minors"] = [m.to_json()["coeffs"] for m in lres.minors]
    payload["example"] = fam.key
    _emit(args, payload, lambda: [
        "L = p^%d T^%d (certified=%s) for %s" % (nf.mu, nf.lam, nf.certified, fam.key),
        *("  minor %d: %s" % (k, m) for k, m in enumerate(lres.minors, 1)),
    ])
    return 0


def cmd_cohomology(args) -> int:
    fam = build_family(args.example, N=args.prec, D=args.deg)
    dims = ad_cohomology(fam.pres, fam.rep.residual())
    payload = dims.to_json()
    payload["example"] = fam.key
    _emit(args, payload, lambda: ["h0=%d h1=%d h2=%d for %s" % (dims.h0, dims.h1, dims.h2, fam.key)])
    return 0


def cmd_verify_example(args) -> int:
    report = verify_example(args.id, N=args.prec, D=args.deg)
    payload = report.to_json()

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Exact arithmetic for 2-bridge knot groups: Fox calculus, "
        "Riley polynomials, p-adic deformations, twisted Alexander invariants "
        "and L-function normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_prec(p):
        p.add_argument("--prec", type=int, default=8, metavar="N", help="p-adic precision (default 8)")
        p.add_argument("--deg", type=int, default=8, metavar="D", help="series truncation degree (default 8)")

    p = sub.add_parser("presentation", help="epsilon sequence, w and relator of B(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("fox", help="free derivative of a word")
    p.add_argument("--word", required=True, help='e.g. "g1 g2^-1 g1"')
    p.add_argument("--gen", type=int, required=True, help="generator index (1-based)")
    add_json(p)
    p.set_defaults(func=cmd_fox)

    p = sub.add_parser("riley", help="Riley polynomial of B(m, n) in all coordinate systems")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_riley)

    p = sub.add_parser("char-points", help="F_p points of the character scheme")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_char_points)

    p = sub.add_parser("lift", help="universal deformation matrices and certificate")
    p.add_argument("--example", required=True, choices=sorted(FAMILY_TO_ID))
    add_prec(p)
    add_json(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("talex", help="twisted Alexander invariant of the residual representation")
    p.add_argument("--example", required=True, choices=sorted(FAMILY_TO_ID))
    add_prec(p)
    add_json(p)
    p.set_defaults(func=cmd_talex)

    p = sub.add_parser("lfunction", help="gcd normal form of the six second-boundary minors")
    p.add_argument("--example", required=True, choices=sorted(FAMILY_TO_ID))
    add_prec(p)
    add_json(p)
    p.set_defaults(func=cmd_lfunction)

    p = sub.add_parser("cohomology", help="adjoint cohomology dimensions of the residual representation")
    p.add_argument("--example", required=True, choices=sorted(FAMILY_TO_ID))
    add_prec(p)
    add_json(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("verify-example", help="full pipeline against the reference values")
    p.add_argument("--id", required=True, choices=list(EXAMPLE_IDS))
    add_prec(p)
    add_json(p)
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
