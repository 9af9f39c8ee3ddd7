"""Example registry and the end-to-end verification reports."""

import json
import sys

import pytest

from twobridge import cli, groupring, homology, riley, verify
from twobridge.padics import Indeterminate
from twobridge.registry import EXAMPLE_IDS, FAMILY_TO_ID, RILEY_PSI_TERMS, get_example
from twobridge.deformations import (
    build_family,
    character_curve_value,
    specialize_family,
    universality_certificate,
)
from twobridge.homology import chain_contraction
from twobridge.matrices import Mat2
from twobridge.riley import riley_polynomial
from twobridge.verify import run_example, verify_example

BASE_ROW_NAMES = (
    "riley",
    "certificate",
    "character-curve",
    "chain-contraction",
    "residual-det-g2",
    "alexander-residual",
    "alexander-residual-at-1",
    "char-point",
    "adjoint-cohomology",
    "delta0",
    "l-function",
    "torsion",
    "vanishing-link",
)

SPECIALIZED_ROW_NAMES = (
    "minors-closed-form",
    "specialized-det-g2",
    "specialized-alexander",
    "specialized-alexander-at-1",
)


def test_registry_ids():
    assert EXAMPLE_IDS == ("4.5.1", "4.5.2", "4.5.3a", "4.5.3b")
    assert FAMILY_TO_ID == {
        "rho1": "4.5.1",
        "rho2": "4.5.2",
        "rho3": "4.5.3a",
        "rho4": "4.5.3b",
    }
    with pytest.raises(ValueError):
        get_example("4.5.9")
    # each reference Psi belongs to the knot of some example's family
    knots = {(fam.pres.m, fam.pres.n) for fam in map(build_family, FAMILY_TO_ID)}
    assert knots == set(RILEY_PSI_TERMS)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_registry_psi_terms_match_riley(example_id):
    # the knot comes from the example's family, as in run_example
    pres = build_family(get_example(example_id).family_key).pres
    assert riley_polynomial(pres).psi.terms == RILEY_PSI_TERMS[(pres.m, pres.n)]


@pytest.mark.parametrize("example_id", ["4.5.3a", "4.5.3b"])
def test_registry_specialized_data_consistent(example_id):
    # the frozen Delta polynomial evaluates at t=1 to the frozen Delta(1)
    ex = get_example(example_id)
    fam = build_family(ex.family_key)
    spec = specialize_family(fam, ex.x_rat)
    delta = ex.expected_spec_delta(spec)
    at_one = ex.expected_spec_delta_at_one(spec)
    assert delta.evaluate(1) == at_one
    assert not at_one.is_zero
    assert len(ex.expected_minors(fam)) == 6


def test_run_example_451():
    report = run_example("4.5.1")
    assert report.ok
    assert tuple(r.name for r in report.rows) == BASE_ROW_NAMES
    assert (report.l_form.mu, report.l_form.lam) == (0, 0)
    js = cli._run(report)
    assert js["ok"] is True and js["example_id"] == "4.5.1"
    assert [row["name"] for row in js["rows"]] == list(BASE_ROW_NAMES)
    assert js["l"] == {"mu": 0, "lambda": 0, "certified": True}


def test_run_example_453a_has_specialized_rows():
    report = run_example("4.5.3a")
    assert report.ok
    names = tuple(r.name for r in report.rows)
    for name in SPECIALIZED_ROW_NAMES:
        assert name in names
    assert (report.l_form.mu, report.l_form.lam) == (0, 2)


def test_verify_example_stability(monkeypatch, capsys):
    report = verify_example("4.5.1", N=6, D=6)
    assert report.ok
    assert report.stable
    assert (report.escalated.N, report.escalated.D) == (10, 10)
    monkeypatch.setattr(cli, "verify_example", lambda *args, **kwargs: report)
    assert cli.main(["verify-example", "--id", "4.5.1", "--json"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["stable"] is True and js["ok"] is True
    assert js["base"] == cli._run(report.base) and js["escalated"]["N"] == 10


def test_run_example_computes_each_stage_once(monkeypatch):
    # every row and the vanishing link read one result per stage; the
    # Fox images and the Riley polynomial are computed once, by the
    # family's presentation
    counts = {}

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (
        homology.l_function,
        homology.delta0_h0,
        homology.twisted_alexander,
        groupring.fox_derivative,
        riley.riley_polynomial,
    ):
        wrapped = counting(fn)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "twobridge" and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    assert run_example("4.5.3a").ok
    assert counts["l_function"] == 1
    assert counts["delta0_h0"] == 1
    assert counts["twisted_alexander"] == 2  # residual and specialized
    assert counts.get("fox_derivative", 0) <= 2
    assert counts["riley_polynomial"] == 1


def test_specialized_zero_at_precision_is_indeterminate_but_mismatch_fails(monkeypatch):
    # at N = 2 the specialized Delta(1) of 4.5.3a reads 0 and agrees with
    # its closed form: undecided. Against a closed form it does not match,
    # the same reading stays a FAIL.
    with pytest.raises(Indeterminate, match="specialized-alexander-at-1.*N = 2"):
        run_example("4.5.3a", N=2, D=2)
    ex = get_example("4.5.3a")
    wrong = ex._replace(expected_spec_delta_at_one=lambda spec: spec.rep.one)
    monkeypatch.setattr("twobridge.verify.get_example", lambda example_id: wrong)
    report = run_example("4.5.3a", N=2, D=2)
    failed = {r.name for r in report.rows if not r.passed}
    assert "specialized-alexander-at-1" in failed


def _failed_rows(example_id):
    return {r.name for r in run_example(example_id).rows if not r.passed}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_tampered_residual_det_g2_fails_its_row(example_id, monkeypatch):
    ex = get_example(example_id)
    wrong = ex._replace(residual_det_g2=ex.residual_det_g2 + 1)
    monkeypatch.setattr("twobridge.verify.get_example", lambda example_id: wrong)
    assert _failed_rows(example_id) == {"residual-det-g2"}


@pytest.mark.parametrize("h0, h1, h2", [(0, 0, 0), (0, 2, 1), (1, 2, 1)])
def test_adjoint_cohomology_row_fails_off_its_pattern(h0, h1, h2, monkeypatch):
    # the row asks for h0 = 0, h1 = h2 >= 1 and Euler characteristic 0;
    # each of these dimensions breaks part of that (h2 = 0; h1 != h2 and
    # Euler characteristic -1; h0 = 1)
    dims = homology.CohomologyDims(h0=h0, h1=h1, h2=h2, rank_d0=3 - h0, rank_d1=3 - h2)
    monkeypatch.setattr(verify, "ad_cohomology", lambda pres, rep: dims)
    assert _failed_rows("4.5.1") == {"adjoint-cohomology"}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_wrong_riley_polynomial_fails_its_row(example_id, monkeypatch):
    # -Psi has the zeros of Psi, so every stage that solves or evaluates
    # Psi = 0 still passes; the reference terms of Psi do not match
    def negated(pres):
        data = riley_polynomial(pres)
        return data._replace(psi=data.psi * -1)

    monkeypatch.setattr(riley, "riley_polynomial", negated)
    assert _failed_rows(example_id) == {"riley"}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_wrong_char_points_fail_their_row(example_id, monkeypatch):
    # every F_p point read as reducible: the designated point is not among
    # the absolutely irreducible ones, and no other row reads them
    def reducible(pres, p):
        return [pt._replace(absolutely_irreducible=False) for pt in riley.char_points(pres, p)]

    monkeypatch.setattr(verify, "char_points", reducible)
    assert _failed_rows(example_id) == {"char-point"}


def _last_digit(ring):
    """p^(N-1) T^D: the smallest nonzero series at the ring's precision."""
    return ring([0] * ring.D + [ring.p ** (ring.N - 1)])


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_wrong_certificate_fails_its_row(example_id, monkeypatch):
    # the certificate of the family with alpha off in its last digit: the
    # generators' traces no longer equal alpha + T, and no other row reads
    # the certificate
    def shifted_alpha(fam):
        return universality_certificate(fam._replace(alpha=fam.alpha + fam.p ** (fam.ring.N - 1)))

    monkeypatch.setattr(verify, "universality_certificate", shifted_alpha)
    assert _failed_rows(example_id) == {"certificate"}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_nonzero_character_curve_value_fails_its_row(example_id, monkeypatch):
    # Psi(tr rho(g1), tr rho(g1 g2)) off by p^(N-1) T^D, the last digit the
    # row can see
    def off(fam):
        return character_curve_value(fam) + _last_digit(fam.ring)

    monkeypatch.setattr(verify, "character_curve_value", off)
    assert _failed_rows(example_id) == {"character-curve"}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_nonzero_chain_contraction_fails_its_row(example_id, monkeypatch):
    # one entry of the composite of the two boundary maps off by p^(N-1) T^D
    def off(pres, rep):
        c = chain_contraction(pres, rep)
        return Mat2(c.a + _last_digit(rep.ring), c.b, c.c, c.d)

    monkeypatch.setattr(verify, "chain_contraction", off)
    assert _failed_rows(example_id) == {"chain-contraction"}


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_verify_example_at_roadmap_precisions(example_id, N):
    report = verify_example(example_id, N=N, D=N)
    assert report.ok and report.stable


def test_verify_example_computes_residual_stages_once(monkeypatch):
    # the residual representation is the same at both precisions, so the
    # escalated run reuses the base run's residual stages
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("char_points", "twisted_alexander", "ad_cohomology", "torsion_witness"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    report = verify_example("4.5.3a")
    assert report.ok
    # specialization depends on the precision: one specialized Alexander
    # polynomial and torsion witness per run
    assert counts == {"char_points": 1, "twisted_alexander": 3, "ad_cohomology": 1, "torsion_witness": 3}
    assert report.escalated.residual is report.base.residual


def test_verify_example_computes_the_riley_polynomial_once(monkeypatch):
    # both runs build their family on one presentation, which caches the
    # Riley polynomial and the Fox images
    calls = []

    def counting(pres):
        calls.append((pres.m, pres.n))
        return riley_polynomial(pres)

    monkeypatch.setattr(riley, "riley_polynomial", counting)
    for example_id in EXAMPLE_IDS:
        calls.clear()
        report = verify_example(example_id)
        assert report.ok
        assert len(calls) == 1, example_id
        assert report.escalated.residual.pres is report.base.residual.pres


def test_verify_example_builds_the_fox_images_once_per_family(monkeypatch):
    # chain_contraction and l_function (through boundary2) both read the
    # Fox images of a run's family; the representation keeps them, so
    # each of the two families pays for them once
    built = []
    compute = homology._fox_images

    def counting(pres, rep):
        built.append(rep)
        return compute(pres, rep)

    monkeypatch.setattr(homology, "_fox_images", counting)
    for example_id in EXAMPLE_IDS:
        built.clear()
        report = verify_example(example_id)
        assert report.ok
        assert len(built) == 2 and built[0] is not built[1], example_id
        assert {(rep.ring.N, rep.ring.D) for rep in built} == {(8, 8), (12, 12)}, example_id


def test_run_report_equality_ignores_residual():
    base = verify_example("4.5.1").base
    assert base.residual is not None
    bare = verify.RunReport(base.example_id, base.N, base.D, base.rows, base.l_form)
    assert bare.residual is None
    assert bare == base and hash(bare) == hash(base)
    assert verify.RunReport(base.example_id, base.N + 1, base.D, base.rows, base.l_form) != base
    for name in ("rows", "residual", "extra"):
        with pytest.raises(AttributeError):
            setattr(base, name, None)
    with pytest.raises(AttributeError):
        del base.rows
