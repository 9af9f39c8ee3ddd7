"""The benchmark's tracer, the demos and the package's exports, run
against the package as it stands: a rename or a removal inside the
package must not silently break any of them."""

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

import twobridge
import twobridge.cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_namespace() -> dict:
    """Every module attribute of the package, and every class attribute
    of the classes it defines, keyed by where it lives."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "twobridge":
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_wraps_and_restores_the_package(capsys):
    tracing = _load_tracing()
    before = _package_namespace()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _package_namespace()
        assert wrapped["twobridge.riley", "relation_holds"] is not before["twobridge.riley", "relation_holds"]
        assert twobridge.cli.main(["lift", "--example", "rho1", "--json"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("{")
    # build_family and the certificate each check the relation once
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.counts["riley.relation_holds.calls"] == 2
    # Representation starts from its letter images, so no word goes through word_matrix
    assert tracer.counts["matrices.word_matrix.calls"] == 0
    assert tracer.counts["deformations.rep_eval.hits"] > 0
    # the certificate reads Psi and dPsi/dy at its point through the lift's
    # evaluator, not BivariatePoly.eval_modp
    assert tracer.counts["riley.eval_modp.calls"] == 0
    after = _package_namespace()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_the_riley_kernels(capsys):
    tracing = _load_tracing()
    before = _package_namespace()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert twobridge.cli.main(["riley", "--m", "31", "--n", "-9", "--json"]) == 0
        assert twobridge.cli.main(["char-points", "--m", "7", "--n", "3", "--p", "101", "--json"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.count("{") >= 2
    for name in ("riley_polynomial", "char_points"):
        assert tracer.counts["riley.%s.calls" % name] > 0, name
    # char_points reduces Psi mod p once, finds its roots in X = x^2 once per y0,
    # and never evaluates it point by point
    assert tracer.counts["riley.eval_modp.calls"] == 0
    # the coordinate changes phi -> phi_xu -> psi run on packed ints, and the
    # sign of psi is applied there: no polynomial substitution or product
    assert tracer.counts["riley.substitute_second.calls"] == 0
    assert tracer.counts["riley.bivariate_mul.calls"] == 0
    # the first row of the Riley word matrix is built letter by letter, not by
    # the generic word product
    assert tracer.counts["matrices.word_matrix.calls"] == 0
    after = _package_namespace()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_every_export_resolves():
    assert [name for name in twobridge.__all__ if not hasattr(twobridge, name)] == []
    namespace = {}
    exec("from twobridge import *", namespace)
    assert set(twobridge.__all__) <= namespace.keys()


def test_only_the_cli_shapes_json():
    # cli.py alone knows the --json schema: no class of the package renders itself
    assert [key for key in _package_namespace() if key[2:] == ("to_json",)] == []


# names deleted because no subcommand, demo or reference check reached
# them; random_sl2, _random_residues, a series inverse and build_modp_rep
# live on in tests/oracles.py
DELETED = (
    ("twobridge", "random_sl2"),
    ("twobridge", "TwistedAlexander"),
    ("twobridge.words", "FreeWord", "__pow__"),
    ("twobridge.words", "FreeWord", "is_identity"),
    ("twobridge.words", "FreeWord", "abelianize"),
    ("twobridge.padics", "ZpT", "T"),
    ("twobridge.matrices", "Mat2", "__neg__"),
    ("twobridge.matrices", "Mat2", "scale"),
    ("twobridge.laurent", "power"),
    *(("twobridge.laurent", "LaurentPoly", name) for name in ("one", "constant", "_coerce", "__radd__", "__rsub__", "__pow__")),
    ("twobridge.homology", "apply_rep"),
    ("twobridge.homology", "TwistedAlexander"),
    ("twobridge.deformations", "random_sl2"),
    ("twobridge.deformations", "_random_residues"),
    *(
        ("twobridge.riley", "BivariatePoly", name)
        for name in ("first_var", "second_var", "_coerce", "__add__", "__radd__")
        + ("__neg__", "__sub__", "__rsub__", "__pow__", "is_zero")
    ),
    ("twobridge.riley", "build_modp_rep"),
    ("twobridge.riley", "BivariatePoly", "derivative_second"),
    ("twobridge.padics", "PadicSeries", "invert_unit"),
    ("twobridge.padics", "PadicSeries", "to_ring"),
    *(("twobridge.verify", "RunReport", name) for name in ("__init__", "__setattr__", "__delattr__", "_key", "__eq__", "__hash__")),
)


def test_deleted_names_stay_deleted():
    namespace = _package_namespace()
    assert [key for key in DELETED if key in namespace] == []


# the package's NamedTuple records, by module
RECORDS = {
    "deformations": ("DeformationFamily", "Specialization", "Certificate", "AxiomViolation", "AxiomReport"),
    "homology": (
        "AlexanderResult",
        "TorsionReport",
        "FittingResult",
        "VanishingReport",
        "CohomologyDims",
    ),
    "padics": ("DivisorNormalForm",),
    "registry": ("ExampleSpec",),
    "riley": ("RileyData", "CharacterPoint"),
    "verify": ("CheckRow", "ResidualStages", "RunReport", "VerifyReport"),
}


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in RECORDS.items() for n in names], ids=lambda v: v
)
def test_record_is_immutable_and_hashed_by_value(module, name):
    cls = getattr(importlib.import_module("twobridge." + module), name)
    values = list(range(len(cls._fields)))
    rec = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, -1)
    with pytest.raises(AttributeError):
        rec.extra = -1
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    assert rec._replace(**{cls._fields[0]: -1}) != rec
