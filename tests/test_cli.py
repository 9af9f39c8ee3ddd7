"""Command-line contract: subcommands, exit codes, deterministic JSON."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "twobridge.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )


def test_presentation_json():
    r = run_cli("presentation", "--m", "3", "--n", "1", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["epsilon"] == [1, 1]
    assert payload["w"] == [[1, 1], [2, 1]]
    assert payload["relator"] == [[1, 1], [2, 1], [1, 1], [2, -1], [1, -1], [2, -1]]


def test_presentation_text():
    r = run_cli("presentation", "--m", "5", "--n", "3")
    assert r.returncode == 0
    assert "B(5, 3)" in r.stdout
    assert "relator = " in r.stdout


def test_fox_json():
    r = run_cli("fox", "--word", "g1 g2", "--gen", "2", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["derivative"] == [["g1", 1]]


def test_riley_json_golden():
    r = run_cli("riley", "--m", "5", "--n", "3", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["psi"] == [
        [0, 0, -1],
        [0, 1, -1],
        [0, 2, 1],
        [2, 0, 2],
        [2, 1, -1],
    ]
    assert "phi_tu" in payload and "phi_xu" in payload and "l" in payload


def test_char_points_json():
    r = run_cli("char-points", "--m", "3", "--n", "1", "--p", "3", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    ai = [
        (q["x"], q["y"]) for q in payload["points"] if q["absolutely_irreducible"]
    ]
    assert sorted(ai) == [(1, 1), (2, 1)]
    assert payload["count"] == len(payload["points"])


def test_json_output_is_deterministic():
    a = run_cli("riley", "--m", "7", "--n", "3", "--json")
    b = run_cli("riley", "--m", "7", "--n", "3", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    a = run_cli("lfunction", "--example", "rho1", "--json")
    b = run_cli("lfunction", "--example", "rho1", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_lift_certificate():
    r = run_cli("lift", "--example", "rho1", "--prec", "6", "--deg", "6", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["certificate"]["ok"] is True
    assert payload["alpha"]["residue"] == "2"
    assert len(payload["g1"]) == 2 and len(payload["g1"][0]) == 2


def test_talex():
    r = run_cli("talex", "--example", "rho2", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["at_1"] == "6"
    assert len(payload["results"]) == 2


def test_lfunction_json():
    r = run_cli("lfunction", "--example", "rho3", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["mu"] == 0 and payload["lambda"] == 2
    assert payload["certified"] is True
    assert len(payload["minors"]) == 6


def test_cohomology_json():
    r = run_cli("cohomology", "--example", "rho4", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert (payload["h0"], payload["h1"], payload["h2"]) == (0, 1, 1)


def test_verify_example_text_and_json():
    r = run_cli("verify-example", "--id", "4.5.1", "--prec", "6", "--deg", "6")
    assert r.returncode == 0
    assert "PASS" in r.stdout and "FAIL" not in r.stdout
    assert "result: ok" in r.stdout
    r = run_cli("verify-example", "--id", "4.5.2", "--prec", "6", "--deg", "6", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True and payload["stable"] is True


def test_exit_code_1_indeterminate_message():
    r = run_cli("lfunction", "--example", "rho3", "--prec", "2", "--deg", "1")
    assert r.returncode == 1
    assert "indeterminate (precision exhausted)" in r.stderr


def test_verify_example_specialization_indeterminate():
    # at D = 4 the specialization at x = 5 is exact only mod 11^5, so
    # N = 20 must be reported as precision exhausted, not as a failure
    r = run_cli("verify-example", "--id", "4.5.3a", "--prec", "20", "--deg", "4")
    assert r.returncode == 1
    assert "indeterminate (precision exhausted)" in r.stderr
    assert "needs D >= 19" in r.stderr
    assert "verification failed" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("presentation", "--m", "4", "--n", "1"),
        ("presentation", "--m", "3", "--n", "3"),
        ("fox", "--word", "h3", "--gen", "1"),
        ("fox", "--word", "g1", "--gen", "0"),
        ("char-points", "--m", "3", "--n", "1", "--p", "4"),
        ("char-points", "--m", "3", "--n", "1", "--p", "10007"),
    ],
)
def test_exit_code_2_parameter_errors(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "parameter error" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("lift", "--example", "rho9"),
        ("verify-example", "--id", "4.5.9"),
        ("bogus-subcommand",),
        (),
    ],
)
def test_exit_code_2_argparse_rejections(args):
    r = run_cli(*args)
    assert r.returncode == 2


def test_console_script_installed():
    """The `twobridge` console script declared in pyproject.toml runs the CLI.

    The entry point is loaded from its declared value and called the way the
    wrapper that an install generates calls it, so no install is needed.
    Where an installed `twobridge` script is on PATH, that script runs too.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert "twobridge" in scripts

    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "ep = EntryPoint(name='twobridge', value=sys.argv[1],"
        " group='console_scripts')\n"
        "main = ep.load()\n"
        "sys.argv = ['twobridge'] + sys.argv[2:]\n"
        "sys.exit(main())\n"
    )
    args = ["presentation", "--m", "3", "--n", "1"]
    r = subprocess.run(
        [sys.executable, "-c", wrapper, scripts["twobridge"], *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert "B(3, 1)" in r.stdout

    installed = shutil.which("twobridge")
    if installed:
        r = subprocess.run(
            [installed, *args], capture_output=True, text=True, timeout=300
        )
        assert r.returncode == 0, r.stderr
        assert "B(3, 1)" in r.stdout
