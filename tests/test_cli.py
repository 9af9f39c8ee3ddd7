"""Command-line contract: subcommands, exit codes, deterministic JSON."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twobridge import cli
from twobridge.riley import BivariatePoly
from twobridge.words import MAX_WORD_LETTERS

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


# SHA-256 of the --json stdout of each command at the default N = D = 8,
# with its exit code; regenerate only for an intended output change
GOLDEN_JSON = [
    ("lift --example rho1", 0, "7746bc9ba2a9803f56a45383e4eea8c171d3bcf2582c5bc6628ad2181f31ddb4"),
    ("lift --example rho2", 0, "8d6e5718231e8eb9c7257a76cbb5d716dd4ec41cd54ef81475a8ebc609b03603"),
    ("lift --example rho3", 0, "61b0793ae06e46f5f1968994286be4a313f756f9bedb1bf10d8c5c9c93c9a3b5"),
    ("lift --example rho4", 0, "81b62be8c7e08a1a50e13513921ce1f8273ed5c528c61f95e22925b1de8f9571"),
    ("lfunction --example rho1", 0, "45d3f6b2c82a673cc6e9da09558dc575a34e8014d6acf8d5cd2ccf2be948c397"),
    ("lfunction --example rho2", 0, "6b2b94956642a8c5768fba6bb5492a241477c8d0350cc021467c88c36e7f8920"),
    ("lfunction --example rho3", 0, "84be8fe1bef5fdbba64e72ff973b7e60038508e149f91f69b56b3ab43232972a"),
    ("lfunction --example rho4", 0, "84740a55d1455cf7c1fc46af5db2acb4890408a0b9427124e90d0234c7dac4bd"),
    ("talex --example rho1", 0, "a6a9de880c667c83203a82aa24bb9357f6f66847f098e67df436011c9d4c16fb"),
    ("talex --example rho2", 0, "942bd09448aa50bf5aa4ca539fc23bd31288e440777a0910ff438b90eddb5864"),
    ("talex --example rho3", 0, "f657a6b568a93da1bc1546c5d3281424de0e5d4a3e135f7904b784d777b6e7be"),
    ("talex --example rho4", 0, "8b6eaf923476fd559b371ee92c4cb5b9d9073b5db68ac4a619ff58bbdf36255d"),
    ("cohomology --example rho1", 0, "d22d9c7f510c0365280aa634a809bb264ac385ed4bbb7e53cc9983fca6e270b3"),
    ("cohomology --example rho2", 0, "75d9a72e78bc890e4f1fca1b4ab28851d0f6cc7718ec7410598e775cfdd3f95b"),
    ("cohomology --example rho3", 0, "3e8e990575e2f82c9b460f25784c98a47362acaf2f76b0a82e10c89f5903c1d3"),
    ("cohomology --example rho4", 0, "e87d8568b6222eac72a6dae44c5a0daaab2ede68ca5f877933a9944537f19d09"),
    ("verify-example --id 4.5.1", 0, "46d7fb588b668e79e31d82088014505c799353bf49ebc0b0550ba11fbc086f81"),
    ("verify-example --id 4.5.2", 0, "a3f160a8b6333e793364295144cb0d1519b841a123e217e686a1ae3c1c418da4"),
    ("verify-example --id 4.5.3a", 0, "a0d210e8d325a7ee84521663ecfd41785fecf96539273ff66b76d06b46d34f88"),
    ("verify-example --id 4.5.3b", 0, "a86a11c4f97e95ecf8d95d2e740fb7a8a38bf54a77d09c5dd8a5f8b041dd85cb"),
    ("riley --m 31 --n -9", 0, "cdeb2e7512d09cd9a6c00df81a319dbe110a3b274ce20bbc9d075e84955e7533"),
    ("riley --m 47 --n -15", 0, "3d73d261ae6c2938970ca4bae24b765d1b5dd71be5b7a4521f34e5a9225e99f2"),
    ("riley --m 63 --n -19", 0, "9e797d090aef452d6eec72690e064b1e1d15581bd481d4a275e5ecafb63cd741"),
    ("riley --m 101 --n -39", 0, "55d6eef25b0c9af71a4d60c108d9c6f4a9c04afd58263ac1f207015ffa2d9806"),
    ("riley --m 151 --n -57", 0, "43d4865cc940af596efdb49cf78e5caa8908e575bf7bb6c20a1cb225d84bc8b4"),
    # the rows whose packed Riley rows need 192-bit and 256-bit slots
    ("riley --m 201 --n -77", 0, "511369bd6117fab8bf808374e97e433937ad9ca11efa2fef07facb4fa46c81bd"),
    ("riley --m 275 --n -93", 0, "1a5d5ceece7d6ef64a0db6590ec8ca4c82c881fc4948a50c659ce63cd92f64df"),
    ("char-points --m 5 --n 3 --p 157", 0, "550564152524f72cc9a6ee28fed6d8acfc8addd756c490ecc0ffff082d6b7ca1"),
    ("char-points --m 7 --n 3 --p 211", 0, "c64d15273bede820088141c5ab3e8f0472d27b080f36281187fac0963b37156a"),
    ("char-points --m 9 --n 5 --p 241", 0, "7b14a1e475cf543eeea3c9cee441f9e80e56132ca883b072fed12f1c7a36eb1f"),
    ("char-points --m 11 --n 5 --p 281", 0, "64dbbdc63c130eb3c49946a505211e0f28280eb4a7c52b92eeb0f1a15bf0affa"),
    ("char-points --m 7 --n 3 --p 1009", 0, "34430a79d24cd374ec444280453e5085ba38b552046150f4b404d1b7e1ad728c"),
    # y-degree 15, so root factors of degree >= 3 get split; a large knot
    # at a small prime; and the 10^4 cap
    ("char-points --m 31 --n -9 --p 101", 0, "89b157d5b989347bd1ffa9116db108caded8539397dbfa68fff92cb0edbd2593"),
    ("char-points --m 63 --n -19 --p 53", 0, "81572846b79fba0d224e9d5b247320a158dec21f21222270ebce1983539e0458"),
    ("char-points --m 5 --n 3 --p 9973", 0, "f2e36e0a691d92d4f5604ec8ccb80f03b61d09c19c8ab323b8aea7e402e71bd5"),
    # away from the default (8, 8): long Newton runs, series specialization,
    # division over Z/p^16, and an indeterminate run (exit 1, empty stdout)
    ("lift --example rho3 --prec 30 --deg 30", 0, "6e8cf76c8bc3f984f6b993b1046ebbc0c55753b1154b2601ccf89ac587da3dfb"),
    ("lift --example rho4 --prec 8 --deg 96", 0, "16d0c8df5282fb0f1efbda3d410ac4e6bee92100f4df7f42100f1d3740040b8c"),
    ("lfunction --example rho4 --prec 46 --deg 46", 0, "d75c4aaab820d3eeacae037792e70b546d925b0540dd53530da3aa21159da3a6"),
    # boundary2 on every series-product path: one-word and two-word
    # Kronecker slots, and the schoolbook product at large coefficients
    ("lfunction --example rho3 --prec 6 --deg 96", 0, "8c2dc7fab9a360d46081c295c9b64905efd799abd3103100ccee629ce248f7dd"),
    ("lfunction --example rho4 --prec 10 --deg 96", 0, "6f6c16dd39a2c52ab2b820d7ae0b0a2e6209d9e5a325b24ee979878eb81c9de0"),
    ("lfunction --example rho3 --prec 60 --deg 60", 0, "5a8d3d38b94ab8b110070e9f3e85bcba0d724e034032d9158efe09423aa7c850"),
    ("verify-example --id 4.5.3a --prec 16 --deg 16", 0, "e790186040b253272402d253feaa53385a47749fec05d62669a564f52032ed58"),
    ("verify-example --id 4.5.3b --prec 16 --deg 16", 0, "103d5ac0eb510655afc24b16f4055455fdb909fe06eccfaf78561e07ddbcf32e"),
    ("verify-example --id 4.5.3b --prec 1 --deg 8", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Newton lifts where the Z_p stage carries most digits (N >> D and
    # N > D), at D = 96, and with no doubling ring at all (N = 1, D = 0)
    ("lift --example rho3 --prec 192 --deg 12", 0, "5eecdd19f5c5b65d5f6ec5531b22a71620c3f3645a3cb2ee46acb6dafb7365b7"),
    ("lift --example rho4 --prec 97 --deg 96", 0, "4b47576590b23909eced75b788a76a554477659dbeeb2cb9348c998150c48f20"),
    ("lift --example rho1 --prec 40 --deg 3", 0, "eb1a99646350d79d756ee3b9ef78876116ec5bd54035f1eb787594361e013940"),
    ("lift --example rho2 --prec 1 --deg 0", 0, "5010a0f8d3d12226d7719ec87135ef471307c2566fe37988ae7f0f26bc936591"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN_JSON, ids=[c for c, _, _ in GOLDEN_JSON])
def test_json_output_golden(command, code, digest, capsys):
    assert cli.main(command.split() + ["--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the text mode of every subcommand, byte for byte
GOLDEN_TEXT = [
    ("presentation --m 7 --n 3", 0, "f408d908177d943c7d91f56e15a50bb2cc026d4d06bcae07244dc1a62c257747"),
    ("fox --word g1 --gen 1", 0, "6a508f7944a91cf61e9d2c3989c50c13dcdc39c7b62800bb2cd3e8aef0923385"),
    ("riley --m 7 --n 3", 0, "d11db82e99d6de0b6f24196eac97a3317b891477ed820d1c4213e87fcf3526e1"),
    ("char-points --m 7 --n 3 --p 211", 0, "09c99bf7146799ecbd23604a5554577d5c7f874b18a47791cbf98c06fc1cb2aa"),
    ("lift --example rho1", 0, "a797e9a59c433f86683ea0e3b21f7ecb79ae438685ed71c7ac0b4c8b74c17647"),
    ("talex --example rho4", 0, "da14ae570d72404ce4b6ab0a7c6b997d52be54733bb8e81d8a0a913092f12cf7"),
    ("lfunction --example rho2", 0, "8870f53e8463dd8050535128f0f18d23ad320addd7596d890505ac8675f067eb"),
    ("cohomology --example rho3", 0, "e2134e1861783da3342c88fd5aa5dbb0c13271952d154ec8c88d435159376bdc"),
    ("verify-example --id 4.5.3b", 0, "019bb48a8603f469ee9c0d1b3f97d8f10e8b427ebac2b560b8e43d24dcd95d76"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN_TEXT, ids=[c for c, _, _ in GOLDEN_TEXT])
def test_text_output_golden(command, code, digest, capsys):
    assert cli.main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TREFOIL = "g1 g2 g1 g2^-1 g1^-1 g2^-1"

# fox on words with spaces, as argv lists: (argv, exit code, sha256 of the
# text stdout, sha256 of the --json stdout)
GOLDEN_FOX = [
    (["fox", "--word", TREFOIL, "--gen", "1"], 0,
     "06ab8f25948531c99de51d5fde6f17f4c7030e934ceba4f250936bd5572d58b1",
     "857489915abc9b920d050d1c72d8434580ceb05da5359160b13a331eb8c60716"),
    (["fox", "--word", TREFOIL, "--gen", "2"], 0,
     "4a3e59feb606f6a42724a8ecef5ba69497df6f8e4fe36637309e8cfe0f6bebe7",
     "8d2839d0d4448e4c7799ea5581c4776474f004b2464ce82a0f13f2dea599bfe7"),
    (["fox", "--word", "g1^-3 g2", "--gen", "1"], 0,
     "c141729eae0893bde23fd3bf08a76211be938b1cc2ff46ed15d47629c2ae2f1d",
     "b24bf68129636a389ba5594a3f91f60975de325ef4872af25b948b79c95b8cd9"),
    (["fox", "--word", "e", "--gen", "1"], 0,
     "d68acaa7e4bd9fdcaeedd39a95af437ff6cf87a2e74c0f0826c07475c7f3966a",
     "6bdac5e5f7b011b8e72b89cefaeca37bb048000e4154ab76a551d6c1b5e3eb72"),
]


@pytest.mark.parametrize("argv,code,text_digest,json_digest", GOLDEN_FOX, ids=[" ".join(a) for a, *_ in GOLDEN_FOX])
def test_fox_output_golden(argv, code, text_digest, json_digest, capsys):
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        assert cli.main(argv + extra) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_builds_no_text(monkeypatch, capsys):
    # under --json the text lines are never built
    def refuse(*args):
        raise AssertionError("text built under --json")

    monkeypatch.setattr(BivariatePoly, "text", refuse)
    assert cli.main(["riley", "--m", "7", "--n", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 7
    with pytest.raises(AssertionError):
        cli.main(["riley", "--m", "7", "--n", "3"])


def test_lift_certificate():
    r = run_cli("lift", "--example", "rho1", "--prec", "6", "--deg", "6", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["certificate"]["ok"] is True
    assert payload["alpha"] == {"p": 3, "N": 6, "residue": "2"}
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


def test_verify_example_lost_precision_indeterminate():
    # the specialized Delta(1) of 4.5.3a is 0 mod 11^2 and agrees with its
    # closed form, so N = 2 cannot decide that it is nonzero: that is
    # precision exhausted, not a FAIL
    r = run_cli("verify-example", "--id", "4.5.3a", "--prec", "2", "--deg", "2")
    assert r.returncode == 1
    assert "indeterminate (precision exhausted)" in r.stderr
    assert "specialized-alexander-at-1" in r.stderr
    assert "N = 2 cannot decide" in r.stderr
    assert "FAIL" not in r.stdout and "result: FAILED" not in r.stdout


# primality is checked before the size guard; above the proven
# Miller-Rabin bound the check refuses to decide
CHAR_POINTS_P_ERRORS = {
    "4": "p must be an odd prime, got 4",
    "9": "p must be an odd prime, got 9",
    "10007": "exhaustive scan guarded at p <= 10^4",
    "1000000007": "exhaustive scan guarded at p <= 10^4",
    "1000000008": "p must be an odd prime, got 1000000008",
    "3317044064679887385961981": "primality is decided only below 3317044064679887385961981, "
    "got 3317044064679887385961981",
}


@pytest.mark.parametrize(
    "args",
    [
        ("presentation", "--m", "4", "--n", "1"),
        ("presentation", "--m", "3", "--n", "3"),
        ("fox", "--word", "h3", "--gen", "1"),
        ("fox", "--word", "g1", "--gen", "0"),
        ("char-points", "--m", "3", "--n", "1", "--p", "4"),
        ("char-points", "--m", "3", "--n", "1", "--p", "10007"),
        ("char-points", "--m", "3", "--n", "1", "--p", "9"),
        ("char-points", "--m", "3", "--n", "1", "--p", "1000000007"),
        ("char-points", "--m", "3", "--n", "1", "--p", "1000000008"),
        ("char-points", "--m", "3", "--n", "1", "--p", "3317044064679887385961981"),
    ],
)
def test_exit_code_2_parameter_errors(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "parameter error" in r.stderr
    if args[0] == "char-points":
        assert r.stderr == "parameter error: %s\n" % CHAR_POINTS_P_ERRORS[args[-1]]


def test_fox_word_at_letter_cap(capsys):
    assert cli.main(["fox", "--word", "g1^%d" % MAX_WORD_LETTERS, "--gen", "1", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["derivative"]) == MAX_WORD_LETTERS


@pytest.mark.parametrize(
    "word,letters",
    [
        ("g1^%d" % (MAX_WORD_LETTERS + 1), MAX_WORD_LETTERS + 1),
        ("g1^2000 g2^-2000 g1", MAX_WORD_LETTERS + 1),
        # the exponent is checked before it is expanded into letters
        ("g1^99999999999", 99999999999),
    ],
)
def test_fox_word_over_letter_cap_is_parameter_error(word, letters):
    r = run_cli("fox", "--word", word, "--gen", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "parameter error: word has %d letters, at most %d allowed\n" % (letters, MAX_WORD_LETTERS)


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


# the parser's own texts, byte for byte: (argv, exit code, sha256 of
# stdout + NUL + stderr) at COLUMNS=80, captured on CPython 3.11 with every
# subparser built on every call
PARSER_TEXTS = [
    ("", 2, "8e5f61810498b59359dd9779457b2070c8d7c0c9cf3b74f05e59d6afd530f1de"),
    ("--help", 0, "f7e73d77f8594b6c69e8da29b5c434f1cd6fc85af77d7e76b6851fb2cfefc4b8"),
    ("-h riley", 0, "f7e73d77f8594b6c69e8da29b5c434f1cd6fc85af77d7e76b6851fb2cfefc4b8"),
    ("presentation --help", 0, "d8f63e72a118aa55a941de80a18fde82fc6318085d2defacd885da82a6d7197d"),
    ("fox --help", 0, "8ff60c22d3f8330dd4b8fda3439cf20ca32d47da8c2db22f68884625028a75a3"),
    ("riley --help", 0, "7a631be22d795f610bf04d42e712dba2b57c7e72e297f5e67c77f4b84a4ce647"),
    ("char-points --help", 0, "3a124717ce40e03dfffb9ebbe652a8450568c958e98bce092f1cae160686d382"),
    ("lift --help", 0, "c0c1fee6f8583afae2ca16b6293af57ee197f3b3175734fb12a645dc1cf555ad"),
    ("talex --help", 0, "7def53c3984411c8eae83e2eb877c49b163d6e452a8d8fa455216759b9192ef8"),
    ("lfunction --help", 0, "8ec5b6a63f84a02b0631e7f50b0b29ea5e2e49733d1acd11359561bed27f0c12"),
    ("cohomology --help", 0, "295671d3f8d0ede32cef12569afd2289025266cb86bb7c191c7740cdbf997802"),
    ("verify-example --help", 0, "353cfb9e858feab5a13fcdb354418d8b04eb65e4752d626ee486bc824bc895dd"),
    ("bogus-subcommand", 2, "c0730d27aa469f8833ba6c7108553b558a607826e18794c6b15d7c0b940a8dde"),
    ("--json riley --m 3 --n 1", 2, "d358e2da6a1b01e79b6866a3885cfa7c4ec6396959ecaf0d0206d101cb40e0f4"),
    ("riley --m 3 --n 1 extra", 2, "97aa451aea6fe868038b70b877195be19d1762df3820565c694972174e19f3b6"),
    ("riley --m x --n 1", 2, "f1d64cb51aa164a36fb69ecf1235251e38a1068444ce41dad99a6085d1364ac0"),
    ("lift --example rho9", 2, "d47dd79314c2bfb10ecb027bc552f3b2d50619690524350f5c486a0ed114475b"),
    ("verify-example --id 4.5.1 --bad", 2, "51dbb4101e9e410cbe1aeb126ca1c0d1f1d1be6d37dae7d465e6bebb66d77a22"),
]


# argparse's help layout and error wording differ between Python versions
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests captured on CPython 3.11")
@pytest.mark.parametrize("command,code,digest", PARSER_TEXTS, ids=[c or "(none)" for c, _, _ in PARSER_TEXTS])
def test_parser_texts_golden(command, code, digest):
    r = subprocess.run(
        CLI + command.split(), capture_output=True, timeout=300, env={**os.environ, "COLUMNS": "80"}
    )
    assert r.returncode == code
    assert hashlib.sha256(r.stdout + b"\0" + r.stderr).hexdigest() == digest


def _run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", [c for c, _, _ in PARSER_TEXTS], ids=[c or "(none)" for c, _, _ in PARSER_TEXTS])
def test_one_subparser_prints_what_the_full_parser_prints(command, capsys, monkeypatch):
    # on any Python: the parser main builds for argv reads the same as the
    # parser with every subparser
    monkeypatch.setenv("COLUMNS", "80")
    got = _run_main(command.split(), capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command: full())
    assert got == _run_main(command.split(), capsys)


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_main_builds_only_the_invoked_subparser(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    assert cli.main(["riley", "--m", "7", "--n", "3", "--json"]) == 0
    assert len(built) == 2
    assert json.loads(capsys.readouterr().out)["m"] == 7


def test_help_builds_every_subparser(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert len(built) == 1 + len(cli.COMMANDS) == 10
    out = capsys.readouterr().out
    assert all(name in out for name in cli.COMMANDS)


def test_import_defines_no_dataclass():
    # the records are NamedTuple or __slots__ classes, so importing the CLI
    # pulls in neither dataclasses nor the inspect module it imports
    code = (
        "import sys\n"
        "import twobridge.cli\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert 'inspect' not in sys.modules\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_closed_stdout_exits_1_without_traceback(flags):
    # as in `twobridge char-points ... | head -1`: the reader goes away
    # before the output is written
    proc = subprocess.Popen(
        CLI + ["char-points", "--m", "7", "--n", "3", "--p", "101"] + flags,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == b""


@pytest.mark.parametrize("m, code", [(101, 0), (1000001, 1)])
def test_out_of_memory_exits_1_with_one_line(m, code):
    # under a 256 MB address-space cap: B(101, 1) fits, while B(1000001, 1),
    # whose presentation takes about 550 MB uncapped, runs out within
    # about a second and ends in one named line on stderr, not a traceback
    limit = 256 << 20
    argv = ["presentation", "--m", str(m), "--n", "1", "--json"]
    child = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
        "from twobridge.cli import main\n"
        "raise SystemExit(main(%r))\n" % (limit, limit, argv)
    )
    r = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=300)
    assert r.returncode == code
    if code:
        assert r.stdout == ""
        assert r.stderr == "out of memory: presentation input too large for the available memory\n"
    else:
        assert json.loads(r.stdout)["m"] == m and r.stderr == ""


def test_runs_without_sympy():
    # no runtime dependencies: with sympy unimportable, the commands that
    # test primality and take square roots mod p still run
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import twobridge.cli\n"
        "for argv in (['char-points', '--m', '7', '--n', '3', '--p', '101', '--json'],\n"
        "             ['lift', '--example', 'rho4', '--json']):\n"
        "    assert twobridge.cli.main(argv) == 0, argv\n"
        "assert sys.modules['sympy'] is None\n"
        "assert not [name for name in sys.modules if name.startswith('sympy.')]\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


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
