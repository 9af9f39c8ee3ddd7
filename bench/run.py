"""Benchmark of the twobridge command line, run in-process.

usage: python3 bench/run.py --workload {verify,precision,riley} --seed N
                            --seconds S --trace {0,1}
       python3 bench/run.py --self-test

Each operation is one ``twobridge.cli.main([..., "--json"])`` call with
stdout captured: the CLI subcommand as a user runs it, minus interpreter
start, which set-up covers.  One caller runs a workload's seeded
operation list in whole cycles, single-threaded, until --seconds have
passed; then every output is checked by bench/checks.py, which shares no
code with the package.

Timings are in reference-speed seconds: wall seconds times
NOMINAL_REF_S / (time of reference_loop() measured next to them).  The
reference loop runs after gc.collect() before and after every operation
and every set-up sample, so a machine that runs slower for a
while slows the loop with the operations and the ratio stays put.  Raw
wall seconds and reference times are printed beside the normalised
figures and written to bench/out/.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the
time untraced and half traced (bench/tracing.py) and prints the
per-layer metrics, each per operation; spans and counters go to
bench/out/trace-<workload>-seed<seed>.json.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
# Median of reference_loop() on the machine the reference figures in
# bench/README.md come from (2-core x86-64 VM, CPython 3.11.7).
NOMINAL_REF_S = 0.030

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.twobridge_s": "s",
    "cli.main.self_s": "s/op",
    "verify.run_example.self_s": "s/op",
    "deformations.trace_axioms.self_s": "s/op",
    "deformations.build_family.self_s": "s/op",
    "deformations.universality_certificate.self_s": "s/op",
    "deformations.rep_eval.calls": "count/op",
    "deformations.rep_eval.hit_ratio": "ratio",
    "matrices.word_matrix.calls": "count/op",
    "matrices.word_matrix.letters": "count/op",
    "matrices.mat2_mul.calls": "count/op",
    "padics.series_mul.calls": "count/op",
    "padics.series_mul.self_s": "s/op",
    "padics.series_mul.coeff_products": "count/op",
    "padics.series_add.calls": "count/op",
    "padics.newton.calls": "count/op",
    "padics.newton.self_s": "s/op",
    "padics.ring_new.calls": "count/op",
    "padics.gcd_normal_form.self_s": "s/op",
    "groupring.fox_derivative.calls": "count/op",
    "groupring.fox_derivative.self_s": "s/op",
    "homology.boundary2.self_s": "s/op",
    "homology.l_function.self_s": "s/op",
    "homology.twisted_alexander.self_s": "s/op",
    "homology.torsion_criterion.self_s": "s/op",
    "homology.ad_cohomology.self_s": "s/op",
    "laurent.self_s": "s/op",
    "riley.riley_polynomial.calls": "count/op",
    "riley.riley_polynomial.self_s": "s/op",
    "riley.substitute_second.self_s": "s/op",
    "riley.bivariate_mul.calls": "count/op",
    "riley.char_points.self_s": "s/op",
    "riley.eval_modp.calls": "count/op",
    "riley.relation_holds.calls": "count/op",
    "trace.overhead_ratio": "ratio",
}


# --- reference loop ----------------------------------------------------------


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_MOD = (1 << 221) - 3  # about the size of 11^64, a precision the workloads use


def reference_loop(rounds: int = 16000) -> int:
    """Object allocation, tuple building, dict updates and multi-word
    multiply-mod: the kind of work twobridge does, in fixed amount."""
    x = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11 % _MOD
    table: dict = {}
    cells = []
    for i in range(rounds):
        x = (x * (x | i) + i) % _MOD
        key = (i & 255, x & 1023)
        table[key] = table.get(key, 0) + 1
        cells.append(_Cell(key, x >> 200))
    return len(table) + len(cells)


def ref_time() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


# --- set-up --------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_samples(workload: str, seed: int) -> list[dict]:
    """Fresh interpreters, each importing the CLI and building the inputs;
    timed from process start to the moment the child is ready."""
    samples = []
    ref_before = ref_time()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
        ) as proc:
            try:
                stdout, _ = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError("set-up probe exited with %d" % proc.returncode)
        raw = float(stdout.strip().splitlines()[-1]) - start  # perf_counter is system-wide
        ref_after = ref_time()
        ref = (ref_before + ref_after) / 2
        samples.append({"raw_s": raw, "ref_s": ref, "s": raw * NOMINAL_REF_S / ref})
        ref_before = ref_after
    return samples


# --- the closed loop -------------------------------------------------------------


def call_cli(cli, argv) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv) + ["--json"])
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
        except Exception:  # the operation failed; record it and go on
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Cycles:
    """Timings and outputs of whole cycles of one operation list."""

    def __init__(self, ops):
        self.ops = ops
        self.cycles = 0
        self.samples: list[tuple] = []  # (op index, raw s, ref before, ref after, normalised s)
        self.outputs: list[dict[str, int]] = [{} for _ in ops]  # output text -> times seen
        self.errors: list[list[str]] = [[] for _ in ops]
        self.self_s: dict[str, float] = defaultdict(float)  # traced: normalised self seconds

    def run(self, cli, seconds: float, tracer=None) -> "Cycles":
        start = time.perf_counter()
        ref_before = ref_time()
        while self.cycles == 0 or time.perf_counter() - start < seconds:
            for i, op in enumerate(self.ops):
                if tracer:
                    tracer.trace_id = len(self.samples)
                raw, rc, out, err = call_cli(cli, op.argv)
                ref_after = ref_time()
                factor = NOMINAL_REF_S / ((ref_before + ref_after) / 2)
                self.samples.append((i, raw, ref_before, ref_after, raw * factor))
                if rc == 0:
                    self.outputs[i][out] = self.outputs[i].get(out, 0) + 1
                else:
                    self.errors[i].append("exit %r: %s" % (rc, err.strip()[-500:]))
                if tracer:
                    for name, s in tracer.take_times().items():
                        self.self_s[name] += s * factor
                ref_before = ref_after
            self.cycles += 1
        return self

    def norm_total(self) -> float:
        return sum(s[4] for s in self.samples)


CHECKS = {
    "verify": checks.check_verify,
    "lift": checks.check_lift,
    "lfunction": checks.check_lfunction,
    "riley": checks.check_riley,
    "char-points": checks.check_char_points,
}


def check_outputs(ops, outputs: list[dict[str, int]]) -> dict[tuple[int, str], list[str]]:
    """Problems found in each distinct (operation, output) pair.  Outputs
    that pass their own check are then compared across precisions; a
    mismatch there is charged to both, since either may be the wrong one."""
    problems: dict[tuple[int, str], list[str]] = {}
    parsed = []
    for i, op in enumerate(ops):
        for text in outputs[i]:
            key = (i, text)
            try:
                doc = json.loads(text)
            except ValueError:
                problems[key] = ["output is not one JSON document"]
                continue
            problems[key] = CHECKS[op.kind](doc, *op.params)
            if len(outputs[i]) > 1:
                problems[key].append("output changed between cycles")
            if op.kind in ("lift", "lfunction") and not problems[key]:
                parsed.append((op, key, doc))
    for a in range(len(parsed)):
        for b in range(a + 1, len(parsed)):
            (opa, ka, da), (opb, kb, db) = parsed[a], parsed[b]
            if opa.kind == opb.kind and opa.params[0] == opb.params[0]:
                found = checks.check_reduction(opa.kind, opa.params[0], (*opa.params[1:], da), (*opb.params[1:], db))
                problems[ka] += found
                problems[kb] += found
    return problems


def tally(runs: list[Cycles]) -> tuple[bool, int, int, list[str]]:
    """correct, attempted, failed and the reasons, over runs of one
    operation list.  An operation fails when it errors or its output fails
    a check; correct is false when any output the program did produce is
    wrong."""
    ops = runs[0].ops
    outputs: list[dict[str, int]] = [{} for _ in ops]
    failed = 0
    reasons = []
    for cyc in runs:
        for i, errs in enumerate(cyc.errors):
            failed += len(errs)
            reasons += ["%s: %s" % (" ".join(ops[i].argv), e) for e in errs[:1]]
        for i, seen in enumerate(cyc.outputs):
            for text, count in seen.items():
                outputs[i][text] = outputs[i].get(text, 0) + count
    wrong = False
    for (i, text), found in check_outputs(ops, outputs).items():
        if found:
            failed += outputs[i][text]
            wrong = True
            reasons += ["%s: %s" % (" ".join(ops[i].argv), p) for p in found]
    return not wrong, sum(len(cyc.samples) for cyc in runs), failed, reasons


# --- metrics ---------------------------------------------------------------


def end_to_end(cyc: Cycles, setup: list[dict]) -> tuple[dict, dict]:
    times = [s[4] for s in cyc.samples]
    raw = [s[1] for s in cyc.samples]
    refs = [r for s in cyc.samples for r in s[2:4]]
    metrics = {
        "setup_s": statistics.median(x["s"] for x in setup),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beside = {
        "raw_setup_s": statistics.median(x["raw_s"] for x in setup),
        "raw_op_p50_s": statistics.median(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "ref_median_s": statistics.median(refs),
        "ref_min_s": min(refs),
        "ref_max_s": max(refs),
        "nominal_ref_s": NOMINAL_REF_S,
        "cycles": cyc.cycles,
    }
    return metrics, beside


def per_layer(tracer, traced: Cycles, untraced: Cycles, import_s: float) -> dict:
    n = len(traced.samples)
    counts = tracer.counts
    values = {
        "import.twobridge_s": import_s,
        "trace.overhead_ratio": (traced.norm_total() / traced.cycles) / (untraced.norm_total() / untraced.cycles),
        "deformations.rep_eval.hit_ratio": counts["deformations.rep_eval.hits"]
        / max(1, counts["deformations.rep_eval.calls"]),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = traced.self_s.get(name[: -len(".self_s")], 0.0) / n
        else:
            values[name] = counts[name] / n
    return values


def write_json(path: Path, doc: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def measure(args) -> dict:
    ops = workloads.make_ops(args.workload, args.seed)
    tag = "%s-seed%d" % (args.workload, args.seed)
    if not args.trace:
        setup = setup_samples(args.workload, args.seed)
        from twobridge import cli

        cyc = Cycles(ops).run(cli, args.seconds)
        correct, attempted, failed, reasons = tally([cyc])
        metrics, beside = end_to_end(cyc, setup)
        units = END_TO_END
        write_json(OUT / ("result-%s-trace0.json" % tag), {
            "metrics": metrics, "beside": beside, "setup": setup, "samples": cyc.samples,
            "argv": [op.argv for op in ops], "failures": reasons,
        })
    else:
        ref = ref_time()
        start = time.perf_counter()
        from twobridge import cli

        import_s = (time.perf_counter() - start) * NOMINAL_REF_S / ref
        from tracing import Tracer

        untraced = Cycles(ops).run(cli, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Cycles(ops).run(cli, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        correct, attempted, failed, reasons = tally([untraced, traced])
        metrics = per_layer(tracer, traced, untraced, import_s)
        beside = {"traced_cycles": traced.cycles, "untraced_cycles": untraced.cycles, "traced_ops": len(traced.samples)}
        units = PER_LAYER
        write_json(OUT / ("trace-%s.json" % tag), {
            "metrics": metrics, "beside": beside, "counters": dict(tracer.counts),
            "self_s_per_op": {k: v / len(traced.samples) for k, v in traced.self_s.items()},
            "span_fields": ["id", "parent", "trace_id", "name", "start", "end"], "spans": tracer.spans,
            "argv": [op.argv for op in ops], "failures": reasons,
        })
    for line in reasons[:20]:
        print("FAILED " + line)
    print("beside: " + json.dumps(beside))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


# --- self-test of the checks -------------------------------------------------------


SELF_TEST_OPS = [
    workloads.Op("lift", ("lift", "--example", "rho3", "--prec", "8", "--deg", "8"), ("rho3", 8, 8)),
    workloads.Op("lift", ("lift", "--example", "rho3", "--prec", "12", "--deg", "6"), ("rho3", 12, 6)),
    workloads.Op("lfunction", ("lfunction", "--example", "rho4", "--prec", "8", "--deg", "8"), ("rho4", 8, 8)),
    workloads.Op("riley", ("riley", "--m", "7", "--n", "3"), (7, 3, 11)),
    workloads.Op("char-points", ("char-points", "--m", "7", "--n", "3", "--p", "31"), (7, 3, 31)),
]


def _tamper_lift(doc):
    c = doc["g1"][0][1]
    c[1] = str(int(c[1]) + 1)


def _tamper_point(doc):
    doc["points"].remove(next(q for q in doc["points"] if q["absolutely_irreducible"]))
    doc["count"] -= 1


def _tamper_lambda(doc):
    doc["lambda"] += 1


def _tamper_riley(doc):
    doc["psi"][0][2] += 1


TAMPER = [("lift coefficient changed", 0, _tamper_lift), ("char point dropped", 4, _tamper_point),
          ("lambda changed", 2, _tamper_lambda), ("Riley coefficient changed", 3, _tamper_riley)]


def self_test() -> int:
    """Each tampered output must count as one failed operation, and the
    untampered outputs as none."""
    from twobridge import cli

    clean = Cycles(SELF_TEST_OPS)
    for i, op in enumerate(SELF_TEST_OPS):
        _, rc, out, err = call_cli(cli, op.argv)
        if rc != 0:
            print("self-test: %s exited %r: %s" % (" ".join(op.argv), rc, err))
            return 1
        clean.outputs[i] = {out: 1}
    ok, _, failed, reasons = tally([clean])
    report = {"untampered": {"correct": ok, "failed": failed, "reasons": reasons}}
    all_caught = ok and failed == 0
    for name, i, tamper in TAMPER:
        doc = json.loads(next(iter(clean.outputs[i])))
        tamper(doc)
        cyc = Cycles(SELF_TEST_OPS)
        cyc.outputs = list(clean.outputs)
        cyc.outputs[i] = {json.dumps(doc): 1}
        ok, _, failed, reasons = tally([cyc])
        caught = not ok and failed == 1
        all_caught = all_caught and caught
        report[name] = {"caught": caught, "failed": failed, "reasons": reasons}
    print(json.dumps(report, indent=1))
    print("self-test %s" % ("passed: every tampered output was caught" if all_caught else "FAILED"))
    return 0 if all_caught else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that the output checks catch tampering")
    args = parser.parse_args(argv)
    if not (SRC / "twobridge" / "cli.py").is_file():
        print("twobridge sources not found at %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
