#!/usr/bin/env python3
"""Benchmark of the qborel command line.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; qborel is imported from its
``src/`` directory and nowhere else.  One closed-loop client in one process
drives ``qborel.cli.run_command(argv)`` exactly as a batch user's CLI calls
would: each invocation starts when the previous one returns, and
``QBOREL_WORKERS`` is forced to 1.  A pass runs every invocation of the
workload once, with ``--seed`` set to the pass seed ``30 * (1000 * S + j)``
for pass ``j``, so a run samples many random instances of the identity
suite instead of resting on one draw.  A seed picks its numeric evaluation
point (q = 5, 7 or 9 and the t_ij primes) by its residue mod 30, and some
points cost more than others; every pass seed is a multiple of 30,
so every pass evaluates at the CLI's default point, that of seed 0.  Every
invocation builds its datum afresh, so
the generator-image cache starts cold as it does for a CLI user.  Passes
repeat until T seconds have passed, with at least MIN_PASSES of them.

Every invocation must exit with 0, report ``passed: true`` and list exactly
the case names recorded in ``reference.json`` (for ``pbw`` these carry the
rank strings); anything else counts as failed.

``--trace 0`` prints the end-to-end metrics: the medians over passes of
wall and CPU time per pass, the peak resident set of this process, and the
median set-up time (``import qborel`` plus ``make_datum`` for the
workload's data) over several fresh interpreters.  ``--trace 1`` alternates
untraced and traced passes on the same pass seeds and prints the per-layer
metrics of ``layers.PER_LAYER``, medians over the traced passes, with
``trace.overhead_s`` the traced minus the untraced median pass time.

The last line of standard output is the JSON result; the line before it
holds the run record (machine, versions, revision, seed, quartiles and
sample counts).  The human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each workload is a list of CLI argv lists; --seed and --format json are
# appended to every invocation.
WORKLOADS = {
    # The default symbolic path: Laurent-ring work under eval_free dominates
    # (C_4 arrangements).  --count 2 keeps the randomized identity suite, whose
    # cost swings with the seed, a small share of the pass.
    "symbolic-all": [
        ["verify", "--series", "C", "--rank", "4", "--suite", "all", "--count", "2"],
        ["verify", "--series", "D", "--rank", "4", "--suite", "all", "--count", "2"],
    ],
    # The same suites over Fraction scalars; the Laurent ring is almost idle.
    "numeric-all": [
        ["verify", "--series", "C", "--rank", "4", "--suite", "all",
         "--mode", "numeric", "--count", "2"],
        ["verify", "--series", "D", "--rank", "4", "--suite", "all",
         "--mode", "numeric", "--count", "2"],
    ],
    # Letter products, braided coproducts and exact division over 29
    # variables, with no eval_free at all.
    "coproduct-highrank": [
        ["verify", "--series", "C", "--rank", "8", "--suite", "coproduct",
         "--mode", "symbolic"],
        ["verify", "--series", "D", "--rank", "8", "--suite", "coproduct",
         "--mode", "symbolic"],
    ],
    # Ordered PBW power products and the mod-p rank step.
    "pbw-certificate": [
        ["pbw", "--series", "D", "--rank", "4", "--max-degree", "5"],
        ["pbw", "--series", "C", "--rank", "3", "--max-degree", "6"],
    ],
    # A few seconds in all; used by the benchmark's own tests.
    "smoke": [
        ["verify", "--series", "C", "--rank", "2", "--suite", "all", "--count", "2"],
        ["verify", "--series", "D", "--rank", "3", "--suite", "all", "--count", "2"],
    ],
}

REFERENCE_FILE = HERE / "reference.json"
MIN_PASSES = 3         # untraced passes per run, even past the deadline
SETUP_SAMPLES = 9      # fresh interpreters timed for setup_s
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_qborel(root: Path = ROOT):
    """Import qborel from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "qborel" / "__init__.py").is_file():
        raise BenchmarkError(f"no qborel sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("qborel")
    if Path(pkg.__file__).resolve().parent != (src / "qborel").resolve():
        raise BenchmarkError(f"qborel was imported from {pkg.__file__}, not {src}")
    return importlib.import_module("qborel.cli")


def pass_seed(seed: int, j: int) -> int:
    """The seed of pass j: distinct per (seed, j) for j < 1000, and 0 mod 30."""
    return 30 * (1000 * seed + j)


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- the correctness gate ------------------------------------------------------

def case_names(doc: dict) -> list:
    """Case names of one JSON document, in report order."""
    if "reports" in doc:
        return [c["name"] for r in doc["reports"] for c in r["cases"]]
    return [c["name"] for c in doc["report"]["cases"]]


def check_output(expected: list, seed: int, rc: int, out: str, err: str):
    """None when the invocation passed the gate, else the reason it failed.

    ``expected`` holds the reference case names with ``{seed}`` standing for
    the invocation's seed.
    """
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-300:]}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    if doc.get("passed") is not True:
        return "JSON verdict is not passed: true"
    try:
        got = case_names(doc)
    except (KeyError, TypeError):
        return "JSON document has no case list"
    want = [name.replace("{seed}", str(seed)) for name in expected]
    if got != want:
        missing = [n for n in want if n not in got]
        extra = [n for n in got if n not in want]
        return (f"case list differs from the reference ({len(got)} cases, "
                f"{len(want)} expected; missing {missing[:3]}, "
                f"unexpected {extra[:3]})")
    return None


# -- passes --------------------------------------------------------------------

def invoke(cli, argv: list):
    """Run one CLI invocation in-process: (rc, stdout, stderr, wall, cpu)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run_command(argv)
        except Exception:  # an exception is a failed case, not a crash
            rc = None
            err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def run_pass(cli, workload: str, seed: int, reference: dict, tracer=None) -> dict:
    """One pass over the workload's invocations at one pass seed."""
    wall = cpu = 0.0
    failures, cases = [], 0
    for argv, expected in zip(WORKLOADS[workload], reference[workload]):
        full = argv + ["--seed", str(seed), "--format", "json"]
        if tracer is None:
            rc, out, err, w, c = invoke(cli, full)
        else:
            with tracer:
                rc, out, err, w, c = invoke(cli, full)
        wall += w
        cpu += c
        reason = check_output(expected, seed, rc, out, err)
        if reason is None:
            cases += len(expected)
        else:
            failures.append(f"{' '.join(full)}: {reason}")
    return {"seed": seed, "wall": wall, "cpu": cpu, "cases": cases,
            "attempted": len(WORKLOADS[workload]), "failures": failures}


# -- set-up time ---------------------------------------------------------------

_SETUP_PROGRAM = """
import json, sys, time
t0 = time.perf_counter()
import qborel
for series, rank, mode, seed in json.loads(sys.argv[1]):
    qborel.make_datum(series, rank, mode, seed=seed)
print(time.perf_counter() - t0)
"""


def datum_spec(argv: list, seed: int) -> list:
    """(series, rank, mode, seed) of the datum the CLI builds for argv."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    rank = int(opts["--rank"])
    mode = opts.get("--mode", "auto")
    numeric = mode == "numeric" or (mode == "auto" and rank >= 5)
    return [opts["--series"], rank, "numeric" if numeric else "multiparameter", seed]


def measure_setup(workload: str, seed: int, root: Path = ROOT) -> list:
    """Seconds for ``import qborel`` plus the workload's make_datum calls,
    once per fresh interpreter."""
    specs = json.dumps([datum_spec(argv, seed) for argv in WORKLOADS[workload]])
    env = dict(os.environ, PYTHONPATH=str(root / "src"), QBOREL_WORKERS="1")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROGRAM, specs],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- statistics and the run record -----------------------------------------------

def summary(values: list) -> dict:
    """Median, quartiles and sample count; a high percentile only once at
    least ten samples lie beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def git_revision(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(args) -> dict:
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "absent"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_revision": git_revision(),
            "QBOREL_WORKERS": "1 (forced)",
            "argv": WORKLOADS[args.workload]}


# -- runs ------------------------------------------------------------------------

def untraced_run(cli, args, reference: dict, record: dict) -> dict:
    record["setup_s"] = summary(measure_setup(args.workload, pass_seed(args.seed, 0)))
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, args.workload, pass_seed(args.seed, len(passes)),
                               reference))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["wall_s"] = summary([p["wall"] for p in passes])
    record["cpu_s"] = summary([p["cpu"] for p in passes])
    record["peak_rss_mb"] = peak_rss_mb
    values = {"wall_s": record["wall_s"]["median"], "cpu_s": record["cpu_s"]["median"],
              "peak_rss_mb": peak_rss_mb, "setup_s": record["setup_s"]["median"]}
    return {"passes": passes, "metrics": {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()}}


def traced_run(cli, args, reference: dict, record: dict) -> dict:
    plain, traced, per_pass, tracers = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        seed = pass_seed(args.seed, len(traced))
        plain.append(run_pass(cli, args.workload, seed, reference))
        tracer = layers.Tracer()
        traced.append(run_pass(cli, args.workload, seed, reference, tracer))
        tracers.append(tracer)
    overhead = (statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in plain))
    for tracer, p in zip(tracers, traced):
        per_pass.append(tracer.metrics(p["cases"], overhead))
    record["traced_wall_s"] = summary([p["wall"] for p in traced])
    record["untraced_wall_s"] = summary([p["wall"] for p in plain])
    record["edges_first_pass"] = tracers[0].edge_table()
    return {"passes": plain + traced, "metrics": {
        name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
        for name, unit, _better in layers.PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_qborel()
        reference = load_reference()
        if len(reference.get(args.workload, ())) != len(WORKLOADS[args.workload]):
            raise BenchmarkError(f"no reference case lists for {args.workload}")
    except (BenchmarkError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.environ["QBOREL_WORKERS"] = "1"
    record = machine_record(args)
    try:
        run = (traced_run if args.trace else untraced_run)(cli, args, reference, record)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    passes = run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record.update(passes=len(passes), pass_seeds=[p["seed"] for p in passes],
                  fail_ratio=len(failures) / attempted, failures=failures[:20])
    for name, m in run["metrics"].items():
        print(f"{args.workload:>18} {name:<40} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>18} {'fail_ratio':<40} {len(failures)}/{attempted}",
          file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
