#!/usr/bin/env python3
"""Record the reference case lists that the benchmark's correctness gate
compares against, and write them to perfbench/reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

The numeric evaluation point of a seed depends only on the seed modulo 30
(q on seed mod 3, the t_ij primes on 7 * seed mod 30), so every invocation
is run at seeds 0..29; the case names must agree across all of them once
the seed in the PBW rank strings is replaced by ``{seed}``.  Re-record only
when a change to qborel is meant to change the case lists.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(30)


def record_invocation(cli, argv: list) -> list:
    template = None
    for seed in SEEDS:
        rc, out, err, _wall, _cpu = run.invoke(
            cli, argv + ["--seed", str(seed), "--format", "json"])
        doc = json.loads(out) if rc == 0 else {}
        if doc.get("passed") is not True:
            raise SystemExit(f"{' '.join(argv)} --seed {seed} failed (exit {rc}): "
                             f"{err.strip()[-300:]}")
        names = [n.replace(f"rank at seed {seed}:", "rank at seed {seed}:")
                 for n in run.case_names(doc)]
        if template is None:
            template = names
        elif names != template:
            raise SystemExit(f"{' '.join(argv)}: case names differ at seed {seed}")
    return template


def main(names: list) -> None:
    cli = run.load_qborel()
    os.environ["QBOREL_WORKERS"] = "1"
    reference = run.load_reference() if run.REFERENCE_FILE.exists() else {}
    for name in names or sorted(run.WORKLOADS):
        reference[name] = [record_invocation(cli, argv) for argv in run.WORKLOADS[name]]
        print(f"{name}: {[len(r) for r in reference[name]]} cases", file=sys.stderr)
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
