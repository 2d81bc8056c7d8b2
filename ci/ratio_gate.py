#!/usr/bin/env python3
"""The one CI step that compares a timing with a committed number.

    perf bench --workload W --seed 2024 --seconds 10 --trace 1 | tail -n 1 \\
        | python3 ci/ratio_gate.py W

Reads the result line of a traced `perf bench` run of workload W on stdin and
exits 1 if the run was not correct or one of W's ratios is past its bound.
Only ratios `perf` forms within one run on one host are gated: they transfer
between hosts, absolute seconds do not.

Each number below is the worst of the traced runs taken at the commit that
introduced the gate (two sets of five per workload; every reading is in
CHANGES.md, PR 24); a ratio fails when it is 30% further in its failing
direction than that. To change one, re-take five runs and edit the number here.
`tersoff.optm_over_ref` was re-taken when the pair kernel's K loop moved into
the per-ISA entries: its number is the worst of the twenty traced readings of
that kernel in CHANGES.md. The bound it gives does not separate the
two kernels (the outlined K loop read 0.42-1.06); `ci/isa_audit.py` is what
fails a K loop that leaves its entry.
"""
import json
import sys

TOLERANCE = 0.30
# workload -> metric -> (failing side, worst reading)
WORST = {
    "si32k_optm_1t": {
        "tersoff.optm_over_ref": ("below", 0.9221),
        "force_engine.tax_ratio": ("above", 1.1441),
    },
    "si32k_dom4_optm_1t": {
        "domain.step_overhead_ratio": ("above", 1.0433),
    },
    "serve_small_jobs": {
        "scenario.execute_over_bare_ratio": ("above", 1.2844),
        "jobs.cache_hit_ratio": ("below", 0.9962),
    },
}


def main():
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    failures = [] if result["correct"] else ["the run reports correct: false"]
    for metric, (side, worst) in WORST[sys.argv[1]].items():
        value = result["metrics"][metric]["value"]
        bound = worst * (1 - TOLERANCE if side == "below" else 1 + TOLERANCE)
        # An unmeasured metric reads 0 in the result line: never a pass.
        past = value <= 0 or (value < bound if side == "below" else value > bound)
        print(f"{metric} = {value:.4f} (fails {side} {bound:.4f})" + ("  <-- FAIL" if past else ""))
        if past:
            failures.append(f"{metric} = {value:.4f} is {side} {bound:.4f}")
    for failure in failures:
        print(f"::error::ratio gate, {sys.argv[1]}: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
