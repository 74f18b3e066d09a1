"""Self-test of the checks: each workload runs one round on tiny inputs,
then one answer is corrupted and must be counted as a failed operation
(and, being a seeded input, make the run incorrect).  A corrupted answer
may trip more than one check: its coordinate-change twin (unram) or its
re-run at precision M + 6 (ramified) then disagrees too."""

from __future__ import annotations

import copy

import workloads as W
from run import cli_failures, cli_round
from worker import check, run_round, setup


def _corrupt(workload, out):
    out = copy.deepcopy(out)
    if workload == "oracle":
        out["verdict"]["p_rank"] += 1
    elif workload == "ramified":
        out["coords"][0] += 1
    else:
        out["torsion"] = [] if out["torsion"] else [2]
    return out


def self_test() -> int:
    ok = True
    for workload in ("unram", "ramified", "oracle"):
        cli, cases = setup(workload, seed=0, tiny=True)
        outs, _ = run_round(workload, cli, cases)
        faults = sum(1 for c in cases if c.fault)
        failed, unexpected = check(workload, cli, cases, [outs])
        i = next(i for i, c in enumerate(cases) if not c.fault)
        bad = list(outs)
        bad[i] = _corrupt(workload, outs[i])
        failed2, unexpected2 = check(workload, cli, cases, [bad])
        good = (failed == faults and not unexpected
                and failed2 > failed and bool(unexpected2))
        ok &= good
        print(f"{workload}: {len(cases)} ops, clean round {failed} failed "
              f"({faults} known faults); corrupted round {failed2} failed, "
              f"{len(unexpected2)} wrong: {'ok' if good else 'FAIL'}")
    pairs = W.cli_cases(seed=0, tiny=True)
    outs = cli_round(pairs)
    bad = copy.deepcopy(outs)
    bad[0]["stdout"] = bad[0]["stdout"].replace("Z_", "Z/", 1)
    clean, corrupted = cli_failures(pairs, [outs]), cli_failures(pairs, [bad])
    good = not clean and bool(corrupted)
    ok &= good
    print(f"cli: {len(pairs)} processes, clean round {len(clean)} failed; "
          f"corrupted round {len(corrupted)} failed: "
          f"{'ok' if good else 'FAIL'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
