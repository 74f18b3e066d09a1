"""One in-process workload run: `python3 perfbench/worker.py --workload W
--seed N --seconds S --mode M`.  Started by run.py in a fresh interpreter.

Modes:
  setup    import, generate inputs, warm up; print READY and exit
  measure  setup, READY, then whole rounds of the batch for at least S
           seconds; then the checks; prints one JSON line
  pass     setup, READY, one round, timed as the baseline for the
           tracing overhead; prints one JSON line
  trace    as pass, with the tracer installed before the warm-up
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402

CASES = {"unram": W.unram_cases, "ramified": W.ramified_cases,
         "oracle": W.oracle_cases}


def setup(workload, seed, tiny=False, tracer=None):
    """Import the program, make the inputs, fill the generic caches."""
    from e0struct import cli
    if tracer is not None:
        tracer.install()
    cases = CASES[workload](seed, tiny)
    for c in W.warmup_cases(workload, cases):
        try:
            W.classify_op(cli, c.text)
        except Exception:  # the measured rounds count it
            pass
    return cli, cases


def run_round(workload, cli, cases):
    """Outcomes of one pass over the batch, and the seconds of each."""
    outs, secs = [], []
    for c in cases:
        t0 = perf_counter()
        outs.append(W.run_case(workload, cli, c))
        secs.append(perf_counter() - t0)
    return outs, secs


def check(workload, cli, cases, rounds):
    checker = W.Checker(workload, cases, cli)
    failed, unexpected = checker.count(rounds)
    if workload == "ramified":
        unexpected += checker.precision_stability(rounds[0])
    return failed, unexpected


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "measure", "pass", "trace"])
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    cli, cases = setup(args.workload, args.seed, tracer=tracer)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    rounds, op_seconds = [], []
    t0 = perf_counter()
    while True:
        outs, secs = run_round(args.workload, cli, cases)
        rounds.append(outs)
        op_seconds.append(secs)
        elapsed = perf_counter() - t0
        if args.mode != "measure" or elapsed >= args.seconds:
            break
    rss = peak_rss_mb()
    result = {"rounds": len(rounds), "ops": len(cases),
              "elapsed_s": elapsed, "op_seconds": op_seconds,
              "peak_rss_mb": rss}
    if tracer is not None:
        result.update(tracer.dump())
    failed, unexpected = check(args.workload, cli, cases, rounds)
    result.update({"attempted": len(cases) * len(rounds), "failed": failed,
                   "unexpected": [[i, why, cases[i].text]
                                  for i, why in unexpected[:5]],
                   "n_unexpected": len(unexpected),
                   "first_round": rounds[0]})
    print(json.dumps(result, default=str), flush=True)


if __name__ == "__main__":
    main()
