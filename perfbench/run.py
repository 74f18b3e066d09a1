"""e0struct benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Workloads: unram, ramified, oracle
(in-process, one worker process each, see worker.py) and cli (sequential
`python -m e0struct.cli` processes).  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Raw results and traces go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402
from tracer import CACHE_ENTRIES, LAYER_METRICS, parse_importtime  # noqa: E402

WORKLOADS = ("unram", "ramified", "oracle", "cli")
SETUP_SAMPLES = 3
PROCESS_TIMEOUT = 150  # seconds; one run must end within 180

END_TO_END_UNITS = {"setup_s": "s", "curves_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name):
    return "ms" if name.endswith("_ms") else "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    return env


class RunFailed(RuntimeError):
    pass


# -- processes -------------------------------------------------------------------

def worker(workload, seed, seconds, mode):
    """(setup seconds from process start to READY, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=PROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RunFailed(f"worker {mode} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def timed_process(cmd, stdin_text=None):
    t0 = perf_counter()
    proc = subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, env=child_env(), cwd=ROOT,
                          timeout=PROCESS_TIMEOUT)
    return perf_counter() - t0, proc


def import_only_seconds():
    dt, proc = timed_process([sys.executable, "-c", "import e0struct"])
    if proc.returncode != 0:
        raise RunFailed(f"import e0struct failed: {proc.stderr[-500:]}")
    return dt


def import_times():
    """Median over three processes of the -X importtime figures."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, proc = timed_process([sys.executable, "-X", "importtime", "-c",
                                 "import e0struct"])
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def cli_round(pairs, traced_dir=None):
    """Run each (argv, case) as one subcommand process, in order."""
    outs = []
    for i, (argv, case) in enumerate(pairs):
        if traced_dir is None:
            cmd = [sys.executable, "-m", "e0struct.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"),
                   str(traced_dir / f"proc{i}.json"), *argv]
        dt, proc = timed_process(cmd, case.text)
        outs.append({"code": proc.returncode, "stdout": proc.stdout,
                     "wall_s": dt})
    return outs


def typical_batch_rate(op_seconds):
    """Operations per second of a typical round: the batch size over the
    sum, across operations, of each one's median time over the rounds.
    Taking the median per operation keeps a burst of load from the
    machine's other tenants out of the figure."""
    per_op = [statistics.median(ts) for ts in zip(*op_seconds)]
    return len(per_op) / sum(per_op)


def cli_failures(pairs, rounds):
    unexpected = []
    for outs in rounds:
        for i, ((argv, case), out) in enumerate(zip(pairs, outs)):
            why = W.check_cli(argv, case, out["code"], out["stdout"])
            if why is not None:
                unexpected.append((i, why))
    return unexpected


# -- one run -----------------------------------------------------------------------

def run_untraced(workload, seed, seconds):
    if workload == "cli":
        setups = [import_only_seconds() for _ in range(SETUP_SAMPLES)]
        pairs = W.cli_cases(seed)
        rounds = []
        t0 = perf_counter()
        while True:
            rounds.append(cli_round(pairs))
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                break
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        unexpected = cli_failures(pairs, rounds)
        op_seconds = [[o["wall_s"] for o in outs] for outs in rounds]
        raw = {"rounds": rounds, "elapsed_s": elapsed,
               "op_seconds": op_seconds}
        attempted = len(pairs) * len(rounds)
        failed = len(unexpected)
    else:
        setups = [worker(workload, seed, 0, "setup")[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, raw = worker(workload, seed, seconds, "measure")
        setups.append(setup_s)
        rss = raw["peak_rss_mb"]
        attempted, failed = raw["attempted"], raw["failed"]
        unexpected = raw["unexpected"]
    metrics = {"setup_s": statistics.median(setups),
               "curves_per_s": typical_batch_rate(raw["op_seconds"]),
               "peak_rss_mb": rss}
    raw.update({"setup_samples_s": setups, "metrics": metrics})
    return attempted, failed, unexpected, metrics, raw


def run_traced(workload, seed):
    imports = import_times()
    if workload == "cli":
        pairs = W.cli_cases(seed)
        t0 = perf_counter()
        cli_round(pairs)
        base_s = perf_counter() - t0
        tdir = OUT / f"trace-cli-seed{seed}"
        tdir.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        outs = cli_round(pairs, traced_dir=tdir)
        traced_s = perf_counter() - t0
        dumps = [json.loads((tdir / f"proc{i}.json").read_text())
                 for i in range(len(pairs))]
        layer = {}
        for k in dumps[0]["layer"]:
            vals = [d["layer"][k] for d in dumps]
            layer[k] = max(vals) if k == CACHE_ENTRIES else sum(vals)
        unexpected = cli_failures(pairs, [outs])
        attempted, failed = len(pairs), len(unexpected)
        raw = {"processes": dumps}
    else:
        _, base = worker(workload, seed, 0, "pass")
        _, raw = worker(workload, seed, 0, "trace")
        base_s, traced_s = base["elapsed_s"], raw["elapsed_s"]
        layer = raw["layer"]
        attempted, failed = raw["attempted"], raw["failed"]
        unexpected = raw["unexpected"]
    layer.update(imports)
    raw.update({"untraced_round_s": base_s, "traced_round_s": traced_s,
                "overhead_pct": 100 * (traced_s / base_s - 1),
                "import": imports})
    return attempted, failed, unexpected, layer, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show on tiny inputs that a corrupted answer "
                         "is counted as a failed operation")
    args = ap.parse_args()
    if not (SRC / "e0struct" / "__init__.py").is_file():
        print(f"no e0struct sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            attempted, failed, unexpected, values, raw = run_traced(
                args.workload, args.seed)
            metrics = {k: {"value": values[k], "unit": layer_unit(k)}
                       for k in LAYER_METRICS}
            name = f"trace-{args.workload}-seed{args.seed}.json"
            print(f"tracing overhead {raw['overhead_pct']:.1f}% "
                  f"({raw['traced_round_s']:.2f} s traced vs "
                  f"{raw['untraced_round_s']:.2f} s untraced)",
                  file=sys.stderr)
        else:
            attempted, failed, unexpected, values, raw = run_untraced(
                args.workload, args.seed, args.seconds)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
            name = f"result-{args.workload}-seed{args.seed}.json"
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    (OUT / name).write_text(json.dumps(raw, indent=1, default=str))
    for item in unexpected:
        print(f"wrong answer: {item}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
