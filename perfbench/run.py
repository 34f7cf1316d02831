"""quantaflow benchmark: closed-loop rounds of `qflow` commands through
`quantaflow.cli.main`, one client in one process, inputs made from a seed.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 25 --trace 0

Run it from the root of a quantaflow checkout; it imports the package from
`src/`. With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run. `--workload all` runs every workload
in its own process. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
SETUP_CODE = "import quantaflow.cli as cli; cli.build_parser()"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def qflow(cli, argv) -> tuple:
    """Run one qflow command in-process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved_argv, sys.argv = sys.argv, ["qflow", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        rc = -1
    finally:
        sys.argv = saved_argv
    if rc != 0:
        sys.stderr.write(f"qflow {' '.join(argv)} -> {rc}\n{err.getvalue()}")
    return rc, out.getvalue()


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import quantaflow.cli and
    build the argument parser: what every qflow call pays before working."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_rounds(cli, workload, seconds, tracer=None):
    """Closed loop: each round starts when the previous one has finished,
    until `seconds` have passed. With a tracer, even rounds are traced and
    odd rounds are not. Returns a list of dicts, one per round."""
    rounds = []
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and r % 2 == 0
        commands = workload.commands(r)
        if traced:
            tracer.spans = []
            tracer.install()
            root = tracer.open("round")
        t0 = time.perf_counter()
        results = []
        for argv in commands:
            if traced:
                span = tracer.open("cli.main")
            results.append(qflow(cli, argv))
            if traced:
                tracer.close(span)
        duration = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        try:
            problems = workload.check(r, results)
        except Exception:  # a missing or malformed output fails the round
            problems = [traceback.format_exc()]
        for p in problems:
            sys.stderr.write(f"round {r}: {p}\n")
        rounds.append({"duration": duration, "ok": not problems, "traced": traced,
                       "spans": tracer.spans if traced else None})
        r += 1
    return rounds


def with_units(values, section) -> dict:
    """(value, unit) for each metric BENCHMARK.json lists in `section`."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in listed}


def end_to_end(workload, rounds, setup_s) -> dict:
    p50 = statistics.median(x["duration"] for x in rounds)
    return with_units({
        "setup_s": setup_s,
        "round_p50_s": p50,
        "work_per_s": workload.work_per_round / p50,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, "end_to_end")


def per_layer(rounds) -> dict:
    from tracing import layer_metrics
    traced = [(x["spans"], x["duration"]) for x in rounds if x["traced"]]
    untraced = [x["duration"] for x in rounds if not x["traced"]]
    return with_units(layer_metrics(traced, untraced), "per_layer")


def write_spans(path, spans) -> None:
    """The spans of one traced round as JSON lines, times from its start."""
    index = {s: i for i, s in enumerate(spans)}
    threads = {}
    t0 = spans[0].start
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({
                "id": index[s], "name": s.name, "start": s.start - t0, "end": s.end - t0,
                "parent": index.get(s.parent), "round": 0,
                "thread": threads.setdefault(s.thread, len(threads)), "items": s.items,
            }) + "\n")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "env": {k: os.environ.get(k) for k in ("QF_THREADS", *BLAS_ENV)},
    }


def report(workload, rounds, metrics, trace) -> None:
    failed = sum(not x["ok"] for x in rounds)
    traced = sum(x["traced"] for x in rounds)
    print(f"workload {workload.name}: {len(rounds)} rounds ({traced} traced), "
          f"failed_frac {failed}/{len(rounds)} = {failed / len(rounds):.3f}")
    if not trace:
        print(f"  work_per_s is {workload.rate_name}: {workload.work_unit} per second "
              f"at the median round")
        print(f"  round_p90_s omitted: it needs at least 100 rounds, "
              f"this run has {len(rounds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import quantaflow.cli as cli
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        if workload.threads is not None:
            os.environ["QF_THREADS"] = workload.threads
        if args.trace:
            from tracing import Tracer
            rounds = run_rounds(cli, workload, args.seconds, Tracer())
            metrics = per_layer(rounds)
            write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", rounds[0]["spans"])
            dominant = json.loads((HERE / "layer_map.json").read_text()) \
                ["workloads"][args.workload]["dominant_layers"]
            share = sum(metrics[f"{layer}.share"][0] for layer in dominant)
            print(f"why: {'+'.join(dominant)} = {100 * share:.1f}% of round time "
                  f"({'confirmed' if share > 0.8 else 'refuted'}: more than 80% expected)")
        else:
            setup_s = setup_seconds()
            rounds = run_rounds(cli, workload, args.seconds)
            metrics = end_to_end(workload, rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(workload, rounds, metrics, args.trace)
    print("provenance " + json.dumps(provenance(args)))
    failed = sum(not x["ok"] for x in rounds)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(rounds), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sim", "verify", "calib", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantaflow" / "cli.py").is_file():
        print(f"perfbench: no quantaflow sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
