"""Layered benchmark of dicke-sim.

Run from the repository root:

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --out base.json
    python3 perfbench/run.py --compare base.json new.json
    python3 perfbench/run.py --negative-controls

One process, one client, closed loop: each repetition starts when the last
one ends, and ensembles run with workers=1.  The program is imported from
`src/` next to this directory.  Measured times are scaled to a reference
machine speed (`reference.py`).  With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it holds the per-layer metrics.  The lines above it name every
metric with its unit, the machine, and (`record ...`) the full result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the benchmark is a single client on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402  (imports numpy, after the thread settings)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("lossy-ensemble", "adaptive-estimate", "cascade", "oracle-verify")
SETUP_PROBES = 9  # cold starts per run; setup_s is their median at the reference speed
ENSEMBLES = ("lossy-ensemble", "adaptive-estimate")
NAMED_BETTER = {"trials_per_s": "higher", "cascade_2048_s": "lower", "verify_s": "lower",
                "op_wall_ms": "lower", "error_rate": "lower"}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


def _import_program() -> None:
    if not (SRC / "dicke_sim" / "__init__.py").is_file():
        raise BenchError(f"no dicke_sim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dicke_sim

    if Path(dicke_sim.__file__).resolve().parent != (SRC / "dicke_sim").resolve():
        raise BenchError(f"imported dicke_sim from {dicke_sim.__file__}, not from {SRC}")


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


# --- set-up ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """What a cold start pays: import the CLI, then build the workload inputs."""
    import dicke_sim.cli  # noqa: F401

    import workloads

    workloads.build(workload, seed, smoke)


def time_setup(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    """Cold-start times at the reference speed, the kernel timed around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    before = reference.time_kernel()
    for _ in range(probes):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child at up to 50 ms steps
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = reference.time_kernel()
        times.append(reference.scaled(elapsed, (before + after) / 2.0))
        before = after
    return times


# --- measuring -------------------------------------------------------------------


def measure_for(workload, seconds: float) -> list:
    """Closed loop: repetitions back to back until `seconds` have passed (at least one).

    The reference kernel runs between repetitions; each repetition keeps the
    mean of the kernel's times just before and just after it.
    """
    reps = []
    deadline = time.perf_counter() + seconds
    before = reference.time_kernel()
    while not reps or time.perf_counter() < deadline:
        rep = workload.run()
        after = reference.time_kernel()
        rep.kernel_s = (before + after) / 2.0
        reps.append(rep)
        before = after
    return reps


def op_ms(reps: list) -> float:
    """Median headline time at the reference speed, in ms."""
    return statistics.median(reference.scaled(r.headline_s, r.kernel_s) for r in reps) * 1e3


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine(seed: int) -> dict:
    import platform

    import cpuinfo
    import numpy

    return {
        "cpu": cpuinfo.get_cpu_info().get("brand_raw", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(args) -> dict:
    import workloads
    from dicke_sim import harness
    from tracing import Tracer, call_timer

    setup = [] if args.trace else time_setup(
        args.workload, args.seed, args.smoke, 2 if args.smoke else SETUP_PROBES
    )
    wl = workloads.build(args.workload, args.seed, args.smoke)
    _, outputs = wl.warmup()
    if args.trace:
        from layers import per_layer_metrics

        with call_timer(harness, "ml_phase_estimate") as estimator_s:
            plain = measure_for(wl, args.seconds / 2.0)
        tracer = Tracer()
        with tracer.installed():
            traced = measure_for(wl, args.seconds / 2.0)
        reps = plain + traced
        metrics, notes = per_layer_metrics(args.workload, tracer, plain, traced, estimator_s)
    else:
        reps = measure_for(wl, args.seconds)
        metrics = {
            "op_ms": op_ms(reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = []
    attempted = sum(r.ops for r in reps)
    failed = wl.failed_ops(outputs, reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "repetitions": len(reps),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "machine": machine(args.seed),
    }
    if not args.trace:
        wall_ms = statistics.median(r.headline_s for r in reps) * 1e3
        record["named"] = named_metrics(args.workload, metrics, wall_ms, attempted, failed)
        if len(reps) > 1:
            q1, _, q3 = statistics.quantiles(
                (reference.scaled(r.headline_s, r.kernel_s) * 1e3 for r in reps), n=4)
            record["op_ms_quartiles"] = [q1, q3]
    return record


def named_metrics(workload: str, metrics: dict, wall_ms: float, attempted: int,
                  failed: int) -> dict:
    """The end-to-end rows under their workload-specific names, where they apply.

    They are at the reference speed, as `op_ms` is; `op_wall_ms` is the plain
    median wall time of the headline operation.
    """
    op_s = metrics["op_ms"] / 1e3
    named = {}
    if workload in ENSEMBLES:
        named["trials_per_s"] = (1.0 / op_s, "trials/s")
    elif workload == "cascade":
        named["cascade_2048_s"] = (op_s, "s")
    else:
        named["verify_s"] = (op_s, "s")
    named["op_wall_ms"] = (wall_ms, "ms")
    named["setup_s"] = (metrics["setup_s"], "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    named["error_rate"] = (failed / attempted, "failed/attempted")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


# --- output ----------------------------------------------------------------------


def emitted(record: dict, spec: dict) -> dict:
    """Every metric BENCHMARK.json lists for this mode, in its order, with its unit."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in listed}


def print_record(record: dict, spec: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}  repetitions {record['repetitions']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, m in emitted(record, spec).items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    for name, m in record.get("named", {}).items():
        print(f"  named {name:<46} {m['value']:>16.6g} {m['unit']}")
    for note in record["notes"]:
        print("  " + note)
    if record["trace"]:
        print(f"  failed {record['failed']} of {record['attempted']} operations")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": emitted(record, spec),
    }))


def write_results(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"results": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args, spec: dict) -> list[dict]:
    """Each workload in its own interpreter, so peak RSS is its own."""
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True,
                             timeout=900).stdout
        line = next(l for l in reversed(out.splitlines()) if l.startswith("record "))
        records.append(json.loads(line[len("record "):]))
    if args.trace:
        for record in records:
            print_record(record, spec)
        return records
    rows = ["trials_per_s", "cascade_2048_s", "verify_s", "op_wall_ms", "setup_s", "peak_rss_mb",
            "error_rate"]
    print(f"{'metric':<16}{'unit':<18}" + "".join(f"{r['workload']:>20}" for r in records))
    for row in rows:
        cells = [r["named"].get(row) for r in records]
        unit = next(c["unit"] for c in cells if c)
        print(f"{row:<16}{unit:<18}" + "".join(
            f"{c['value']:>20.6g}" if c else f"{'-':>20}" for c in cells))
    print("machine " + json.dumps(records[0]["machine"], sort_keys=True))
    return records


# --- negative controls and compare ---------------------------------------------------


def negative_controls() -> bool:
    """Two deliberately wrong outputs; each must register as a failed operation."""
    import workloads
    from dicke_sim.verify import SuiteParams

    suite = workloads.OracleVerify(SuiteParams(corrupt_xi=True), ("split_reconstruction",))
    rep, outputs = suite.warmup()
    verify_failed = suite.failed_ops(outputs, [rep])

    ensemble = workloads.build("lossy-ensemble", 0, smoke=True)
    _, (text, traces, estimates) = ensemble.warmup()
    clean = ensemble.failures((text, traces, estimates))
    tampered = workloads.tamper_first_probability(traces)
    caught = ensemble.failures((text, tampered, estimates))
    results = [
        (verify_failed == 1, f"split_reconstruction with corrupt_xi=True: {verify_failed} of 1 failed"),
        (clean == 0 and caught >= 1,
         f"tampered label probability: {caught} trial(s) failed (untampered: {clean})"),
    ]
    for ok, what in results:
        print(f"negative control {'caught' if ok else 'MISSED'}: {what}")
    return all(ok for ok, _ in results)


def compare(path_a: str, path_b: str, spec: dict) -> None:
    """For every metric x workload, print new/base with the base value."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better.update(NAMED_BETTER)

    def load(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        table = {}
        for r in doc["results"]:
            table.update({(r["workload"], k): v for k, v in r["metrics"].items()})
            table.update({(r["workload"], k): m["value"] for k, m in r.get("named", {}).items()})
        return table

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<20}{'metric':<52}{'base':>14}{'new':>14}{'new/base':>10}  better")
    for key in sorted(set(a) | set(b)):
        base, new = a.get(key), b.get(key)
        ratio = f"{new / base:.3f}" if base and new is not None else "-"
        fmt = lambda v: f"{v:.6g}" if v is not None else "-"  # noqa: E731
        print(f"{key[0]:<20}{key[1]:<52}{fmt(base):>14}{fmt(new):>14}{ratio:>10}"
              f"  {better.get(key[1], '')}")


# --- entry point -----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the result records to this JSON file")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--negative-controls", action="store_true", dest="negative_controls")
    p.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.workload or args.compare or args.negative_controls):
        p.error("one of --workload, --compare or --negative-controls is required")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = _spec()
        args.seconds = args.seconds or float(spec["run_seconds"])
        if args.compare:
            compare(*args.compare, spec)
            return 0
        _import_program()
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke)
            return 0
        if args.negative_controls:
            return 0 if negative_controls() else 1
        if args.workload == "all":
            records = run_all(args, spec)
            if not (args.trace or negative_controls()):
                return 1
        else:
            records = [run_workload(args)]
            print_record(records[0], spec)
        if args.out:
            write_results(args.out, records)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
