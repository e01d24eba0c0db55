"""Command-line front end: split tables, measurements, experiments,
oracle verification, and scaling benchmarks.

Exit codes: 0 success, 2 config error, 3 domain error, 4 verification
failure, 5 resource limit.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time

import numpy as np

from .errors import (ConfigError, DickeSimError, DomainError, EXIT_CONFIG,
                     EXIT_DOMAIN, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY_FAILED,
                     ResourceLimitError)
from .harness import combined_pvm, run_ensemble, run_pvm_cascade
from .measure import measure_state, pvm_from_bloch
from .oracle import apply_kraus_outcomes_at, density_cap, expand_density, partial_trace
from .serialize import SCHEMA_VERSION, dumps_json, rows_to_csv, state_to_json
from .spec import PhaseChannel, convert, load_document, measurement_from_spec, state_from_spec
from .states import general_split, require_state_entries, to_density
from .verify import SuiteParams, random_symmetric_ket, run_suite

BENCH_COLUMNS = [
    "schema_version",
    "n",
    "representation",
    "wall_time_s",
    "repetitions",
    "state_complex_entries",
    "state_bytes",
]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_split(args) -> int:
    coeffs = general_split(args.n, args.nu, args.k)
    total = sum(xi**2 for xi in coeffs.values())
    rows = [{"schema_version": SCHEMA_VERSION, "mu": mu, "xi": xi} for mu, xi in coeffs.items()]
    if args.format == "csv":
        _emit(args, rows_to_csv(rows, ["schema_version", "mu", "xi"]))
    else:
        _emit(
            args,
            dumps_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "n": args.n,
                    "nu": args.nu,
                    "k": args.k,
                    "rows": [{"mu": mu, "xi": xi} for mu, xi in coeffs.items()],
                    "sum_squares": total,
                    "sum_squares_deviation": abs(total - 1.0),
                }
            ),
        )
    return EXIT_OK


def cmd_measure(args) -> int:
    state = state_from_spec(args.state)
    measurement = measurement_from_spec(args.pvm)
    outcomes = measure_state(state, measurement)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "state": args.state,
        "pvm": args.pvm,
        "outcomes": [
            {
                "label": o.label,
                "probability": o.probability,
                "post_state": state_to_json(o.post_state) if o.post_state is not None else None,
            }
            for o in outcomes
        ],
    }
    _emit(args, dumps_json(doc))
    return EXIT_OK


def cmd_simulate(args) -> int:
    convert(int, args.workers, "--workers", lo=1)
    config = load_document(args.config)
    if args.seed is not None and isinstance(config, dict):  # run_ensemble refuses any other document
        config = {**config, "seed": args.seed}
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as sink:
            report = run_ensemble(config, workers=args.workers, trace_sink=sink)
    else:
        report = run_ensemble(config, workers=args.workers)
    _emit(args, dumps_json(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    convert(int, args.max_n, "--max-n", lo=2)
    for flag, value in (("--seeds", args.seeds), ("--workers", args.workers)):
        convert(int, value, flag, lo=1)
    report = run_suite(SuiteParams(args.max_n, args.seeds, args.tolerance, args.corrupt_xi), args.workers)
    _emit(args, dumps_json(report))
    if not report["all_passed"]:
        failing = [p["name"] for p in report["properties"] if not p["passed"]]
        print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _bench_row(n: int, representation: str, times: list[float], entries: int) -> dict:
    """One bench row, keyed by BENCH_COLUMNS; a complex entry takes 16 bytes."""
    values = (SCHEMA_VERSION, n, representation, statistics.median(times), len(times), entries, entries * 16)
    return dict(zip(BENCH_COLUMNS, values))


def bench_compact(n: int, repetitions: int, seed: int) -> dict:
    """Median wall time of a full n-measurement PVM cascade, compact path."""
    detector = pvm_from_bloch(math.pi / 2.0, 0.0)
    kappa = combined_pvm(PhaseChannel(0.7), detector).kappa
    ket = random_symmetric_ket(n, np.random.default_rng(seed))
    initial = [complex(z) for z in ket.amps]
    times = []
    entries = 0
    for rep in range(-1, repetitions):  # rep -1 is an untimed warm-up
        uniforms = np.random.default_rng(seed + max(rep, 0)).random(n).tolist()
        start = time.perf_counter()
        result = run_pvm_cascade(n, kappa, initial, uniforms)
        elapsed = time.perf_counter() - start
        if rep >= 0:
            times.append(elapsed)
        entries = result.state_entries
    return _bench_row(n, "compact", times, entries)


def bench_dense(n: int, repetitions: int, seed: int) -> dict:
    """The naive contrast: a density-matrix cascade on 2^n x 2^n storage."""
    if n > density_cap():
        raise ResourceLimitError(f"dense bench size {n} exceeds cap {density_cap()}")
    detector = pvm_from_bloch(math.pi / 2.0, 0.0)
    kraus = combined_pvm(PhaseChannel(0.7), detector).kraus_pair()
    ket = random_symmetric_ket(n, np.random.default_rng(seed))
    rho0 = expand_density(to_density(ket))
    times = []
    for rep in range(repetitions):
        rng = np.random.default_rng(seed + rep)
        start = time.perf_counter()
        rho = rho0
        for m in range(n, 0, -1):
            results = apply_kraus_outcomes_at(rho, m, kraus)
            label = 0 if rng.random() < results[0][0] else 1
            conditional = results[label][1]
            if m > 1:
                rho = partial_trace(conditional, {m})
            else:
                rho = conditional
        times.append(time.perf_counter() - start)
    return _bench_row(n, "dense", times, 4**n)


def _sizes(spec: str, flag: str) -> list[int]:
    return [convert(int, s, f"{flag} entry", lo=1) for s in spec.split(",") if s]


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    seed = convert(int, args.seed, "--seed", lo=0)
    sizes, dense_sizes = _sizes(args.sizes, "--sizes"), _sizes(args.dense_sizes, "--dense-sizes")
    for n in sizes:
        require_state_entries(n + 1, f"a state of {n} qubits")
    rows = [bench_compact(n, args.reps, seed) for n in sizes]
    rows += [bench_dense(n, args.reps, seed) for n in dense_sizes]
    if args.format == "json":
        _emit(args, dumps_json({"schema_version": SCHEMA_VERSION, "rows": rows}))
    else:
        _emit(args, rows_to_csv(rows, BENCH_COLUMNS))
    return EXIT_OK


# --- parser / entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-sim",
        description="Simulate sequential single-qubit measurements and loss "
        "on permutationally-symmetric qubit strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="branch coefficients of a k-qubit split")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("measure", help="measure one qubit of a compact state")
    p.add_argument("--state", required=True, help="dicke:n,nu | noon:n | uniform:n | file:path")
    p.add_argument("--pvm", required=True, help="computational | hadamard | bloch:t,p | file:path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("simulate", help="run an experiment ensemble from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--trace-out", dest="trace_out",
                   help="write per-trial traces as JSON lines to this path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    suite = SuiteParams()
    p = sub.add_parser("verify", help="run the dense-oracle property suite")
    p.add_argument("--max-n", type=int, default=suite.max_n, dest="max_n")
    p.add_argument("--seeds", type=int, default=suite.seeds)
    p.add_argument("--tolerance", type=float, default=suite.tolerance)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--corrupt-xi", action="store_true", default=suite.corrupt_xi, dest="corrupt_xi",
                   help="negative control: flip one split coefficient's sign")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time full measurement cascades")
    p.add_argument("--sizes", default="512,1024,2048", help="comma-separated compact sizes")
    p.add_argument("--dense-sizes", default="", dest="dense_sizes",
                   help="comma-separated dense contrast sizes (<= dense cap)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=20_260_808)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: an --out or --trace-out path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DickeSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
