"""Benchmark of the superstar engine; run from the root of a source checkout.

    python3 bench/run.py --workload report --seed 0 --seconds 15 --trace 0

Workloads: ``report`` (the verification report, ``verify suite=all``),
``odd-clifford`` (dense odd-sector products) and ``expr-products`` (wide
products through the CLI entry point), or ``all`` for each of them in turn,
each in its own process.  The program is imported from ``./src``, never from
an installed copy; without it the benchmark exits 2.

Timed rounds repeat while the next one would still end within ``--seconds``
(at least one round).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics of the same rounds, measured by wrapping the program's
public functions (see ``layers.py``).  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A copy with per-round detail is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread: numpy's BLAS must not start a pool (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("products", "report")
SETUP_PROBES = 8
CLI_CALLS = 16
CLI_EXPRESSION = "x1 star x2"
OUT_DIR = Path(".bench_out")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the program and set the workload up, in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _cli_star_call() -> tuple[float, dict]:
    """Wall seconds of one ``superstar star`` process, and its JSON."""
    argv = [sys.executable, "-m", "superstar.cli", "star", "--theta", "1", "--m", "1",
            CLI_EXPRESSION]
    t0 = perf_counter()
    out = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    return perf_counter() - t0, json.loads(out.stdout)


def _check_cli_star(report: dict) -> bool:
    import checks
    want = {0: {((1, 1), (0.0, 0.0)): 1 + 0j, ((0, 0), (0.0, 0.0)): -0.5j}}
    mag = {0: {k: abs(v) for k, v in want[0].items()}}
    return checks.compare_coefficients(checks.words_from_cli(report), want, mag)[0]


def _human(result: dict, workload: str) -> None:
    print(f"workload {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import layers
    import tracing
    import workloads

    setup, run, check = workloads.WORKLOADS[workload]
    state = setup(seed)
    problems: list[str] = []
    setups: list[float] = []
    cli: list[float] = []

    def sample(n_setup: int, n_cli: int) -> None:
        """Set-up and CLI samples, taken between rounds so that they spread
        over the run as the rounds do; the untraced run needs them only."""
        if traced:
            return
        for _ in range(min(n_setup, SETUP_PROBES - len(setups))):
            setups.append(_setup_probe(workload, seed))
        for _ in range(min(n_cli, CLI_CALLS - len(cli))):
            wall, report = _cli_star_call()
            cli.append(wall)
            if not _check_cli_star(report):
                problems.append(f"superstar star {CLI_EXPRESSION!r} gave a wrong product")

    tracer = tracing.Tracer()
    if traced:
        layers.install(tracer)
    else:
        # counts products only; one wrapper, negligible beside a product
        tracer.install_function(sys.modules["superstar.starprod"], "star_general",
                                "starprod.star_general")
    walls: list[float] = []
    cpus: list[float] = []
    products = attempted = failed = 0
    outputs: list = []

    def tally(out) -> None:
        nonlocal attempted, failed
        a, f, p = check(state, out)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    start = perf_counter()
    try:
        # whole rounds while the next one, at the median round time, still
        # ends within the measuring time; always at least one
        while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
            sample(1, 2)
            calls = tracer.layers["starprod.star_general"].calls
            c0, t0 = _cpu(), perf_counter()
            out = run(state)
            walls.append(perf_counter() - t0)
            cpus.append(_cpu() - c0)
            products += tracer.layers["starprod.star_general"].calls - calls
            # untraced runs check each round at once, so that no round's
            # outputs stay in memory; traced runs check after the tracing
            if traced:
                outputs.append(out)
            else:
                tally(out)
    finally:
        tracer.uninstall()
    for out in outputs:
        tally(out)
    sample(SETUP_PROBES, CLI_CALLS)
    rounds = len(walls)

    if traced:
        metrics = layers.metrics(tracer, rounds, statistics.median(walls),
                                 tracing.calibrate())
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "products_per_s": {"value": products / rounds / statistics.median(walls),
                               "unit": "1/s"},
            "cli_star_s": {"value": min(cli), "unit": "s"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    side = {**result, "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(traced), "rounds": rounds, "round_wall_s": walls,
            "round_cpu_s": cpus, "setup_probes_s": setups, "cli_star_samples_s": cli,
            "problems": problems}
    untraced = OUT_DIR / f"{workload}-seed{seed}-trace0.json"
    if traced and untraced.exists():
        base = json.loads(untraced.read_text())["metrics"]["wall_s"]["value"]
        side["measured_overhead_share"] = statistics.median(walls) / base - 1
        print(f"tracing overhead against the untraced run at this seed: "
              f"{side['measured_overhead_share']:+.1%}", file=sys.stderr)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(side, indent=1) + "\n")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one set-up timing
    args = parser.parse_args(argv)

    if not (SRC / "superstar" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'superstar'}; "
              "run from the root of a superstar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload][0](args.seed)
        print(perf_counter() - t0)
        return 0

    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _human(result, args.workload)
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        _human(result, name)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
