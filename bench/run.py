"""Benchmark for ``wavets``: one workload, one seed, one process.

Usage, from the repository root::

    python3 bench/run.py --workload forecast-default --seed 0 --seconds 25 --trace 0

The run imports ``wavets`` from ``src/``, generates the workload's inputs
from ``--seed`` (several times, to time set-up and to check that the same
seed gives the same files), then drives the real CLI in-process through
``wavets.cli.main(argv)``, repeating the workload's command sequence in a
fresh directory per pass until ``--seconds`` have passed (at least three
passes). It checks every pass's outputs and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``: medians over set-ups and passes. With ``--trace 1`` the
same untraced passes run first, then one more pass, set-up included, runs
with every listed ``wavets`` function wrapped in a span; the metrics are
the per-layer ones, and the spans are written to ``.bench_runs/``. A
per-layer metric of a layer or stage the workload never runs reads 0.

Times of set-up and CLI commands are reference seconds (see
``bench/speed.py``); raw seconds are printed on standard error. Span
durations are raw seconds, without the clock's probes and the tracer's own
counting.

Failures are counted, never hidden: a non-zero exit, each ``error:`` line
and each failed ablate cell adds one to ``failed``, and any failed check
makes ``correct`` false.
"""

import argparse
import contextlib
import dataclasses
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Cap the BLAS thread pools at the core count before numpy loads."""
    cores = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, plus failed checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def run_command(wavets, argv: list[str], tracer=None):
    """One CLI call in-process; returns (exit code, stdout, stderr, clock).
    The clock's probes are kept off ``tracer``'s span clock."""
    from bench.speed import SpeedClock

    out, err = io.StringIO(), io.StringIO()
    with SpeedClock(tracer.exclude if tracer else None) as clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wavets.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command; its traceback stays visible
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), clock


def run_pass(wavets, workload, in_dir: Path, out_dir: Path, tally: Tally, tracer=None):
    """Run the workload's command sequence once and check its outputs.
    Returns (stdout per command, reference seconds per command, raw seconds)."""
    from bench.workloads import count_failures

    out_dir.mkdir(parents=True)
    stdout, seconds, raw_total = {}, {}, 0.0
    for command, argv in workload.commands(in_dir, out_dir):
        span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
        with span:
            code, out, err, clock = run_command(wavets, [str(a) for a in argv], tracer)
        stdout[command], seconds[command] = out, clock.seconds
        raw_total += clock.raw_s
        tally.attempted += 1
        if code != 0:
            tally.failed += 1
            tally.problems.append(f"{command} exited with {code}")
        tally.failed += count_failures(err)
        if err.strip():
            sys.stderr.write(f"[{command}] {err}")
    tally.attempted += workload.items()
    try:
        tally.problems += workload.check(in_dir, out_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.problems.append(f"output check failed: {exc!r}")
    return stdout, seconds, raw_total


def same_files(paths_a, paths_b) -> bool:
    """Whether the files exist and hold the same bytes, pairwise."""
    try:
        return all(filecmp.cmp(a, b, shallow=False) for a, b in zip(paths_a, paths_b))
    except OSError:
        return False


def input_files(in_dir: Path) -> list[Path]:
    return sorted(p for p in in_dir.iterdir() if p.is_file())


def result_line(tally: Tally, values: dict, trace: bool) -> str:
    """The result JSON, with exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def measure(wavets, workload, seed: int, seconds: float, trace: bool, work: Path,
            import_s: float) -> str:
    from bench import layers
    from bench.spans import Tracer
    from bench.speed import SpeedClock
    from bench.workloads import failed_share

    tally = Tally()
    generate_s = []
    for k in range(SETUP_REPS):
        in_dir = work / f"inputs-{k}"
        in_dir.mkdir()
        with SpeedClock() as clock:
            workload.generate(wavets, seed, in_dir)
        generate_s.append(clock.seconds)
    in_dir = work / "inputs-0"
    for k in range(1, SETUP_REPS):
        if not same_files(input_files(in_dir), input_files(work / f"inputs-{k}")):
            tally.problems.append("one seed generated different inputs")

    first = work / "pass-0"
    stdouts, walls, raw_walls, command_s = [], [], [], {}
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        out_dir = work / f"pass-{len(walls)}"
        stdout, secs, raw = run_pass(wavets, workload, in_dir, out_dir, tally)
        stdouts.append(stdout)
        walls.append(sum(secs.values()))
        raw_walls.append(raw)
        for command, s in secs.items():
            command_s.setdefault(command, []).append(s)
        if out_dir != first:
            if not same_files(workload.primary_outputs(first), workload.primary_outputs(out_dir)):
                tally.problems.append(f"{out_dir.name} output differs from pass-0")
            shutil.rmtree(out_dir)
    wall_s = statistics.median(walls)
    print(f"{workload.name} seed {seed}: {len(walls)} passes; wall_s "
          f"{[round(w, 3) for w in walls]}; raw {[round(w, 3) for w in raw_walls]}",
          file=sys.stderr)

    if not trace:
        return result_line(tally, {
            "setup_s": import_s + statistics.median(generate_s),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, trace=False)

    values = dict.fromkeys(("forecast_series_per_s", "tokenize_windows_per_s",
                            "train_tokens_per_s", "relative_wql", "relative_mase",
                            "relative_vrse", "roundtrip_rmse"), 0.0)
    median_s = {c: statistics.median(s) for c, s in command_s.items()}
    try:
        values.update(workload.stage_metrics(in_dir, first, stdouts[0], median_s))
        values["seq_model.horizon_nll"] = workload.horizon_nll(wavets, in_dir, first)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        tally.problems.append(f"stage metrics failed: {exc!r}")
        values["seq_model.horizon_nll"] = float("nan")

    tracer = Tracer()
    traced_in, traced_out = work / "inputs-traced", work / "pass-traced"
    traced_in.mkdir()
    layers.install(tracer)
    try:
        workload.generate(wavets, seed, traced_in)
        _, traced_secs, _ = run_pass(wavets, workload, traced_in, traced_out, tally, tracer)
    finally:
        tracer.restore()
    trace_path = work.parent / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    if not same_files(input_files(in_dir), input_files(traced_in)):
        tally.problems.append("traced set-up generated different inputs")
    if not same_files(workload.primary_outputs(first), workload.primary_outputs(traced_out)):
        tally.problems.append("traced pass output differs from the untraced one")

    values.update(layers.layer_metrics(tracer))
    values["trace.overhead_s"] = sum(traced_secs.values()) - wall_s
    values["setup.import_s"] = import_s
    values["failed_share"] = failed_share(tally.failed, tally.attempted)
    print(f"spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}",
          file=sys.stderr)
    return result_line(tally, values, trace=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    src = ROOT / "src"
    if not (src / "wavets" / "__init__.py").is_file():
        print(f"error: no wavets sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from bench.speed import SpeedClock

    with SpeedClock() as clock:
        import wavets
        import wavets.cli
    import_s = clock.seconds
    if Path(wavets.__file__).resolve().parent != src / "wavets":
        print(f"error: imported wavets from {wavets.__file__}, not {src}", file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        line = measure(wavets, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
