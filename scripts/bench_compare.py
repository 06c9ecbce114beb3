#!/usr/bin/env python3
"""Benchmark regression harness.

Four modes:

Kernel mode (--bench): runs bench_micro_perf with google-benchmark's
JSON reporter over the kernel-level benchmarks, compares each one
against the checked-in baseline (BENCH_kernels.json), and fails when a
benchmark regresses beyond the tolerance. With --update, rewrites the
baseline's `after_ns` numbers from the fresh run instead (the
`before_ns` column — the pre-overhaul numbers — is preserved so the
speedup history stays visible).

Parent mode (--bench NEW --parent OLD): alternates the two
bench_micro_perf binaries over three rounds of --repetitions each (the
order flips every round), then gates each tracked benchmark on the
ratio of its median over NEW's runs to its median over OLD's runs, at
the kernel tolerance. Both sides see the same host load, so this
answers "did this change slow a kernel down" where the committed
absolute baseline cannot on a shared host. Each row also prints each
side's own spread (slowest over fastest of its rounds); a failing row
where either spread exceeds the tolerance is marked `noisy`: it still
fails, but the host, not the change, may explain it.

Serve mode (--serve): runs the TCP-transport load generator
(examples/loadgen) against a live NetServer and compares its summary —
throughput (conns/sec, events/sec, samples/sec) and drain latency
quantiles — against BENCH_serve.json. loadgen itself exits non-zero on
any dropped frame or parity mismatch, so a passing run is also a
correctness statement. The serve tolerance is wider than the kernel one:
this is a fixture-heavy end-to-end benchmark.

Tasks mode (--tasks): runs the multi-task mitigation sweep
(bench/bench_tasks) and compares per-task held-out accuracy at every
mitigation level against BENCH_tasks.json. Accuracy is a fraction, so
the gate is an *absolute* drop (default 0.10): a task regresses when
its accuracy falls more than the tolerance below the baseline at the
same mitigation level. Accuracy gains never fail.

Usage:
  scripts/bench_compare.py --bench build/bench/bench_micro_perf
  scripts/bench_compare.py --bench ... --update     # re-baseline
  scripts/bench_compare.py --bench ... --tolerance 0.4
  scripts/bench_compare.py --bench NEW --parent OLD --repetitions 3
  scripts/bench_compare.py --serve build/examples/loadgen
  scripts/bench_compare.py --serve ... --update     # re-baseline
  scripts/bench_compare.py --tasks build/bench/bench_tasks

Wired into CMake as the `bench_check`, `bench_serve_check`, and
`bench_tasks_check` targets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Kernel benchmarks tracked by the baseline. Fixture-heavy end-to-end
# benchmarks (synthesis, multi-threaded serving) are too noisy for a
# regression gate; the single-threaded serve drain (BM_ServeThroughput/1)
# and the per-sample streaming step (BM_StreamingPush) are gated because
# streaming detection is the serve drain's dominant layer.
# google-benchmark filters are partial-match regexes, so entries whose
# name prefixes an untracked variant (BM_SpanOverheadEnabled,
# BM_DatasetBuildCold, ...) are anchored with `/` or `$`.
KERNEL_FILTER = (
    "BM_FftPow2|BM_Rfft|BM_FftBluestein|BM_Stft|BM_Gemm|"
    "BM_FeatureExtraction|BM_TimefreqCnnForward|BM_SpectrogramCnnForward|"
    "BM_BatchedCnnForward|BM_Conv2DBackward|BM_CnnTrainStep$|"
    "BM_TreeTrain/|BM_ForestTrain$|BM_ForestTrainBinned$|BM_PitchTrack$|"
    "BM_DatasetBuildHit$|BM_DatasetDiskHit|"
    "BM_SpanOverhead$|BM_HistogramRecord|"
    "BM_MetricsReplyEncode$|BM_PromText$|"
    "BM_StreamingPush/|BM_ServeThroughput/1$"
)


def run_benchmarks(bench_path: Path, repetitions: int) -> dict[str, float]:
    """Runs the benchmark binary; returns {name: real_time_ns}."""
    cmd = [
        str(bench_path),
        f"--benchmark_filter={KERNEL_FILTER}",
        "--benchmark_format=json",
    ]
    if repetitions > 1:
        cmd += [
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
        ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)

    results: dict[str, float] = {}
    for row in report.get("benchmarks", []):
        name = row["name"]
        if repetitions > 1:
            if row.get("aggregate_name") != "median":
                continue
            name = name.removesuffix("_median")
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        results[name] = float(row["real_time"]) * scale
    return results


# Interleaved rounds per binary in parent mode: the median of three
# absorbs one round disturbed by a load spike on a shared host.
PARENT_ROUNDS = 3


def spread(rounds: list[float]) -> float:
    """Slowest over fastest of one binary's rounds of a benchmark."""
    return max(rounds) / min(rounds)


def row_status(ratio: float, parent_rounds: list[float],
               change_rounds: list[float], tolerance: float) -> str:
    """Parent-mode verdict of one row: `ok`, `REGRESSION`, or
    `REGRESSION noisy` when either binary's own spread exceeds the
    tolerance (host load on either side's rounds can explain it)."""
    if ratio <= 1.0 + tolerance:
        return "ok"
    if max(spread(parent_rounds), spread(change_rounds)) > 1.0 + tolerance:
        return "REGRESSION noisy"
    return "REGRESSION"


def parent_main(args: argparse.Namespace) -> int:
    runs: dict[Path, list[dict[str, float]]] = {args.bench: [],
                                                args.parent: []}
    for r in range(PARENT_ROUNDS):
        order = [args.parent, args.bench]
        for path in order if r % 2 == 0 else reversed(order):
            runs[path].append(run_benchmarks(path, args.repetitions))

    def medians(path: Path) -> dict[str, float]:
        names = set.intersection(*(set(run) for run in runs[path]))
        return {name: statistics.median(run[name] for run in runs[path])
                for name in names}

    new, old = medians(args.bench), medians(args.parent)
    failures = []
    noisy = []
    for name in sorted(set(new) & set(old)):
        ratio = new[name] / old[name]
        parent_rounds = [run[name] for run in runs[args.parent]]
        change_rounds = [run[name] for run in runs[args.bench]]
        status = row_status(ratio, parent_rounds, change_rounds,
                            args.tolerance)
        if status != "ok":
            failures.append(name)
        if status == "REGRESSION noisy":
            noisy.append(name)
        print(f"{name:45s} {new[name]:12.1f} ns  parent {old[name]:12.1f} ns"
              f"  x{ratio:5.2f}  spread parent x{spread(parent_rounds):5.2f}"
              f" change x{spread(change_rounds):5.2f}  {status}")
    for name in sorted(set(new) ^ set(old)):
        print(f"{name:45s} measured by only one binary")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%} of the parent: {', '.join(failures)}",
              file=sys.stderr)
        if noisy:
            print(f"noisy (a side's own spread exceeds "
                  f"{args.tolerance:.0%}): {', '.join(noisy)}",
                  file=sys.stderr)
        return 1
    print(f"\nall {len(set(new) & set(old))} tracked benchmarks within "
          f"{args.tolerance:.0%} of the parent ({PARENT_ROUNDS} interleaved "
          f"rounds)")
    return 0


# Serve-summary fields tracked against BENCH_serve.json. Throughput
# regresses downward, latency upward; everything else in the summary
# (counters, config echo, trajectory) is recorded but not gated.
SERVE_HIGHER_IS_BETTER = ("conns_per_sec", "events_per_sec",
                          "samples_per_sec")
SERVE_LOWER_IS_BETTER = ("drain_p50_us", "drain_p99_us")


def run_loadgen(loadgen_path: Path, extra_args: list[str]) -> dict:
    """Runs loadgen with --json into a temp file; returns the report."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = Path(tmp.name)
    try:
        subprocess.run([str(loadgen_path), "--json", str(out_path),
                        *extra_args], check=True)
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


def serve_main(args: argparse.Namespace) -> int:
    report = run_loadgen(args.serve, args.serve_args)
    summary = report.get("summary", {})
    if not summary:
        print("error: loadgen report has no summary", file=sys.stderr)
        return 2

    if summary.get("dropped_frames", 1) != 0:
        print(f"FAIL: {summary['dropped_frames']} dropped frames",
              file=sys.stderr)
        return 1

    # Batched inference engaging at all is a hard gate, not a tolerance
    # band: the drain always batches, so windows_batched == 0 means no
    # window reached the batch path.
    if summary.get("windows_batched", 0) == 0:
        print("FAIL: classified zero windows via the batch path",
              file=sys.stderr)
        return 1

    if args.update:
        args.serve_baseline.write_text(
            json.dumps(report, indent=2) + "\n")
        print(f"updated {args.serve_baseline}")
        return 0

    if not args.serve_baseline.exists():
        print(f"error: no baseline at {args.serve_baseline} — run with "
              f"--update first", file=sys.stderr)
        return 2
    want = json.loads(args.serve_baseline.read_text()).get("summary", {})

    failures = []
    for name in SERVE_HIGHER_IS_BETTER + SERVE_LOWER_IS_BETTER:
        got, base = summary.get(name), want.get(name)
        if got is None or base is None or base == 0:
            print(f"{name:20s} {got!s:>12}  (no baseline)")
            continue
        ratio = got / base
        slower = (ratio < 1.0 / (1.0 + args.tolerance)
                  if name in SERVE_HIGHER_IS_BETTER
                  else ratio > 1.0 + args.tolerance)
        status = "REGRESSION" if slower else "ok"
        if slower:
            failures.append(name)
        print(f"{name:20s} {got:12.2f}  baseline {base:12.2f}  "
              f"x{ratio:5.2f}  {status}")

    if failures:
        print(f"\n{len(failures)} serve metric(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"\nserve benchmark within {args.tolerance:.0%} of baseline "
          f"(zero dropped frames)")
    return 0


def tasks_main(args: argparse.Namespace) -> int:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = Path(tmp.name)
    try:
        subprocess.run([str(args.tasks), "--json", str(out_path),
                        *args.tasks_args], check=True)
        report = json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)

    levels = report.get("levels", [])
    if not levels:
        print("error: bench_tasks report has no levels", file=sys.stderr)
        return 2

    if args.update:
        args.tasks_baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated {args.tasks_baseline}")
        return 0

    if not args.tasks_baseline.exists():
        print(f"error: no baseline at {args.tasks_baseline} — run with "
              f"--update first", file=sys.stderr)
        return 2
    want = {lvl["label"]: lvl.get("tasks", {})
            for lvl in json.loads(
                args.tasks_baseline.read_text()).get("levels", [])}

    failures = []
    for level in levels:
        base_tasks = want.get(level["label"])
        if base_tasks is None:
            print(f"{level['label']}: not in baseline (new level)")
            continue
        for name, got in sorted(level.get("tasks", {}).items()):
            base = base_tasks.get(name)
            if base is None:
                print(f"  {level['label']} / {name}: no baseline")
                continue
            # Untrainable at this level in either run (mitigation erased
            # all regions) — compare trainability, not accuracy.
            if got["test_rows"] == 0 or base["test_rows"] == 0:
                ok = (got["test_rows"] == 0) == (base["test_rows"] == 0)
                status = "ok (untrainable)" if ok else "REGRESSION"
                if not ok:
                    failures.append(f"{level['label']}/{name}")
                print(f"  {level['label']:30s} {name:8s} "
                      f"{'--':>7}  {status}")
                continue
            drop = base["accuracy"] - got["accuracy"]
            status = "REGRESSION" if drop > args.tolerance else "ok"
            if drop > args.tolerance:
                failures.append(f"{level['label']}/{name}")
            print(f"  {level['label']:30s} {name:8s} "
                  f"{got['accuracy']:7.3f}  baseline "
                  f"{base['accuracy']:7.3f}  {status}")

    if failures:
        print(f"\n{len(failures)} task accuracy cell(s) dropped more than "
              f"{args.tolerance:.2f} below baseline: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"\nall task accuracies within {args.tolerance:.2f} of baseline")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", type=Path,
                        help="path to the bench_micro_perf binary")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCH_kernels.json")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional regression (default 0.35 "
                             "for kernels, 0.75 for --serve)")
    parser.add_argument("--repetitions", type=int, default=1,
                        help="benchmark repetitions; >1 compares medians")
    parser.add_argument("--parent", type=Path,
                        help="a parent bench_micro_perf binary: gate --bench "
                             "on its ratio to this one, run interleaved")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--serve", type=Path,
                        help="path to the loadgen binary: compare the TCP "
                             "transport against BENCH_serve.json instead")
    parser.add_argument("--serve-baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCH_serve.json")
    parser.add_argument("--serve-args", nargs=argparse.REMAINDER, default=[],
                        help="extra arguments passed through to loadgen")
    parser.add_argument("--tasks", type=Path,
                        help="path to the bench_tasks binary: compare "
                             "per-task accuracy against BENCH_tasks.json")
    parser.add_argument("--tasks-baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCH_tasks.json")
    parser.add_argument("--tasks-args", nargs=argparse.REMAINDER, default=[],
                        help="extra arguments passed through to bench_tasks")
    args = parser.parse_args()

    if args.tasks is not None:
        if args.tolerance is None:
            args.tolerance = 0.10
        return tasks_main(args)
    if args.serve is not None:
        if args.tolerance is None:
            args.tolerance = 0.75
        return serve_main(args)
    if args.bench is None:
        parser.error("one of --bench or --serve is required")
    if args.tolerance is None:
        args.tolerance = 0.35
    if args.parent is not None:
        return parent_main(args)

    measured = run_benchmarks(args.bench, args.repetitions)
    if not measured:
        print("error: benchmark run produced no results", file=sys.stderr)
        return 2

    baseline = {"benchmarks": {}}
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
    entries = baseline.setdefault("benchmarks", {})

    if args.update:
        for name, after_ns in sorted(measured.items()):
            entry = entries.setdefault(name, {})
            old_after = entry.get("after_ns")
            before = entry.get("before_ns")
            if before is None and old_after is not None \
                    and after_ns > old_after:
                # Baseline-only entry: its after_ns is a regression
                # floor, not a speedup record. A slower fresh run must
                # not quietly raise the floor (that would launder the
                # regression into the next baseline).
                print(f"note: {name} measured {after_ns:.1f} ns, slower "
                      f"than its {old_after:.1f} ns floor — floor kept")
                continue
            entry["after_ns"] = round(after_ns, 1)
            if before:
                entry["speedup"] = round(before / after_ns, 2)
        args.baseline.write_text(json.dumps(baseline, indent=2,
                                            sort_keys=True) + "\n")
        print(f"updated {args.baseline} with {len(measured)} benchmarks")
        return 0

    failures = []
    missing = []
    for name, got_ns in sorted(measured.items()):
        entry = entries.get(name)
        # An entry with only before_ns still gates: the pre-overhaul
        # number is a (loose) regression floor until an --update run
        # records a fresh after_ns. Only entries with no number at all
        # are reported as missing. Each row says which kind of baseline
        # it compared against — `ratio` (a fresh after_ns measurement)
        # or `floor` (before_ns-only, the looser pre-overhaul bound) —
        # so a failing gate reads unambiguously.
        want_ns = None
        kind = "ratio"
        if entry is not None:
            want_ns = entry.get("after_ns")
            if want_ns is None:
                want_ns = entry.get("before_ns")
                kind = "floor"
        if want_ns is None:
            missing.append(name)
            continue
        ratio = got_ns / want_ns
        status = "ok"
        if ratio > 1.0 + args.tolerance:
            status = "REGRESSION"
            failures.append(name)
        print(f"{name:45s} {got_ns:12.1f} ns  {kind:5s} {want_ns:12.1f} ns  "
              f"x{ratio:5.2f}  {status}")
    for name in missing:
        print(f"{name:45s} {measured[name]:12.1f} ns  (no baseline — run "
              f"with --update)")

    stale = sorted(set(entries) - set(measured))
    for name in stale:
        print(f"{name:45s} in baseline but not measured (filter changed?)")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nall {len(measured) - len(missing)} tracked benchmarks within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
