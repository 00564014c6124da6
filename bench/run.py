#!/usr/bin/env python3
"""Run one shona-asr benchmark workload, check its outputs, print its metrics.

    python3 bench/run.py --workload decode --seed 1 --seconds 12 --trace 0

Workloads: train, decode, decode_long (see bench/README.md). Run from the
root of a source checkout; the program is imported from `src/`.

--trace 0 measures with tracing off and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 alternates untraced and traced units of work for
--seconds and reports the per-layer metrics; the traced outputs must equal
the untraced ones. It then times the tracing overhead on pairs of a short
fixed slice of the workload's work.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A full result (environment,
gates, every metric) goes to .bench_out/, spans of a traced run too.
Corpora are generated under .bench_work/ and removed afterwards. The exit
code is 0 only when every correctness gate passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

EXIT_GATE_FAILED = 1
EXIT_NO_PROGRAM = 2
OVERHEAD_PAIRS = 10


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile_ms(samples_s: list[float], q: int) -> float:
    return 1000.0 * statistics.quantiles(samples_s, n=100, method="inclusive")[q - 1]


def _restorable_state() -> dict:
    """Identity of every attribute of every loaded shona_asr module."""
    return {(name, attr): id(value)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "shona_asr" or name.startswith("shona_asr."))
            for attr, value in vars(mod).items()}


def _overhead_pct(work, state) -> float:
    """Tracing overhead on the workload's short fixed slice of work.

    The slice runs untraced and traced back to back, alternating which goes
    first, OVERHEAD_PAIRS times; the median traced/untraced ratio of a pair
    cancels machine drift between pairs. A collection before each timing
    keeps garbage left by the previous one out of it. Spans are discarded.
    """
    import tracing

    tracer = tracing.Tracer()
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        wall = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                gc.collect()
                started = time.perf_counter()
                work.overhead_slice(state)
                wall[traced] = time.perf_counter() - started
            finally:
                tracer.uninstall()
        ratios.append(wall[True] / wall[False])
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes,
                 work_root: Path) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import speed
    import tracing
    import workloads

    work = workloads.make_workload(name, seed, sizes)
    work_dir = work_root / f"{name}-s{seed}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    # Probes would count in the spans of a traced run, whose times are per layer.
    make_clock = speed.WallClock if trace else speed.ScaledClock
    try:
        setup_s, setup_wall_s, fingerprints = [], [], []

        def set_up():
            rep = len(setup_s)
            tracer.request = f"setup{rep}"
            clock = make_clock()
            clock.start()
            try:
                rep_state = work.setup(work_dir / f"setup{rep}", tracer, clock)
            finally:
                clock.stop()
            setup_s.append(clock.nominal_s)
            setup_wall_s.append(clock.wall_s)
            fingerprints.append(work.fingerprint(rep_state))
            return rep_state

        # Half the set-ups run before measuring and half after, so that a run's
        # median set-up time mixes two moments of the machine's changing speed.
        state = set_up()
        while sum(setup_wall_s) < workloads.SETUP_MIN_S / 2:
            set_up()
        setups_before = len(setup_s)
        setup_rss_mb = _rss_peak_mb()
        gates = {}
        min_units = workloads.MIN_PASSES if name in workloads.DECODE_SPECS else 1
        units, traced = [], []
        started = time.perf_counter()
        if trace:
            # Untraced and traced units alternate, so both see the same machine.
            before = _restorable_state()
            restored = True
            while not traced or time.perf_counter() - started < seconds:
                units.append(work.run_unit(state, tracer, make_clock()))
                tracer.request = f"{name}-unit{len(traced)}"
                tracer.install()
                try:
                    traced.append(work.run_unit(state, tracer, make_clock()))
                finally:
                    tracer.uninstall()
                restored = restored and _restorable_state() == before
            overhead_pct = _overhead_pct(work, state)
            gates["tracer_restored"] = restored and _restorable_state() == before
        else:
            while len(units) < min_units or time.perf_counter() - started < seconds:
                units.append(work.run_unit(state, tracer, make_clock()))
        while len(setup_s) < 2 * setups_before:
            set_up()
        gates["setup_deterministic"] = len(set(fingerprints)) == 1
        gates["outputs_repeat"] = len({u.digest for u in units + traced}) == 1
        gates.update(work.gates(state, units, work_dir, tracer))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(u.attempted for u in units + traced)
    failed = sum(u.failed for u in units + traced)
    incomplete = sum(u.incomplete for u in units + traced)
    audio_s = sum(u.audio_s for u in units)
    rtf = sum(u.wall_s for u in units) / audio_s
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": _rss_peak_mb(),
        "rtf_norm": sum(u.nominal_s for u in units) / audio_s,
        "failed_share": (failed + incomplete) / attempted,
    }
    report = {"setup_s_samples": setup_s, "setup_wall_s_samples": setup_wall_s,
              "setup_peak_rss_mb": setup_rss_mb, "units": len(units),
              "traced_units": len(traced), "incomplete": incomplete,
              "slowdown": sum(u.wall_s for u in units) / sum(u.nominal_s for u in units)}
    if name == "train":
        values["train_audio_s_per_s"] = 1.0 / rtf
        values["val_per"] = units[-1].quality
        report["val_per_by_epoch"] = [e["val_per"] for e in units[-1].detail["epoch_log"]]
    else:
        latencies = [lat for u in units for lat in u.latencies_s]
        p90 = _percentile_ms(latencies, 90)
        values.update({
            "decode_rtf": rtf,
            "decode_p50_ms": _percentile_ms(latencies, 50),
            "decode_p90_ms": p90,
            "wer": units[0].quality,
        })
        report.update({"latency_samples": len(latencies),
                       "beyond_p90": sum(1000.0 * lat > p90 for lat in latencies),
                       "fixture_val_per": state["model_val_per"]})
    if trace:
        values.update(tracing.layer_metrics(tracer, len(traced)))
        values["trace.overhead_pct"] = overhead_pct
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "correct": all(gates.values()), "attempted": attempted, "failed": failed,
            "gates": gates, "values": values, "report": report,
            "tracer": tracer if trace else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for the full result and spans")
    args = parser.parse_args(argv)

    # The program trains and decodes on one thread (README, Limitations); one BLAS
    # thread keeps each run on one core of a shared machine, the same on every run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "shona_asr").is_dir():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    try:
        import envinfo
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          workloads.Sizes(), ROOT / ".bench_work")
    tracer = result.pop("tracer")
    values = result.pop("values")
    result["env"] = envinfo.environment()
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unit_of.update(failed_share="fraction", train_audio_s_per_s="s/s", val_per="fraction",
                   decode_rtf="s/s", decode_p50_ms="ms", decode_p90_ms="ms", wer="fraction")
    result["metrics"] = {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {result['report']['units']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in result["report"].items():
        print(f"  {key}: {value}")
    for gate, ok in result["gates"].items():
        print(f"  gate {gate}: {'PASS' if ok else 'FAIL'}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if result["correct"] else EXIT_GATE_FAILED


if __name__ == "__main__":
    sys.exit(main())
