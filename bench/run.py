"""Benchmark of the capsep CLI, driven in-process through ``cli_main(argv)``.

    python3 bench/run.py                               # every workload, traced and not
    python3 bench/run.py --workload cert-g15 --seed 3 --seconds 30 --trace 0

A workload run is a closed loop with one client: it runs one warm-up op, then
repeats the workload's op until ``--seconds`` have passed. Before every op it
sets up afresh (imports capsep from ``src/``, as each CLI process would, and
prepares the workload), so set-up is timed across the whole run. Every call's
exit code and output are checked; a failed check counts the op as failed and
the run goes on. BLAS and OpenMP threads are capped at the CPUs available.

Every time is reported in seconds at one fixed machine speed. A shared
machine can run the same code 1.7 times slower for minutes at a time, so
the run times a fixed reference loop (``reference_loop``) before every CLI
call and after an op's last, and scales each call's wall time by ``REF_S``
over the mean of the two reference times around it. The summary also prints
unscaled times.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
every second op runs with spans around each layer's public functions (see
``tracer.py``); the run reports per-layer self times, call and work counts,
and the tracing overhead: the traced minus the untraced median op time.
``stage1_s`` and ``stage2_s`` time the two halves of an op: the ``pipeline``
and ``alpha`` calls of paper-n11, the ``cert`` write and the ``verify-cert``
re-check of cert-g15, and the H and G simulations of channel-n11.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
summary for people, compared against ``baseline.json``. Records and spans
are written to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
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
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNT_NAMES, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_COVERAGE = 0.9
# Nominal machine speed: the one at which the reference loop takes REF_S
# seconds, about its time on an idle core of the machine baseline.json was
# recorded on (2-core Xeon VM).
REF_S = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds a single-workload child of `--workload all` may take; a run takes under 60.
CHILD_TIMEOUT_S = 170


@dataclass
class OpResult:
    """One op: wall seconds and stage of each CLI call, and the reference loop
    times measured before each call and after the last."""

    calls: list[tuple[float, int | None]] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(wall for wall, _ in self.calls)

    def nominal(self, stage: int | None = None) -> float:
        """Seconds at nominal speed, of one stage or of the whole op: each call's
        wall time scaled by REF_S over the mean reference time around it."""
        return sum(wall * 2 * REF_S / (before + after)
                   for (wall, st), before, after in zip(self.calls, self.refs, self.refs[1:])
                   if stage is None or st == stage)

    @property
    def scale(self) -> float:
        return self.nominal() / self.seconds


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_threads() -> None:
    nproc = _nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _import_cli():
    """Import capsep.cli afresh from ``src/``; every set-up pays the import."""
    for name in [n for n in sys.modules if n == "capsep" or n.startswith("capsep.")]:
        del sys.modules[name]
    cli = importlib.import_module("capsep.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"capsep was imported from {cli.__file__}, not from {SRC}")
    return cli


def reference_loop() -> float:
    """Time a fixed mix of dict, set and integer-matrix work; no capsep code runs."""
    import numpy as np  # loaded only after the thread caps are set

    m = np.arange(90_000, dtype=np.int64).reshape(300, 300) * 7919 % 2
    start = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[i * 7919 & 4095] = i
    pairs = {(i, i + 1) for i in range(50_000)}
    product = m @ m
    return time.perf_counter() - start


def run_op(cli, steps, tracer: Tracer | None = None, op: int = 0) -> OpResult:
    """Run one op's CLI calls in order, timing each call and checking its output."""
    result = OpResult()
    if tracer is not None:
        tracer.begin_op(op)
    for step in steps:
        result.refs.append(reference_loop())
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_main(list(step.argv))
        except Exception as exc:  # a crash is a failed op, not a failed run
            code = None
            result.problems.append(
                f"{step.argv[0]}: {''.join(traceback.format_exception_only(exc)).strip()}")
        result.calls.append((time.perf_counter() - start, step.stage))
        if code is None:
            continue
        if code != 0:
            result.problems.append(f"{step.argv[0]}: exit code {code}: "
                                   f"{err.getvalue().strip()[:200]}")
        result.problems += [f"{step.argv[0]}: {p}"
                            for p in step.check(out.getvalue(), result.facts)]
    result.refs.append(reference_loop())
    if tracer is not None:
        tracer.end_op()
    return result


def run_for(seconds: float, run, min_ops: int = 1) -> None:
    """Closed loop: call ``run(i)`` op after op until ``seconds`` have passed."""
    end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < end:
        run(i)
        i += 1


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, or a quarter of them
    when the run has fewer than 41; returns (value, percentile)."""
    xs = sorted(values)
    k = len(xs) - 1 - min(10, (len(xs) - 1) // 4)
    return xs[k], 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 100.0


def _load_baseline(workload: str) -> dict:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        base = json.load(fh)["workloads"].get(workload, {})
    return {k: m["value"] for part in ("end_to_end", "per_layer")
            for k, m in base.get(part, {}).items()}


def _env(seed: int) -> dict:
    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__, "seed": seed,
            "src_lines": _src_lines()}


def _e2e_metrics(setup, timed, workload) -> dict:
    op_times = [o.nominal() for o in timed]
    tail_s, tail_pct = tail(op_times)
    n = len(timed)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup), "import + set-up"),
        "op_s": (statistics.median(op_times), "s", n, "median op"),
        "op_s_tail": (tail_s, "s", n, f"p{tail_pct:.0f} op"),
        "stage1_s": (statistics.median(o.nominal(1) for o in timed), "s", n,
                     workload.stage_names[0]),
        "stage2_s": (statistics.median(o.nominal(2) for o in timed), "s", n,
                     workload.stage_names[1]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1, "ru_maxrss"),
    }


def _layer_metrics(tracer: Tracer, untraced, traced, baseline):
    """Per-layer metrics of a traced run, the problems that fail it, and count drift."""
    n = len(traced)
    metrics = {name: (value, "s" if name.endswith(".self_s") else "count", n, "")
               for name, value in tracer.layer_metrics([o.scale for o in traced]).items()}
    counts = {op: dict(c) for op, c in tracer.counts.items()}
    for op, result in enumerate(traced):
        counts[op]["cert_bytes"] = result.facts.get("cert_bytes", 0)
    drift = []
    for name in COUNT_NAMES + ["cert_bytes"]:
        values = {counts[op][name] for op in counts}
        value = min(values)
        if len(values) > 1:
            drift.append(f"{name} varies between ops: {sorted(values)}")
        elif name in baseline and baseline[name] != value:
            drift.append(f"{name} = {value}, recorded {baseline[name]}")
        metrics[name] = (value, "bytes" if name == "cert_bytes" else "count", n, "")
    selfs = tracer.self_times()
    coverage = min(sum(selfs.get(op, {}).values()) / r.seconds
                   for op, r in enumerate(traced))
    traced_s = statistics.median(r.nominal() for r in traced)
    untraced_s = statistics.median(r.nominal() for r in untraced)
    metrics.update({
        "counts.drifted": (len(drift), "count", n, "named counts off their record"),
        "trace.coverage": (coverage, "ratio", n, "least self-time share of an op"),
        "trace.op_s": (traced_s, "s", n, "median traced op"),
        "trace.untraced_op_s": (untraced_s, "s", len(untraced), "median untraced op"),
        "trace.overhead_s": (traced_s - untraced_s, "s", n, "traced minus untraced"),
    })
    problems = [] if coverage >= MIN_COVERAGE else [
        f"self times cover {coverage:.1%} of a traced op, below {MIN_COVERAGE:.0%}"]
    return metrics, problems, drift


def _summary(header: str, env: dict, metrics: dict, baseline: dict,
             attempted: int, failed: int, notes: list[str]) -> None:
    print(f"# {header}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n, what) in metrics.items():
        base = baseline.get(name)
        vs = f"  baseline {base:.6g}" + (f" (x{value / base:.3f})" if base else "") \
            if isinstance(base, (int, float)) else ""
        print(f"# {name:<44} {value:>14.6g} {unit:<6} n={n:<4} {what}{vs}")
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for note in notes:
        print(f"# {note}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "capsep" / "__init__.py").is_file():
        print(f"error: no capsep sources under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        setup: list[float] = []
        history: list[OpResult] = []
        untraced: list[OpResult] = []
        timed: list[OpResult] = []
        tracer = Tracer() if args.trace else None

        def one_op(i: int) -> None:
            start = time.perf_counter()
            cli = _import_cli()
            steps = workload.steps(args.seed, workdir)
            setup.append(time.perf_counter() - start)
            # With tracing, odd ops are traced and even ops are not, so both
            # see the same machine load; op 0 is the untimed warm-up.
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install()
            try:
                result = run_op(cli, steps, tracer if traced else None, len(timed))
            finally:
                if traced:
                    tracer.uninstall()
            history.append(result)
            if i > 0:
                (timed if traced or tracer is None else untraced).append(result)

        one_op(0)
        run_for(args.seconds, lambda i: one_op(i + 1), min_ops=2 if args.trace else 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Set-up runs just before the op's first reference loop.
    setup = [s * REF_S / o.refs[0] for s, o in zip(setup, history)]
    refs = [r for o in history for r in o.refs]
    warmup = history[0]
    failed = sum(1 for o in history if o.problems)
    notes = [f"op failed: {'; '.join(o.problems)}" for o in history if o.problems][:5]
    baseline = _load_baseline(workload.name)
    run_problems = []
    if args.trace:
        metrics, run_problems, drift = _layer_metrics(tracer, untraced, timed, baseline)
        notes += [f"COUNT DRIFT {d}" for d in drift]
        if tracer.missing:
            notes.append(f"not traced, not found: {' '.join(sorted(tracer.missing))}")
    else:
        metrics = _e2e_metrics(setup, timed, workload)
    notes += [f"RUN FAILED {p}" for p in run_problems]
    notes.append(f"times at nominal speed: op scale median "
                 f"{statistics.median(o.scale for o in history):.4g}, reference loop "
                 f"median {statistics.median(refs):.4g} s (nominal {REF_S} s), "
                 f"unscaled median op {statistics.median(o.seconds for o in timed):.4g} s")
    sizes = sorted({o.facts["cert_bytes"] for o in history if "cert_bytes" in o.facts})
    if sizes:
        notes.append(f"cert_bytes {' '.join(map(str, sizes))} bytes n={len(history)}")
    notes.append(f"warm-up op {warmup.seconds:.4g} s unscaled (not timed)")

    env = _env(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    _summary(f"capsep benchmark {tag} seconds={args.seconds}", env, metrics, baseline,
             len(history), failed, notes)
    record = {"workload": workload.name, "trace": args.trace, "env": env,
              "attempted": len(history), "failed": failed, "notes": notes,
              "op_calls": [o.calls for o in history],
              "op_refs": [o.refs for o in history],
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n, _) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.span_records()) + "\n")
    print(json.dumps({"correct": failed == 0 and not run_problems,
                      "attempted": len(history), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _, _) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; writes all.json."""
    summary: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            record = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json")
                                .read_text())
            summary["env"] = record["env"]
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry[f"attempted_trace{trace}"] = result["attempted"]
            entry[f"failed_trace{trace}"] = result["failed"]
    (OUT / "all.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# wrote {OUT / 'all.json'}; copy it to bench/baseline.json to re-baseline")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{k}": m for w, e in summary["workloads"].items()
                                  for k, m in e["end_to_end"].items()}}))
    return 0


def _default_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
