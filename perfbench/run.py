"""Host-time benchmark of the ``repro`` simulator.

Runs one seeded workload as a closed loop -- one client, one process,
one thread; each op starts when the previous one ends -- for a fixed
number of seconds, checks every op's simulated outputs, and prints a
report whose last line is one JSON object::

    python3 perfbench/run.py --workload step-405b --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every op untraced and traced back to back (spans at
each layer's public call boundary, see ``spans.py``) and reports the
per-layer metrics.  ``--workload all`` runs every workload, each in a
fresh process.  Op and layer times are calibrated to a fixed host speed
(see ``_calibration_ms``).  Metric names and units come from
``BENCHMARK.json``; the layer map and baselines are in ``LAYERS.md``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Tail percentiles, highest first; the report uses the highest one with
#: at least ten samples beyond it, else the last one (and says so).
TAIL_PERCENTILES = (99, 90)
PROBE_TIMEOUT_SECONDS = 60
#: Host-speed calibration: op and layer times are wall times scaled by
#: ``CALIBRATION_REFERENCE_MS / _calibration_ms()`` measured next to them,
#: i.e. wall time at the host speed where the kernel takes this long.
CALIBRATION_REFERENCE_MS = 10.0


def _usage_error(message: str):
    print(f"perfbench: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure
    ``repro`` really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _usage_error(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _usage_error(f"repro imported from {repro.__file__}, not from {SRC}")


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _usage_error(f"missing {path}")
    with open(path) as f:
        return json.load(f)


def _calibration_ms() -> float:
    """Wall ms of a fixed pure-Python kernel (dict updates and float
    arithmetic) that shares no code with ``repro``: a probe of how fast
    the host runs Python right now.

    Shared hosts change speed by up to ~1.8x within seconds; op and layer
    times are divided by this probe, taken next to them, so that the
    figures follow the program rather than the host.
    """
    start = time.perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(40000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] % 7.0
    return (time.perf_counter() - start) * 1e3


def _setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import ``repro`` and build the first
    op's inputs, then print the seconds since this interpreter began."""
    _import_program()
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    w.setup()
    w.inputs(seed, 0)
    print(repr(time.perf_counter() - T0))


def _setup_seconds(workload: str, seed: int) -> list:
    """Wall seconds of each fresh-interpreter probe.  Not calibrated: set-up
    is mostly file reads and unmarshalling, which do not follow the
    calibration kernel's speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_SECONDS, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(float(proc.stdout))
    return samples


class HostSpeed:
    """The latest host calibration, shared by every loop of a run so that
    one sample serves as the "after" of an op and the "before" of the next."""

    def __init__(self) -> None:
        self.last = None

    def sample(self) -> float:
        self.last = _calibration_ms()
        return self.last


class Loop:
    """Runs and checks ops of one workload; keeps times, digest, failures."""

    def __init__(self, workload, shared: dict, seed: int, host: HostSpeed,
                 phase: str = "untraced") -> None:
        self.w = workload
        self.host = host
        self.phase = phase
        self.shared = shared
        self.seed = seed
        #: Wall seconds of every op that returned, by op index.
        self.times: dict = {}
        #: Host calibration (ms) around each of those ops: the mean of the
        #: samples taken just before and just after it.
        self.calibrations: dict = {}
        self.attempted = 0
        self.failed_ops: set = set()
        self.invariant_ops: set = set()
        self.ratio_ops: set = set()
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def _report(self, kind: str, index: int, message: str) -> None:
        print(f"{kind}: workload={self.w.name} seed={self.seed} op={index} "
              f"({self.phase}): {message}",
              flush=True)

    def run(self, index: int, tracer=None) -> None:
        inputs = self.w.inputs(self.seed, index)
        gc.collect()
        self.attempted += 1
        before = self.host.last if self.host.last is not None else self.host.sample()
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self.w.op(self.shared, inputs)
            else:
                result = tracer.run_op(index, lambda: self.w.op(self.shared, inputs))
            self.times[index] = time.perf_counter() - start
            self.calibrations[index] = (before + self.host.sample()) / 2
            outcome = self.w.check(inputs, result)
        except Exception:  # an op that raises is a failed op, not a crash
            self.failed_ops.add(index)
            self._digest.update(f"{index}:raised".encode())
            self._report("FAILED", index, traceback.format_exc().rstrip())
            return
        self._digest.update(repr(outcome.values).encode())
        if outcome.violations:
            self.failed_ops.add(index)
            self.invariant_ops.add(index)
            for message in outcome.violations:
                self._report("FAILED", index, message)
        if outcome.ratios_out_of_range:
            self.ratio_ops.add(index)
            self._report("ratio-out-of-range", index,
                         ", ".join(outcome.ratios_out_of_range))

    def calibrated(self) -> list:
        """Op times at the reference host speed."""
        return [seconds * CALIBRATION_REFERENCE_MS / self.calibrations[i]
                for i, seconds in self.times.items()]

    def warm_up(self) -> None:
        """One untimed, unchecked op so lazy imports finish before timing."""
        try:
            self.w.op(self.shared, self.w.inputs(self.seed, 0))
        except Exception:  # op 0 of the timed loop reports it
            pass


def _op_indices(seconds: float, max_ops=None):
    """Op indices 0, 1, ... until ``seconds`` pass (at least one op), or
    exactly ``max_ops`` of them when given."""
    index = 0
    deadline = time.perf_counter() + seconds
    while (index < max_ops if max_ops is not None
           else index == 0 or time.perf_counter() < deadline):
        yield index
        index += 1


def _tail(times: list):
    """``(percentile, value, samples beyond)`` for the tail metric."""
    n = len(times)
    if n < 2:
        return TAIL_PERCENTILES[-1], max(times), 0
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            break
    value = cuts[p - 1]
    return p, value, sum(1 for t in times if t > value)


def _print_json(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def _end_to_end(w, loop: Loop, setup: list, units: dict) -> None:
    times = loop.calibrated() or [0.0]  # every op raised
    p, tail, beyond = _tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    wall = list(loop.times.values()) or [0.0]
    n, failed = loop.attempted, len(loop.failed_ops)
    tail_note = "" if beyond >= 10 else "; fewer than 10 samples beyond it"
    print(f"workload {w.name}  seed {loop.seed}  closed loop: 1 client, 1 process, 1 thread")
    print(f"  host times are calibrated to a {CALIBRATION_REFERENCE_MS} ms kernel; "
          f"kernel median this run {statistics.median(loop.calibrations.values() or [0.0]):.2f} ms")
    print(f"  setup_s       {metrics['setup_s']:.4f} s   wall, median of {len(setup)} fresh "
          f"interpreters: {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"  op_p50_ms     {metrics['op_p50_ms']:.2f} ms  ({len(times)} samples; "
          f"wall {statistics.median(wall) * 1e3:.2f} ms)")
    print(f"  op_tail_ms    {metrics['op_tail_ms']:.2f} ms  (p{p}, {len(times)} samples, "
          f"{beyond} beyond{tail_note}; wall {_tail(wall)[1] * 1e3:.2f} ms)")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB")
    print(f"  error_rate    {failed / n:.4f}  ({failed} failed of {n} attempted)")
    print(f"  check.ratio_out_of_range  {len(loop.ratio_ops)} ops (counted, not failed)")
    print(f"  sim_digest    {loop.digest}  over ops 0..{n - 1}")
    _print_json(failed == 0, n, failed, metrics, units)


def _per_layer(w, loop: Loop, seconds: float, max_ops, units: dict) -> None:
    from spans import LAYERS, OP_SPAN, SpanTracer

    traced = Loop(w, loop.shared, loop.seed, loop.host, phase="traced")
    tracer = SpanTracer(callers=("workloads",))
    n = 0
    for index in _op_indices(seconds, max_ops):
        # Each op runs untraced and traced back to back, the order
        # alternating, so host noise cancels in the overhead ratio.
        if index % 2 == 0:
            loop.run(index)
            traced.run(index, tracer)
        else:
            traced.run(index, tracer)
            loop.run(index)
        n += 1
    paired = [traced.times[i] / loop.times[i] for i in loop.times if i in traced.times]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-seed{loop.seed}.jsonl"
    tracer.write(spans_path)

    # Self times are calibrated with the run's median host calibration.
    speed = CALIBRATION_REFERENCE_MS / statistics.median(
        [*loop.calibrations.values(), *traced.calibrations.values()])
    self_s = {name: seconds * speed for name, seconds in tracer.self_times().items()}
    calls, counts = tracer.calls(), tracer.counts
    op_seconds = tracer.inclusive_seconds(OP_SPAN) * speed
    layer_seconds = sum(self_s.get(layer.name, 0.0) for layer in LAYERS)
    lowered = calls.get("train.lower_step", 0)
    executed = tracer.inclusive_seconds("train.execute_graph") * speed
    metrics = {
        "sim.events_per_s": counts["sim.events"] / executed if executed else 0.0,
        "train.lower_step.repeat_ratio": (
            counts["train.lower_step.repeats"] / lowered if lowered else 0.0),
        "check.invariant_failures": len(loop.invariant_ops | traced.invariant_ops),
        "check.ratio_out_of_range": len(loop.ratio_ops | traced.ratio_ops),
        "trace.overhead_ratio": statistics.median(paired) - 1 if paired else 0.0,
        "trace.coverage": layer_seconds / op_seconds if op_seconds else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer.name}.self_ms"] = self_s.get(layer.name, 0.0) * 1e3 / n
        metrics[f"{layer.name}.calls"] = calls.get(layer.name, 0) / n
    for name, total in counts.items():
        metrics.setdefault(name, total / n)
    for name in units:
        metrics.setdefault(name, 0.0)  # a counter its layer never reached

    ranked = sorted(((self_s.get(layer.name, 0.0), layer.name) for layer in LAYERS),
                    reverse=True)
    dominant = ranked[0][1]
    print(f"workload {w.name}  seed {loop.seed}  traced {n} ops, each also run untraced "
          f"next to it; spans: {spans_path.relative_to(ROOT)}")
    print(f"  {'layer':<26s} {'self ms/op':>11s} {'share':>7s} {'calls/op':>9s}")
    for seconds_, name in ranked:
        if calls.get(name):
            print(f"  {name:<26s} {seconds_ * 1e3 / n:11.3f} "
                  f"{seconds_ / op_seconds:7.1%} {calls[name] / n:9.2f}")
    print(f"  {'(benchmark glue)':<26s} {self_s.get(OP_SPAN, 0.0) * 1e3 / n:11.3f} "
          f"{self_s.get(OP_SPAN, 0.0) / op_seconds:7.1%}")
    print(f"  wait ms/op: 0 for every layer (one thread, closed loop: no layer waits "
          f"on another)")
    print(f"  named layers cover {metrics['trace.coverage']:.1%} of traced op time; "
          f"dominant layer {dominant} (predicted {w.dominant_layer}: "
          f"{'match' if dominant == w.dominant_layer else 'MISMATCH'})")
    print(f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:+.4f}  "
          f"(median of {len(paired)} traced/untraced pairs, minus 1)")
    print(f"  sim_digest untraced {loop.digest}  traced {traced.digest}  "
          f"over ops 0..{n - 1}")
    same = loop.digest == traced.digest
    if not same:
        print("FAILED: traced and untraced runs disagree on the sim digest")
    attempted = loop.attempted + traced.attempted
    failed = len(loop.failed_ops) + len(traced.failed_ops)
    _print_json(failed == 0 and same, attempted, failed, metrics, units)


def _run_workload(args, spec: dict) -> None:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_seconds(w.name, args.seed)
    loop = Loop(w, w.setup(), args.seed, HostSpeed())
    loop.warm_up()
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _per_layer(w, loop, args.seconds, args.ops, units)
    else:
        for index in _op_indices(args.seconds, args.ops):
            loop.run(index)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        _end_to_end(w, loop, setup, units)


def _run_all(args, spec: dict) -> None:
    """Every workload in its own fresh process; one combined JSON line."""
    metrics, units = {}, {}
    correct, attempted, failed = True, 0, 0
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    _print_json(correct, attempted, failed, metrics, units)


def main(argv=None) -> int:
    spec = _benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of for --seconds "
                             "(a fixed op set gives a sim digest comparable across commits)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        _usage_error("--ops must be >= 1")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        _run_all(args, spec)
        return 0
    _import_program()
    _run_workload(args, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
