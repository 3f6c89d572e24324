"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan``      — run the Section 5 planner for a model and phase.
* ``step``      — simulate one training step and report throughput/memory.
* ``phases``    — plan the full production pre-training progression.
* ``ordering``  — score all parallelism-dimension orderings (Section 5.2).
* ``imbalance`` — run the Figure 14 fleet-imbalance simulation.
* ``trace``     — run a simulation and export its Perfetto timeline
  (``--out PATH`` or ``--stdout`` for piping into ``repro analyze``).
* ``analyze``   — trace analytics (see ``docs/analysis.md``): the
  critical path of a simulated step (with exact makespan tiling and
  per-op slack), run-vs-run diffing with regression blame
  (``--diff BASELINE`` or ``--fault SPEC``), or constant-memory
  streaming ingestion of a trace file (``--ingest PATH|-``).
* ``faults``    — inject a declarative fault plan into one step (or a
  named ``--preset``), report goodput vs. the healthy baseline, and
  score the Section 6.1 slow-rank localisation against the injected
  truth (see ``docs/faults.md``).
* ``verify``    — run the verification subsystem: differential oracles
  plus a seeded invariant fuzz over schedule configurations — or, with
  ``--faults``, a fault-randomizing fuzz of the localisation loop;
  exits 1 when any violation is found (see ``docs/verification.md``).
* ``run``       — simulate a multi-step run under a seeded failure
  process with a checkpoint/restart policy (``none``, ``fixed:N``, or
  Young/Daly-optimal) and report goodput over wall-clock
  (see ``docs/resilience.md``).
* ``schedules`` — list every registered pipeline schedule (the
  ``--schedule`` choices come from this registry; see
  ``docs/schedules.md``).

``--schedule KIND`` on ``step``/``trace``/``analyze``/``faults``/
``run``/``verify`` picks any registered pipeline schedule;
``plan --schedule`` additionally accepts ``all`` to sweep the schedule
as a cost-aware planning axis.

Observability surface (see ``docs/observability.md``):

* ``--json`` on ``plan``/``step``/``phases``/``imbalance``/``faults``/
  ``verify``/``run`` emits the stable-schema reports from
  :mod:`repro.obs.report` instead of text;
* ``--trace PATH`` on ``step``/``phases``/``faults``/``verify``/``run``
  writes the simulated timeline as Chrome ``trace_event`` JSON, openable
  in ``ui.perfetto.dev``;
* usage errors (unknown model or phase, inconsistent sizes, a job no
  layout fits) exit with code 2 and a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

import numpy as np

from repro.errors import ConfigError
from repro.hardware.cluster import grand_teton
from repro.model import config as model_config
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.ordering import PAPER_ORDER, rank_orderings
from repro.parallel.planner import plan_parallelism
from repro.pp.registry import schedule_entries, schedule_kinds

MODELS = {
    "8b": model_config.LLAMA3_8B,
    "70b": model_config.LLAMA3_70B,
    "405b": model_config.LLAMA3_405B,
    "405b-26l": model_config.LLAMA3_405B_SCALED_26L,
    "405b-28l": model_config.LLAMA3_405B_SCALED_28L,
}


def _fail(message: str) -> NoReturn:
    """One-line usage error on stderr, exit code 2 (argparse convention)."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _model(name: str) -> TextModelConfig:
    try:
        return MODELS[name]
    except KeyError:
        _fail(f"unknown model {name!r}; choose from {sorted(MODELS)}")


def _print_json(report: dict) -> None:
    from repro.obs.report import render_json

    print(render_json(report))


def _step_parallel(args: argparse.Namespace) -> ParallelConfig:
    ep = getattr(args, "ep", 1)
    world = args.tp * args.cp * ep * args.pp * args.dp
    if world != args.ngpu:
        _fail(
            f"tp*cp*ep*pp*dp = {world} must equal ngpu = {args.ngpu}"
        )
    return ParallelConfig(tp=args.tp, cp=args.cp, ep=ep, pp=args.pp,
                          dp=args.dp, zero=ZeroStage(args.zero))


def _moe_model(args: argparse.Namespace) -> TextModelConfig:
    """The job's model, switched to its MoE variant when ``--experts`` is
    given (``repro step --experts N --ep E`` is the MoE surface)."""
    model = _model(args.model)
    experts = getattr(args, "experts", None)
    if experts:
        try:
            model = model.moe_variant(experts, top_k=args.top_k)
        except ValueError as err:
            _fail(str(err))
    return model


def _add_job_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="405b", help="model preset")
    p.add_argument("--seq", type=int, default=8192, help="sequence length")
    p.add_argument("--gbs", type=int, default=2048,
                   help="global batch size (sequences)")
    p.add_argument("--ngpu", type=int, default=16384, help="GPU count")
    p.add_argument("--experts", type=int, default=None, metavar="N",
                   help="use the model's MoE variant with N experts per "
                        "FFN (enables --ep)")
    p.add_argument("--top-k", type=int, default=2,
                   help="experts each token routes to (with --experts)")


def _add_step_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tp", type=int, default=8)
    p.add_argument("--cp", type=int, default=1)
    p.add_argument("--ep", type=int, default=1,
                   help="expert-parallel size (MoE models; must divide "
                        "the expert count)")
    p.add_argument("--pp", type=int, default=16)
    p.add_argument("--dp", type=int, default=128)
    p.add_argument("--zero", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--schedule", default="flexible",
                   choices=schedule_kinds(),
                   help="pipeline schedule kind (see `repro schedules`)")


def cmd_plan(args: argparse.Namespace) -> int:
    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    plan = plan_parallelism(_moe_model(args), job, cluster,
                            cost_aware=args.cost_aware,
                            schedule_kind=args.schedule)
    if args.json:
        from repro.obs.report import plan_report

        _print_json(plan_report(plan))
        return 0
    print(plan.describe())
    if plan.candidates:
        print("candidates (simulated, best first):")
        for c in (cand.to_dict() for cand in plan.candidates):
            kind = c.get("schedule_kind")
            suffix = f"  [{kind}]" if kind else ""
            ep = c.get("ep", 1)
            ep_col = f"ep={ep:<3d} " if ep > 1 else ""
            if c["feasible"]:
                print(f"  tp={c['tp']:<2d} pp={c['pp']:<3d} cp={c['cp']:<3d} "
                      f"{ep_col}dp={c['dp']:<4d} {c['tflops_per_gpu']:6.0f} "
                      f"TFLOPs/GPU{suffix}")
            else:
                print(f"  tp={c['tp']:<2d} pp={c['pp']:<3d} {ep_col}"
                      f"infeasible: {c['reason']}")
    return 0


def cmd_step(args: argparse.Namespace) -> int:
    from repro.train.step import simulate_step

    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    model = _moe_model(args)
    par = _step_parallel(args)
    rep = simulate_step(model, par, job, cluster,
                        schedule_kind=args.schedule,
                        stage_preset=getattr(args, "stage_preset", None))
    if args.trace:
        _export_step_trace(rep, par, args.trace)
    if args.json:
        from repro.obs.report import step_report

        _print_json(step_report(rep, par, job))
        return 0
    print(f"step time:      {rep.step_seconds:.3f} s")
    print(f"throughput:     {rep.tflops_per_gpu:.0f} TFLOPs/GPU")
    print(f"MFU:            {rep.mfu:.1%}")
    print(f"tokens/s:       {rep.tokens_per_second:,.0f}")
    print(f"bubble ratio:   {rep.mean_bubble_ratio:.3f}")
    print(f"peak memory:    {rep.max_peak_memory_gb:.1f} GiB "
          f"(worst rank of {par.pp})")
    print(f"fits in HBM:    {'yes' if rep.fits else 'NO'} "
          f"({rep.hbm_capacity_gb:.1f} GiB per {cluster.gpu.name})")
    if isinstance(args.trace, str):
        print(f"trace written:  {args.trace} (open in ui.perfetto.dev)")
    return 0


def _export_step_trace(rep, par: ParallelConfig, path: str) -> None:
    from repro.obs.metrics import pp_rank_map
    from repro.obs.trace import export_chrome_trace, remap_ranks
    from repro.parallel.mesh import DeviceMesh

    sim = remap_ranks(rep.run.sim, pp_rank_map(par))
    export_chrome_trace(
        sim, path, mesh=DeviceMesh(par),
        extra_metadata={"parallel": par.describe()},
    )


def cmd_phases(args: argparse.Namespace) -> int:
    from repro.train.phases import (
        LLAMA3_405B_PHASES,
        describe_pretraining,
        phases_by_name,
        plan_pretraining,
    )

    cluster = grand_teton(args.ngpu)
    phases = LLAMA3_405B_PHASES
    if args.phase:
        try:
            phases = phases_by_name(args.phase)
        except KeyError as err:
            _fail(str(err.args[0]))
    reports = plan_pretraining(_model(args.model), cluster, phases=phases)
    if args.trace:
        from repro.obs.trace import export_chrome_trace, merge_timelines

        merged = merge_timelines(
            (r.phase.name, r.step.run.sim) for r in reports
        )
        export_chrome_trace(merged, args.trace)
    if args.json:
        from repro.obs.report import phases_report

        _print_json(phases_report(reports))
        return 0
    print(describe_pretraining(reports))
    if isinstance(args.trace, str):
        print(f"trace written: {args.trace} (open in ui.perfetto.dev)")
    return 0


def cmd_ordering(args: argparse.Namespace) -> int:
    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    model = _moe_model(args)
    par = ParallelConfig(tp=args.tp, cp=args.cp, pp=args.pp, dp=args.dp)
    scores = rank_orderings(model, par, job, cluster)
    for s in scores:
        marker = "  <- paper" if s.order == PAPER_ORDER else ""
        print(f"{'-'.join(s.order).upper():16s} "
              f"{s.exposed_seconds:8.2f} s exposed{marker}")
    return 0


def cmd_imbalance(args: argparse.Namespace) -> int:
    from repro.cp.imbalance import simulate_fleet_imbalance

    if args.seed < 0:
        _fail(f"--seed must be >= 0 (got {args.seed})")
    cluster = grand_teton(args.ngpu)
    rep = simulate_fleet_imbalance(
        cluster, seq=args.seq, cp=args.cp, n_dp_groups=args.dp,
        steps=args.steps, mean_doc_len=args.mean_doc,
        rng=np.random.default_rng(args.seed),
    )
    if args.json:
        from repro.obs.report import imbalance_report

        _print_json(imbalance_report(rep))
        return 0
    print(f"slowest/fastest compute:  "
          f"{rep.slowest_over_fastest_compute:.2f}x")
    print(f"CP exposed latency share: {rep.cp_exposed_fraction:.2%}")
    print(f"waiting share of exposed: "
          f"{rep.waiting_fraction_of_exposed:.2%}")
    print(f"overlap-CP headroom:      {rep.overlap_headroom:.2%}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one simulation and export its timeline (``--cmd`` selects
    which): a training step, the phase progression, or the Figure 8
    synthetic 4D workload with an optional injected straggler.

    With ``--stdout`` the trace JSON is the only thing written to
    stdout (the human-readable summary moves to stderr), so the output
    pipes cleanly into ``repro analyze --ingest -``.
    """
    if args.stdout and args.out:
        _fail("--stdout and --out are mutually exclusive")
    if not args.stdout and not args.out:
        _fail("trace needs a destination: --out PATH or --stdout")
    if args.stdout:
        import contextlib

        dest = sys.stdout
        with contextlib.redirect_stdout(sys.stderr):
            return _run_trace(args, dest)
    return _run_trace(args, args.out)


def _run_trace(args: argparse.Namespace, out) -> int:
    if args.cmd == "step":
        args.trace, args.json = out, False
        return cmd_step(args)
    if args.cmd == "phases":
        args.trace, args.json, args.phase = out, False, None
        return cmd_phases(args)

    # --cmd workload: Section 6.1 end to end — run, export, localise.
    from repro.debug.trace_analysis import identify_slow_rank
    from repro.debug.workload import WorkloadSpec, run_synthetic_workload
    from repro.faults import DETECTION_WORLD_LIMIT, ComputeStraggler, FaultPlan
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import export_chrome_trace
    from repro.parallel.mesh import DeviceMesh

    world = args.tp * args.cp * args.ep * args.pp * args.dp
    if world > DETECTION_WORLD_LIMIT:
        _fail(f"workload traces every rank; keep tp*cp*ep*pp*dp <= "
              f"{DETECTION_WORLD_LIMIT} (got {world}) — e.g. --tp 4 --cp 2 "
              f"--pp 1 --dp 1")
    mesh = DeviceMesh(ParallelConfig(tp=args.tp, cp=args.cp, ep=args.ep,
                                     pp=args.pp, dp=args.dp))
    plan = None
    if args.slow_rank is not None:
        if not 0 <= args.slow_rank < mesh.world_size:
            _fail(f"--slow-rank {args.slow_rank} outside world "
                  f"[0, {mesh.world_size})")
        plan = FaultPlan((ComputeStraggler(
            rank=args.slow_rank, extra_seconds=args.slowdown),))
    sim = run_synthetic_workload(mesh, WorkloadSpec(steps=args.steps),
                                 faults=plan)
    export_chrome_trace(sim, out, mesh=mesh)
    metrics = MetricsRegistry()
    report = identify_slow_rank(sim, mesh, metrics=metrics)
    print(report.describe())
    if isinstance(out, str):
        print(f"trace written: {out} (open in ui.perfetto.dev)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Trace analytics: critical path of a simulated step, run-vs-run
    diff with regression blame, or streaming ingestion of a trace file
    (see ``docs/analysis.md``)."""
    from repro.analysis import (
        StreamingTraceAggregator,
        diff_traces,
        extract_critical_path,
        iter_trace_events,
    )
    from repro.obs.report import analysis_report

    if args.top < 1:
        _fail(f"--top must be >= 1 (got {args.top})")
    if not 0.0 < args.blame_threshold <= 1.0:
        _fail(f"--blame-threshold must be in (0, 1] "
              f"(got {args.blame_threshold})")

    if args.ingest is not None:
        for value, flag in ((args.diff, "--diff"), (args.fault, "--fault"),
                            (args.trace, "--trace"),
                            (args.critical_path, "--critical-path")):
            if value:
                _fail(f"--ingest cannot be combined with {flag} "
                      "(ingestion is single-pass and graph-free)")
        agg = StreamingTraceAggregator(top_k=args.top)
        try:
            source = sys.stdin if args.ingest == "-" else args.ingest
            agg.consume(iter_trace_events(source))
        except ValueError as err:
            _fail(str(err))
        if args.json:
            _print_json(analysis_report(ingest=agg, top=args.top))
            return 0
        summary = agg.to_dict()
        print(f"events:    {agg.n_events:,} across {agg.n_ranks} ranks")
        print(f"makespan:  {agg.makespan:.3f} s")
        for lane, s in summary["streams"].items():
            print(f"  {lane:<24s} {s['count']:>9,d} events  "
                  f"{s['total_seconds']:>12.3f} s total  "
                  f"mean {s['mean_seconds']:.6f} s")
        if summary["top_slowest"]:
            print(f"top {len(summary['top_slowest'])} slowest:")
            for row in summary["top_slowest"]:
                print(f"  {row['duration_seconds']:>10.6f} s  {row['name']} "
                      f"(rank {row['rank']}, {row['stream']}/{row['kind']})")
        return 0

    if args.diff and args.fault:
        _fail("--diff and --fault are mutually exclusive (a --fault run "
              "diffs against its own healthy baseline)")

    from repro.obs.metrics import (
        MetricsRegistry,
        pp_rank_map,
        record_critical_path_metrics,
    )
    from repro.train.step import simulate_step

    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    model = _moe_model(args)
    par = _step_parallel(args)
    plan = None
    if args.fault:
        from repro.faults import FaultPlan, parse_fault_spec

        plan = FaultPlan(tuple(parse_fault_spec(s) for s in args.fault))
    metrics = MetricsRegistry()
    try:
        rep = simulate_step(model, par, job, cluster,
                            schedule_kind=args.schedule, metrics=metrics,
                            fault_plan=plan)
    except ValueError as err:
        _fail(str(err))
    cp = extract_critical_path(rep.execution.graph, rep.execution.events,
                               makespan=rep.step_seconds)
    record_critical_path_metrics(cp, metrics, rank_map=pp_rank_map(par))
    diff = None
    if args.diff:
        from repro.obs.trace import remap_ranks

        try:
            baseline = list(iter_trace_events(args.diff))
        except ValueError as err:
            _fail(str(err))
        # Exported traces carry global mesh ranks; remap the fresh run
        # into the same rank space before aligning.
        current = remap_ranks(rep.run.sim, pp_rank_map(par)).events
        diff = diff_traces(baseline, current)
    elif plan is not None:
        healthy = simulate_step(model, par, job, cluster,
                                schedule_kind=args.schedule)
        diff = diff_traces(healthy.run.sim.events, rep.run.sim.events)
    if args.trace:
        from repro.obs.trace import (
            critical_path_annotations,
            export_chrome_trace,
            remap_ranks,
        )
        from repro.parallel.mesh import DeviceMesh

        rank_map = pp_rank_map(par)
        out_sim = remap_ranks(rep.run.sim, rank_map)
        annotations = critical_path_annotations(
            out_sim.events, cp.entries, rank_map=rank_map)
        export_chrome_trace(
            out_sim, args.trace, mesh=DeviceMesh(par),
            extra_metadata={"parallel": par.describe()},
            extra_events=annotations)
    if args.json:
        _print_json(analysis_report(
            parallel=par, job=job, critical_path=cp, diff=diff,
            top=args.top, blame_threshold=args.blame_threshold))
        return 0
    print(f"step time:      {cp.makespan_seconds:.3f} s")
    print(f"critical path:  {cp.n_ops} ops, tiles the makespan "
          f"{'exactly' if cp.exact else 'INEXACTLY'}")
    for stream, share in sorted(cp.share_by_stream.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        print(f"  {stream:<8s} {cp.seconds_by_stream[stream]:>10.3f} s  "
              f"({share:.1%} of step)")
    if args.critical_path:
        print("chain (chronological):")
        for e in cp.entries:
            print(f"  [{e.stream:<7s}] rank {e.rank:<3d} {e.name:<24s} "
                  f"{e.duration:>10.6f} s  (slack {e.slack:.2e}, "
                  f"via {e.via})")
    else:
        longest = sorted(cp.entries,
                         key=lambda e: (-e.duration, e.start))[:args.top]
        print(f"top {len(longest)} path ops by duration:")
        for e in longest:
            print(f"  {e.duration:>10.6f} s  {e.name} "
                  f"(rank {e.rank}, {e.stream})")
    if diff is not None:
        print(f"regression:     {diff.regression_seconds:+.3f} s "
              f"(baseline {diff.baseline_makespan:.3f} s -> "
              f"current {diff.current_makespan:.3f} s)")
        blamed = diff.blame(threshold=args.blame_threshold)
        if blamed:
            print(f"blame (buckets >= {args.blame_threshold:.0%} "
                  "of the regression):")
            for b in blamed:
                names = ", ".join(o.name for o in b.top_ops)
                print(f"  {b.kind}/{b.stream}: {b.delta_seconds:+.3f} s "
                      f"over {b.n_ops} ops ({b.n_faulted} tagged faulted) "
                      f"— worst: {names}")
        else:
            print("blame: no bucket above threshold")
        if abs(diff.exposed_wait_delta_seconds) > 1e-9:
            print(f"exposed waits:  "
                  f"{diff.exposed_wait_delta_seconds:+.3f} s "
                  "(downstream symptom, not bucketed)")
    if args.trace:
        print(f"trace written:  {args.trace} (open in ui.perfetto.dev)")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run one step healthy and under a fault plan, then report goodput
    and the localisation verdict."""
    from repro.faults import (
        FaultPlan,
        fault_preset,
        parse_fault_spec,
        run_goodput,
    )
    from repro.obs.metrics import MetricsRegistry

    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    model = _moe_model(args)
    par = _step_parallel(args)
    if args.fault:
        plan = FaultPlan(tuple(parse_fault_spec(s) for s in args.fault))
    else:
        plan = fault_preset(args.preset, par.world_size)
    metrics = MetricsRegistry()
    try:
        gp = run_goodput(
            model, par, job, cluster, plan=plan,
            schedule_kind=args.schedule, detect=not args.no_detect,
            metrics=metrics)
    except ValueError as err:
        _fail(str(err))
    if args.trace:
        _export_step_trace(gp.faulted, par, args.trace)
    if args.json:
        from repro.obs.report import faults_report

        _print_json(faults_report(gp, par, job))
        return 0
    print(f"fault plan:       {plan.describe()}")
    print(f"ops faulted:      {gp.injection.ops_faulted} "
          f"(+{gp.injection.extra_seconds:.3f} s priced)")
    print(f"step time:        {gp.healthy.step_seconds:.3f} s -> "
          f"{gp.faulted.step_seconds:.3f} s "
          f"(x{gp.step_time_inflation:.2f})")
    print(f"tokens/s:         {gp.healthy.tokens_per_second:,.0f} -> "
          f"{gp.faulted.tokens_per_second:,.0f}")
    print(f"MFU:              {gp.healthy.mfu:.1%} -> {gp.faulted.mfu:.1%}")
    print(f"goodput fraction: {gp.goodput_fraction:.1%}")
    delta = {k: v for k, v in gp.exposed_comm_delta_seconds.items()
             if abs(v) > 1e-9}
    if delta:
        parts = ", ".join(f"{k} {v:+.3f} s" for k, v in sorted(delta.items()))
        print(f"exposed comm:     {parts}")
    if gp.detection is not None:
        d = gp.detection
        verdict = ("exact hit" if d.exact_hit
                   else "miss" if d.scorable else "unscored")
        expected = d.expected_rank if d.expected_rank is not None else "-"
        print(f"detection:        rank {d.detected_rank} "
              f"({d.attribution}-bound), expected {expected} -> {verdict} "
              f"after {d.levels_descended} levels")
    if args.trace:
        print(f"trace written:    {args.trace} (open in ui.perfetto.dev)")
    return 0


def _parse_topology(spec: str) -> tuple:
    """Parse ``--topology``: ``NxM`` or ``nodes-per-rack=N,racks-per-pod=M``
    into ``(nodes_per_rack, racks_per_pod)``."""
    spec = spec.strip()
    if "=" not in spec:
        left, sep, right = spec.partition("x")
        try:
            if not sep:
                raise ValueError(spec)
            return int(left.strip()), int(right.strip())
        except ValueError:
            raise ConfigError(
                f"bad topology {spec!r}; expected "
                "<nodes-per-rack>x<racks-per-pod> (e.g. 8x32)") from None
    fields = {"nodes-per-rack": None, "racks-per-pod": None}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in fields:
            raise ConfigError(
                f"bad topology field {part!r}; expected "
                f"{sorted(fields)} as key=value pairs")
        try:
            fields[key] = int(value.strip())
        except ValueError:
            raise ConfigError(
                f"cannot parse topology value {part!r} as an integer"
            ) from None
    missing = [k for k, v in fields.items() if v is None]
    if missing:
        raise ConfigError(f"topology {spec!r} is missing {missing}")
    return fields["nodes-per-rack"], fields["racks-per-pod"]


def cmd_run(args: argparse.Namespace) -> int:
    """Simulate a multi-step run under failures and report goodput."""
    from dataclasses import replace as dc_replace

    from repro.obs.metrics import MetricsRegistry
    from repro.resilience import (
        DetectorModel,
        RunConfig,
        parse_detector,
        parse_policy,
        parse_taxonomy,
        simulate_run,
    )

    cluster = grand_teton(args.ngpu)
    job = JobConfig(seq=args.seq, gbs=args.gbs, ngpu=args.ngpu)
    model = _moe_model(args)
    if args.topology is not None:
        nodes_per_rack, racks_per_pod = _parse_topology(args.topology)
        cluster = dc_replace(cluster, nodes_per_rack=nodes_per_rack,
                             racks_per_pod=racks_per_pod)
    policy = parse_policy(args.policy)
    detector = (parse_detector(args.detector)
                if args.detector is not None else DetectorModel())
    config = RunConfig(
        steps=args.steps,
        mtbf_seconds=args.mtbf,
        policy=policy,
        seed=args.seed,
        elastic=not args.wait_for_replacement,
        replacement_seconds=args.replacement,
        taxonomy=parse_taxonomy(args.taxonomy),
        mitigation=args.mitigation,
        detector=detector,
    )
    metrics = MetricsRegistry()
    try:
        result = simulate_run(model, job, cluster, config, metrics=metrics,
                              schedule_kind=args.schedule)
    except ValueError as err:
        _fail(str(err))
    if args.trace:
        from repro.obs.trace import export_chrome_trace

        export_chrome_trace(
            result.sim, args.trace,
            extra_metadata={"policy": policy.describe(),
                            "seed": config.seed})
    if args.json:
        from repro.obs.report import resilience_report

        _print_json(resilience_report(result))
        return 0
    c = result.counters
    interval = (f"every {result.interval_steps} steps"
                if result.interval_steps is not None else "never")
    status = ("completed" if result.completed
              else f"TRUNCATED: {result.truncated_reason}")
    print(f"policy:          {policy.describe()}")
    print(f"checkpoints:     {interval} "
          f"({c['checkpoints']} written, {c['restarts']} restarts)")
    print(f"steps committed: {result.steps_completed}/{config.steps} "
          f"({status})")
    print(f"elapsed:         {result.elapsed_seconds:,.1f} s "
          f"(ideal {result.ideal_seconds:,.1f} s)")
    print(f"goodput:         {result.goodput_fraction:.1%}  "
          f"({result.tokens_per_second:,.0f} tokens/s achieved)")
    print(f"failures:        {len(result.failures)} "
          f"(node loss {c['node_losses']}, "
          f"straggler {c['transient_stragglers']}, "
          f"retry ladders {c['retry_ladders']}, "
          f"retry exhaustions {c['retry_exhaustions']}; "
          f"{c['replans']} replans)")
    correlated = (c["rack_losses"] + c["pod_losses"] + c["gray_failures"]
                  + c["silent_corruptions"])
    if correlated:
        print(f"domains:         rack loss {c['rack_losses']}, "
              f"pod loss {c['pod_losses']}, gray {c['gray_failures']}, "
              f"corruption {c['silent_corruptions']} "
              f"({c['corruption_rollbacks']} rollbacks)")
    if any(result.tier_writes.values()):
        writes = ", ".join(f"{tier} {n}" for tier, n
                           in sorted(result.tier_writes.items()) if n)
        reads = ", ".join(
            f"{r['tier']}@step{r['step']}" for r in result.restores)
        print(f"tiers:           writes {writes}"
              + (f"; restores {reads}" if reads else ""))
    if config.mitigation == "detect" and (c["gray_detected"]
                                          or c["false_positives"]):
        print(f"mitigation:      {c['gray_detected']} detected -> "
              f"{c['evictions']} evicted, {c['gray_tolerated']} tolerated "
              f"({c['false_positives']} false alarms)")
    total = max(result.elapsed_seconds, 1e-12)
    for name, value in result.buckets.items():
        if value > 0:
            print(f"  {name:<11s} {value:>10,.1f} s  ({value / total:.1%})")
    if args.trace:
        print(f"trace written:   {args.trace} (open in ui.perfetto.dev)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the oracle battery, the seeded config fuzz, and the step-graph
    timeline invariants (Section 6.2's methodology as a regression gate).
    Exit 0 when every check passes, 1 when any violation is found."""
    from repro.obs.report import verify_report
    from repro.verify.fuzz import run_fuzz
    from repro.verify.oracles import run_default_oracles

    if args.fuzz < 1:
        _fail(f"--fuzz must be >= 1 (got {args.fuzz})")
    if args.seed < 0:
        _fail(f"--seed must be >= 0 (got {args.seed})")
    modes = [flag for flag in ("faults", "engine", "resilience")
             if getattr(args, flag)]
    if len(modes) > 1:
        _fail("--faults, --engine, and --resilience are mutually exclusive")
    oracles = [] if args.no_oracles else run_default_oracles(seed=args.seed)
    fuzz = fault_fuzz = engine_fuzz = resilience_fuzz = None
    if args.faults:
        from repro.verify.fuzz import run_fault_fuzz

        fault_fuzz = run_fault_fuzz(args.fuzz, seed=args.seed)
    elif args.engine:
        from repro.verify.engine_fuzz import run_engine_fuzz

        engine_fuzz = run_engine_fuzz(args.fuzz, seed=args.seed)
    elif args.resilience:
        from repro.verify.resilience_fuzz import run_resilience_fuzz

        resilience_fuzz = run_resilience_fuzz(args.fuzz, seed=args.seed)
    else:
        kinds = (args.schedule,) if args.schedule else None
        fuzz = run_fuzz(args.fuzz, seed=args.seed, max_pp=args.max_pp,
                        max_nmb=args.max_nmb, kinds=kinds)
    step_inv = None if args.no_step_invariants else _step_invariants()
    report = verify_report(fuzz, oracles, step_invariants=step_inv,
                           fault_fuzz=fault_fuzz, engine_fuzz=engine_fuzz,
                           resilience_fuzz=resilience_fuzz)
    if args.trace:
        if fuzz is not None:
            _export_verify_trace(fuzz, args.trace)
        elif fault_fuzz is not None:
            _export_fault_fuzz_trace(fault_fuzz, args.trace)
        else:
            print("note: --trace has no effect with --engine or "
                  "--resilience (divergences are reported as shrunk "
                  "configurations, not timelines)", file=sys.stderr)
    if args.json:
        _print_json(report)
    else:
        for o in oracles:
            status = "ok" if o.ok else "FAIL"
            print(f"oracle {o.name:20s} {status}  {o.context}")
            for v in o.violations:
                print(f"  violation: {v.message}")
        if fuzz is not None:
            print(f"fuzz: {fuzz.cases} configs, seed {fuzz.seed}: "
                  f"{fuzz.failed_cases} failed")
            for f in fuzz.failures:
                print(f"  {f.case.describe()} shrinks to "
                      f"{f.shrunk.describe()}")
                for v in f.shrunk_finding.violations:
                    print(f"    violation [{v.check}]: {v.message}")
        if fault_fuzz is not None:
            print(f"fault fuzz: {fault_fuzz.cases} scenarios, seed "
                  f"{fault_fuzz.seed}: {fault_fuzz.failed_cases} "
                  f"localisation misses")
            for f in fault_fuzz.failures:
                print(f"  {f.case.describe()} shrinks to "
                      f"{f.shrunk.describe()}")
                print(f"    detected rank {f.shrunk_finding.detected_rank} "
                      f"({f.shrunk_finding.attribution})")
        if engine_fuzz is not None:
            print(f"engine fuzz: {engine_fuzz.cases} submission "
                  f"sequences, seed {engine_fuzz.seed}: "
                  f"{engine_fuzz.failed_cases} diverged from reference")
            for f in engine_fuzz.failures:
                print(f"  divergence: {f.shrunk_finding[0]}\n"
                      f"  minimal reproducer ({len(f.shrunk.ops)} "
                      "submissions):\n  "
                      + f.shrunk.describe().replace("\n", "\n  "))
        if resilience_fuzz is not None:
            print(f"resilience fuzz: {resilience_fuzz.cases} scenarios, "
                  f"seed {resilience_fuzz.seed}: "
                  f"{resilience_fuzz.failed_cases} invariant violations")
            for f in resilience_fuzz.failures:
                print(f"  {f.case.describe()} shrinks to "
                      f"{f.shrunk.describe()}")
                for v in f.shrunk_finding:
                    print(f"    violation [{v['check']}]: {v['message']}")
        if step_inv is not None:
            for mode in step_inv["modes"]:
                status = "ok" if mode["ok"] else "FAIL"
                print(f"step invariants [{mode['zero']}] {status}  "
                      f"({', '.join(mode['checks_run'])})")
                for v in mode["violations"]:
                    print(f"  violation [{v['check']}]: {v['message']}")
        if args.trace:
            print(f"trace written: {args.trace} (open in ui.perfetto.dev)")
    return 0 if report["ok"] else 1


def _step_invariants() -> dict:
    """Execute a small canonical step per ZeRO mode and check the
    FSDP/ordering invariants on the lowered timeline."""
    from repro.model.config import LLAMA3_8B
    from repro.pp.analysis import default_nc
    from repro.train.step import simulate_step
    from repro.verify.invariants import run_step_invariants

    job = JobConfig(seq=8192, gbs=8, ngpu=8)
    modes = []
    for zero in (ZeroStage.ZERO_1, ZeroStage.ZERO_2, ZeroStage.ZERO_3):
        par = ParallelConfig(tp=2, cp=1, pp=2, dp=2, zero=zero)
        rep = simulate_step(LLAMA3_8B, par, job, grand_teton(job.ngpu))
        nc = default_nc(par.pp, job.micro_batches(par))
        inv = run_step_invariants(rep.execution.graph, rep.execution.events,
                                  zero=zero, nc=nc)
        modes.append({"zero": zero.name.lower(), **inv.to_dict()})
    return {"ok": all(m["ok"] for m in modes), "modes": modes}


def _export_verify_trace(fuzz, path: str) -> None:
    """Export the timeline of the most useful fuzzed config: the first
    failure's minimal shrunk reproducer when there is one, else a fresh
    run of the first sampled config (a clean reference timeline)."""
    import numpy as np

    from repro.obs.trace import export_chrome_trace
    from repro.pp.layout import build_layout
    from repro.pp.registry import schedule_entry
    from repro.train.cost import StageCost
    from repro.train.executor import execute_pipeline
    from repro.verify.fuzz import sample_config

    if fuzz.failures:
        config = fuzz.failures[0].shrunk
    else:
        config = sample_config(np.random.default_rng(fuzz.seed))
    schedule = schedule_entry(config.kind).builder(config.shape)
    layout = build_layout(config.pp * config.v, config.pp, config.v)
    run = execute_pipeline(
        schedule, layout,
        lambda s: StageCost(1.0 * max(s.n_layers, 1), 0.0, 0.0),
        lambda s: StageCost(2.0 * max(s.n_layers, 1), 0.0, 0.0),
        p2p_seconds=0.25,
    )
    export_chrome_trace(
        run.sim, path,
        extra_metadata={"verify_config": config.describe(),
                        "seed": fuzz.seed})


def _export_fault_fuzz_trace(result, path: str) -> None:
    """Export the first shrunk localisation miss's faulted workload
    timeline — or, on a clean campaign, the first sampled scenario's."""
    import numpy as np

    from repro.debug.workload import run_synthetic_workload
    from repro.obs.trace import export_chrome_trace
    from repro.parallel.mesh import DeviceMesh
    from repro.verify.fuzz import FAULT_FUZZ_WORKLOAD, sample_fault_scenario

    if result.failures:
        scenario = result.failures[0].shrunk
    else:
        scenario = sample_fault_scenario(np.random.default_rng(result.seed))
    mesh = DeviceMesh(scenario.parallel)
    sim = run_synthetic_workload(mesh, spec=FAULT_FUZZ_WORKLOAD,
                                 faults=scenario.plan)
    export_chrome_trace(
        sim, path, mesh=mesh,
        extra_metadata={"fault_scenario": scenario.describe(),
                        "seed": result.seed})


def cmd_schedules(args: argparse.Namespace) -> int:
    """List every registered pipeline schedule with its registry
    metadata — the single source of the ``--schedule`` choices."""
    if args.names and args.json:
        _fail("--names and --json are mutually exclusive")
    entries = schedule_entries()
    if args.names:
        for e in entries:
            print(e.kind)
        return 0
    if args.json:
        from repro.obs.report import schedules_report

        _print_json(schedules_report(entries))
        return 0
    for e in entries:
        split = "split-backward" if e.split_backward else "fused-backward"
        print(f"{e.kind:<20s} family={e.family:<5s} {split}")
        print(f"  {e.description}")
        if e.aliases:
            print(f"  aliases: {', '.join(e.aliases)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling Llama 3 Training with "
                    "Efficient Parallelism Strategies' (ISCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive 4D parallelism (Section 5)")
    _add_job_args(p)
    p.add_argument("--cost-aware", action="store_true",
                   help="rank (tp, pp) candidates by simulated TFLOPs/GPU "
                        "instead of first-fit")
    p.add_argument("--schedule", default=None,
                   choices=schedule_kinds() + ("all",),
                   help="pin the cost-aware candidate simulation to one "
                        "registered schedule, or 'all' to sweep the "
                        "schedule as a planning axis (default: the "
                        "Section 3.1.3 family pick)")
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON report")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("step", help="simulate one training step")
    _add_job_args(p)
    _add_step_parallel_args(p)
    p.add_argument("--stage-preset", default=None,
                   choices=("mixed-fleet", "vit-encoder"),
                   help="heterogeneous per-stage compute profile "
                        "(mixed H100/H200/B200 fleet or a ViT-style "
                        "front-loaded encoder)")
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the timeline as Perfetto trace_event JSON")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("phases", help="plan the pre-training phases")
    p.add_argument("--model", default="405b")
    p.add_argument("--ngpu", type=int, default=16384)
    p.add_argument("--phase", action="append", metavar="NAME",
                   help="run only the named phase (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the merged per-phase timeline as "
                        "Perfetto trace_event JSON")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("ordering",
                       help="score dimension orderings (Section 5.2)")
    _add_job_args(p)
    p.set_defaults(seq=131072, gbs=128)
    p.add_argument("--tp", type=int, default=8)
    p.add_argument("--cp", type=int, default=16)
    p.add_argument("--pp", type=int, default=16)
    p.add_argument("--dp", type=int, default=8)
    p.set_defaults(func=cmd_ordering)

    p = sub.add_parser("imbalance",
                       help="fleet document-mask imbalance (Figure 14)")
    p.add_argument("--ngpu", type=int, default=8192)
    p.add_argument("--seq", type=int, default=131072)
    p.add_argument("--cp", type=int, default=16)
    p.add_argument("--dp", type=int, default=32, help="DP groups simulated")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--mean-doc", type=float, default=32768.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON report")
    p.set_defaults(func=cmd_imbalance)

    p = sub.add_parser(
        "trace",
        help="run a simulation and export its Perfetto timeline")
    p.add_argument("--cmd", default="step",
                   choices=("step", "phases", "workload"),
                   help="which simulation to trace")
    p.add_argument("--out", metavar="PATH",
                   help="output trace_event JSON path")
    p.add_argument("--stdout", action="store_true",
                   help="write the trace JSON to stdout (summary moves "
                        "to stderr) for piping into `repro analyze "
                        "--ingest -`")
    _add_job_args(p)
    _add_step_parallel_args(p)
    p.add_argument("--steps", type=int, default=3,
                   help="workload: training steps to simulate")
    p.add_argument("--slow-rank", type=int, default=None,
                   help="workload: rank to slow down (fault injection)")
    p.add_argument("--slowdown", type=float, default=0.5,
                   help="workload: extra seconds per compute op of "
                        "--slow-rank (> 0)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "analyze",
        help="trace analytics: critical path, run diff/blame, ingestion")
    _add_job_args(p)
    _add_step_parallel_args(p)
    p.add_argument("--critical-path", action="store_true",
                   help="print the full chronological critical-path "
                        "chain instead of the top-duration summary")
    p.add_argument("--diff", metavar="BASELINE",
                   help="diff the simulated step against a baseline "
                        "trace_event JSON file of the same config and "
                        "blame the regression")
    p.add_argument("--fault", action="append", metavar="SPEC",
                   help="inject a fault spec (repeatable, same grammar "
                        "as `repro faults`) and diff against the healthy "
                        "baseline")
    p.add_argument("--ingest", metavar="PATH",
                   help="stream-aggregate a trace_event JSON file in "
                        "constant memory ('-' reads stdin) instead of "
                        "simulating a step")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="entries per ranked list (path ops, regressions, "
                        "slowest events)")
    p.add_argument("--blame-threshold", type=float, default=0.05,
                   metavar="FRACTION",
                   help="minimum share of the total regression a "
                        "(kind, stream) bucket must own to be blamed")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.analysis/v1 JSON report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the step timeline with critical-path "
                        "flow/instant annotations as Perfetto "
                        "trace_event JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "faults",
        help="inject faults into one step; report goodput + detection")
    _add_job_args(p)
    _add_step_parallel_args(p)
    # Small default shape: detection simulates every global rank, and the
    # 8-GPU (tp=2, cp=2, pp=2) mesh is the paper's running example scale.
    p.set_defaults(model="8b", seq=8192, gbs=8, ngpu=8,
                   tp=2, cp=2, pp=2, dp=1, zero=2)
    p.add_argument("--fault", action="append", metavar="SPEC",
                   help="fault spec, repeatable — e.g. "
                        "straggler:rank=6,extra=0.5  "
                        "link:dim=tp,group=0,scale=2.0  "
                        "hang:rank=2,seconds=5,timeout=2  "
                        "jitter:rank=1,period=2,extra=0.05  "
                        "retry:dim=dp,retries=2,extra=0.05 "
                        "(overrides --preset)")
    p.add_argument("--preset", default="straggler-default", metavar="NAME",
                   help="named fault scenario from repro.faults."
                        "FAULT_PRESETS, used when no --fault is given "
                        "(default: straggler-default — a 25%%-throttled "
                        "GPU on the second-to-last rank)")
    p.add_argument("--no-detect", action="store_true",
                   help="skip the Section 6.1 localisation pass")
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON goodput report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the faulted step timeline as Perfetto "
                        "trace_event JSON (faulted ops tagged)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "run",
        help="simulate a multi-step run under failures; report goodput")
    _add_job_args(p)
    # Small default fleet: 4 nodes of the paper's 8b shape keeps the
    # per-policy comparison fast while still exercising node-level loss.
    p.set_defaults(model="8b", seq=8192, gbs=32, ngpu=32)
    p.add_argument("--steps", type=int, default=200,
                   help="optimizer steps the run must commit")
    p.add_argument("--mtbf", type=float, default=300.0, metavar="SECONDS",
                   help="fleet mean time between failures")
    p.add_argument("--policy", default="young-daly",
                   help="checkpoint policy: none | young-daly | "
                        "fixed:<steps> | tiered:auto | "
                        "tiered:<tier>=<interval>[,...] with tiers "
                        "peer/local/remote")
    p.add_argument("--taxonomy", default="iid",
                   help="failure taxonomy: iid | rack-correlated | "
                        "gray-heavy | production, or key=value overrides "
                        "(node/retry/rack/pod/gray/corruption fractions, "
                        "retry-p, gray-compute, gray-*-scale)")
    p.add_argument("--topology", default=None, metavar="SPEC",
                   help="failure topology as nodes-per-rack x racks-per-pod "
                        "(e.g. 8x32) or nodes-per-rack=N,racks-per-pod=M; "
                        "default: the cluster's stock topology")
    p.add_argument("--mitigation", default="tolerate",
                   choices=("tolerate", "detect"),
                   help="gray-failure strategy: run degraded forever, or "
                        "arm the Section 6.1 detect-mitigate loop "
                        "(evict-and-replan vs tolerate by projected cost)")
    p.add_argument("--detector", default=None, metavar="SPEC",
                   help="detector model as latency=<steps>,fn=<rate>,"
                        "fp=<rate> (default latency=2,fn=0.1,fp=0)")
    p.add_argument("--seed", type=int, default=0,
                   help="failure-process seed; same seed -> identical "
                        "failure sequence across policies")
    p.add_argument("--wait-for-replacement", action="store_true",
                   help="on permanent node loss, wait for a spare instead "
                        "of elastically replanning on the shrunken fleet")
    p.add_argument("--replacement", type=float, default=300.0,
                   metavar="SECONDS",
                   help="node replacement latency (with "
                        "--wait-for-replacement)")
    p.add_argument("--schedule", default=None, choices=schedule_kinds(),
                   help="pin every fleet segment to one registered "
                        "pipeline schedule (default: the planner's "
                        "family pick)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.resilience/v2 JSON report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the run timeline (steps, checkpoints, "
                        "retry ladders, failure markers) as Perfetto "
                        "trace_event JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "verify",
        help="run invariant fuzz + differential oracles (exit 1 on "
             "violations)")
    p.add_argument("--fuzz", type=int, default=200, metavar="N",
                   help="number of schedule configs to fuzz")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; a failure report plus this seed is a "
                        "complete reproduction recipe")
    p.add_argument("--max-pp", type=int, default=8,
                   help="largest pipeline degree sampled")
    p.add_argument("--max-nmb", type=int, default=16,
                   help="largest micro-batch count sampled")
    p.add_argument("--schedule", default=None, choices=schedule_kinds(),
                   help="fuzz only this registered schedule kind "
                        "(default: sample the kind per case from the "
                        "full registry)")
    p.add_argument("--faults", action="store_true",
                   help="fuzz the fault-localisation loop instead of "
                        "schedule configs (--fuzz counts scenarios)")
    p.add_argument("--engine", action="store_true",
                   help="fuzz the fast simulator engine against the frozen "
                        "reference engine instead of schedule configs "
                        "(--fuzz counts submission sequences; divergences "
                        "shrink to a minimal sequence)")
    p.add_argument("--resilience", action="store_true",
                   help="fuzz the resilient-run simulator over sampled "
                        "failure taxonomies and checkpoint policies "
                        "(--fuzz counts scenarios; checks accounting and "
                        "determinism invariants)")
    p.add_argument("--no-oracles", action="store_true",
                   help="skip the differential-oracle battery")
    p.add_argument("--no-step-invariants", action="store_true",
                   help="skip the step-graph FSDP timeline invariants")
    p.add_argument("--json", action="store_true",
                   help="emit the stable-schema JSON report")
    p.add_argument("--trace", metavar="PATH",
                   help="write the first shrunk failure's timeline (or a "
                        "clean reference timeline) as Perfetto JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "schedules",
        help="list the registered pipeline schedules (--schedule choices)")
    p.add_argument("--names", action="store_true",
                   help="print one kind per line (for shell loops, e.g. "
                        "the CI schedule matrix)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.schedules/v1 JSON listing")
    p.set_defaults(func=cmd_schedules)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:  # invalid sizes, or a job nothing fits
        print(f"repro: error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as err:
        # Unwritable --trace/--out path and the like: usage error, not a bug.
        print(f"repro: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
