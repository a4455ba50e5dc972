"""Command-line entry point: ``bigvlittle <experiment> [--scale S] [--jobs N]``.

Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table2..table7 all

``--jobs N`` fans each experiment's simulation sweep out over N worker
processes; results land in the persistent cache under ``results/cache/``
(override with ``$BIGVLITTLE_CACHE_DIR``), so an interrupted or repeated
invocation resumes instead of re-simulating.  ``bigvlittle all --jobs N``
is therefore one resumable, parallel full-paper reproduction.

Cache maintenance: ``bigvlittle cache stats`` / ``bigvlittle cache clear``
/ ``bigvlittle cache prune --max-bytes N`` (LRU by file mtime, across all
shards).

Sweep service: ``bigvlittle serve [--port P] [--workers N]
[--cache-root DIR]`` runs the async job queue + sharded cache + HTTP
results API documented in ``docs/service.md``.

Observability (see ``docs/observability.md``):

* ``bigvlittle trace <workload> --out trace.json`` — run one workload with
  the :mod:`repro.obs` tracer attached and export a Chrome ``trace_event``
  JSON (load it at https://ui.perfetto.dev).
* ``bigvlittle profile <workload> [--json PATH]`` — same run, printed as a
  per-unit cycle-attribution stall table; ``--json`` writes the canonical
  machine-readable run dump instead (the input of ``bigvlittle diff``).
* ``bigvlittle pipeview <workload> --out pipe.kanata`` — instruction-grain
  pipeline lifecycle trace in Konata (``--format kanata``) or gem5
  O3PipeView (``--format o3``) text.
* ``bigvlittle timeline <workload> --out timeline.csv`` — interval
  time-series (IPC, stall mix, occupancies, MPKI, DRAM bandwidth) as CSV
  or JSON (by extension), optionally plus Chrome counter tracks. With
  ``--energy`` each interval also carries Table-VII power and energy
  columns (``--big``/``--little`` pick the DVFS levels).
* ``bigvlittle phases <workload>`` — segment the sampled timeline into
  scalar / mode-switch / vector-burst / drain phases with per-phase stall
  mixes (and energy under ``--energy``); ``--json`` writes the
  ``bigvlittle-phases-v1`` report.
* ``bigvlittle hostprof <workload> [--json PATH] [--top N]`` — run one
  workload with a :class:`~repro.obs.host.HostScope` attached and report
  where the *simulator* spends host wall-time, per unit group
  (``bigvlittle-hostprof-v1``). This is the measurement behind the
  ROADMAP's vectorized-lane-execution plan: the biggest host share is
  what to batch next.
* ``bigvlittle critpath <workload> [--json PATH]`` — the dual of
  ``hostprof``: attribute every advance of *simulated* time to the unit
  group whose armed event gated it, plus the wakeup-graph profile
  (``bigvlittle-critpath-v1``). The per-group critical sim-times tile
  the total simulated time exactly.
* ``bigvlittle inspect <workload> [--at-ns N] [--json PATH]`` — the
  deadlock-forensics snapshot (``bigvlittle-forensics-v1``) on demand:
  every unit's scheduling state, the wait-for graph with cycle
  detection, and the blocking frontier, taken at the ``--at-ns``
  horizon (or at completion). The same report rides on every
  ``DeadlockError`` as ``err.forensics``.
* ``bigvlittle diff a.json b.json [--gate]`` — classified stat diff of two
  run dumps; under ``--gate`` any exact mismatch or out-of-tolerance
  timing delta exits nonzero (the CI regression gate). ``--tolerances``
  loads a per-stat-family tolerance schema (see
  ``benchmarks/diff_tolerances.json``) in place of the flat ``--rel-tol``;
  ``--timeline`` diffs two timeline dumps instead, localizing the first
  out-of-tolerance cycle per column.

All obs verbs always simulate fresh (never read or write the result
cache: attaching an Observation adds ``obs.*`` keys that must not leak
into cached results).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import ablations, figures, tables
from repro.experiments.cache import configure, get_cache

_FIGS = {
    "fig4": (figures.fig4, figures.print_fig4),
    "fig5": (figures.fig5, lambda d: figures.print_normalized(d, "ifetch / 1bDV")),
    "fig6": (figures.fig6, lambda d: figures.print_normalized(d, "data reqs / 1bDV")),
    "fig7": (figures.fig7, figures.print_fig7),
    "fig8": (figures.fig8, figures.print_fig8),
    "fig9": (figures.fig9, figures.print_fig9),
    "fig10": (figures.fig10, figures.print_fig10),
    "fig11": (figures.fig11, figures.print_fig11),
}

_ABLATIONS = {
    "ablate-scaling": ablations.cluster_scaling,
    "ablate-switch": ablations.switch_penalty,
    "ablate-vxu": ablations.vxu_topology,
    "ablate-coalesce": ablations.coalesce_width,
    "ablate-dram": ablations.dram_bandwidth,
    "ablate-graphs": ablations.graph_topology,
    "ablate-regions": ablations.region_granularity,
}

_TABLES = {
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "table6": tables.table6_data,
    "table7": tables.table7,
}


def _experiments_parser():
    parser = argparse.ArgumentParser(
        prog="bigvlittle",
        description="Regenerate big.VLITTLE (MICRO 2022) evaluation results",
        epilog="Result-cache maintenance: bigvlittle cache {stats,clear,prune}",
    )
    parser.add_argument("experiment",
                    choices=sorted(_FIGS) + sorted(_TABLES) + sorted(_ABLATIONS) + ["all"])
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "full"))
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="simulate each experiment's sweep on N worker "
                             "processes (default: serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely (no reads, "
                             "no writes)")
    parser.add_argument("--json", action="store_true", help="dump raw data as JSON")
    parser.add_argument("--svg", metavar="DIR", default=None,
                        help="also render the figure(s) as SVG into DIR")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="append structured sweep-telemetry events "
                             "(JSONL) to PATH: run/cache/worker events with "
                             "config-hash provenance")
    parser.add_argument("--sweep-trace", metavar="PATH", default=None,
                        help="write a Chrome trace of the sweep (one track "
                             "per worker process; open at "
                             "https://ui.perfetto.dev)")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] in ("trace", "profile", "pipeview", "timeline",
                            "phases"):
        return _obs_main(argv[0], argv[1:])
    if argv and argv[0] == "hostprof":
        return _hostprof_main(argv[1:])
    if argv and argv[0] == "critpath":
        return _critpath_main(argv[1:])
    if argv and argv[0] == "inspect":
        return _inspect_main(argv[1:])
    if argv and argv[0] == "bench-history":
        return _bench_history_main(argv[1:])
    if argv and argv[0] == "diff":
        return _diff_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])

    args = _experiments_parser().parse_args(argv)

    if args.no_cache:
        configure(enabled=False)
    cache = get_cache()
    tel = None
    if args.telemetry or args.sweep_trace:
        from repro.experiments import telemetry

        tel = telemetry.enable(path=args.telemetry)

    names = sorted(_FIGS) + sorted(_TABLES) if args.experiment == "all" else [args.experiment]
    t_all = time.time()
    for name in names:
        t0 = time.time()
        h0, m0 = cache.hits, cache.misses
        print(f"== {name} (scale={args.scale}) ==")
        if name in _FIGS:
            fn, pr = _FIGS[name]
            data = fn(scale=args.scale, jobs=args.jobs)
        elif name in _ABLATIONS:
            data = _ABLATIONS[name](jobs=args.jobs)
            pr = None
        else:
            data = _TABLES[name](scale=args.scale, jobs=args.jobs)
            pr = None
        if args.svg and name in _FIGS:
            from repro.experiments.render import render

            paths = render(name, data, args.svg)
            print(f"svg: {paths}")
        if args.json:
            print(json.dumps(_jsonable(data), indent=2))
        elif pr is not None:
            pr(data)
        else:
            print(json.dumps(_jsonable(data), indent=2))
        note = ""
        if cache.enabled:
            note = (f" (cache: {cache.hits - h0} hits, "
                    f"{cache.misses - m0} misses)")
        print(f"-- {name} done in {time.time() - t0:.1f}s{note}\n")
    if len(names) > 1:
        st = cache.stats()
        print(f"== all done in {time.time() - t_all:.1f}s; cache now holds "
              f"{st['disk_entries']} results "
              f"({st['disk_bytes'] / 1024:.0f} KiB) in {st['dir']} ==")
    if tel is not None:
        if args.sweep_trace:
            n = tel.write_chrome_trace(args.sweep_trace)
            print(f"wrote sweep trace ({n} events, "
                  f"{len({s['worker'] for s in tel.spans})} worker tracks) "
                  f"to {args.sweep_trace}")
        if args.telemetry:
            print(f"appended {len(tel.events)} telemetry events "
                  f"to {args.telemetry}")
        from repro.experiments import telemetry

        telemetry.disable()
    return 0


_OBS_DESCRIPTIONS = {
    "trace": "Export a Chrome trace_event JSON for one run",
    "profile": "Print a per-unit cycle-attribution stall table for one run",
    "pipeview": "Export an instruction-grain pipeline trace (Konata / "
                "gem5 O3PipeView) for one run",
    "timeline": "Export interval time-series (IPC, stall mix, occupancies, "
                "MPKI, DRAM bandwidth, optionally power/energy) for one run",
    "phases": "Segment one run's sampled timeline into scalar / mode-switch "
              "/ vector-burst / drain phases",
}


def _obs_parser(verb):
    ap = argparse.ArgumentParser(
        prog=f"bigvlittle {verb}", description=_OBS_DESCRIPTIONS[verb])
    ap.add_argument("workload", help="workload name, e.g. saxpy, mmult, bfs")
    ap.add_argument("--system", default="1b-4VL",
                    help="system preset (default: 1b-4VL)")
    ap.add_argument("--scale", default="small", choices=("tiny", "small", "full"))
    if verb == "trace":
        ap.add_argument("--out", default="trace.json", metavar="PATH",
                        help="output path (default: trace.json)")
        ap.add_argument("--max-events", type=int, default=1_000_000,
                        help="trace ring-buffer capacity (oldest events drop)")
    elif verb == "profile":
        ap.add_argument("--top", type=int, default=None, metavar="N",
                        help="only show the N most-stalled units")
        ap.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write the canonical run dump as JSON to PATH "
                             "('-' or no value: stdout) instead of the table")
    elif verb == "pipeview":
        ap.add_argument("--out", default="pipe.kanata", metavar="PATH",
                        help="output path (default: pipe.kanata)")
        ap.add_argument("--format", choices=("kanata", "o3"), default=None,
                        help="output format (default: o3 if PATH contains "
                             "'o3', else kanata)")
        ap.add_argument("--window", type=int, default=50_000,
                        help="retired-instruction window; older records drop")
    else:  # timeline / phases: both drive an IntervalSampler
        if verb == "timeline":
            ap.add_argument("--out", default="timeline.csv", metavar="PATH",
                            help="output path; .json extension switches the "
                                 "format to columnar JSON (default: "
                                 "timeline.csv)")
            ap.add_argument("--trace", default=None, metavar="PATH",
                            help="also write a Chrome trace JSON whose "
                                 "'sampler' process carries the series as "
                                 "counter tracks")
            default_interval = 1000
        else:
            ap.add_argument("--json", default=None, metavar="PATH",
                            help="write the bigvlittle-phases-v1 report as "
                                 "JSON instead of printing the table")
            ap.add_argument("--min-intervals", type=int, default=2, metavar="N",
                            help="merge phases shorter than N samples into a "
                                 "neighbor (default: 2)")
            default_interval = 100
        ap.add_argument("--interval", type=int, default=default_interval,
                        metavar="CYCLES",
                        help="sample interval in 1 GHz cycles "
                             f"(default: {default_interval})")
        ap.add_argument("--energy", action="store_true",
                        help="add Table-VII power/energy columns (big-cluster "
                             "W, engine W, interval J, cumulative J)")
        ap.add_argument("--big", default="b1", metavar="LEVEL",
                        help="big-core DVFS level for --energy (default: b1)")
        ap.add_argument("--little", default="l1", metavar="LEVEL",
                        help="little-core DVFS level for --energy "
                             "(default: l1)")
    return ap


def _obs_main(verb, argv):
    args = _obs_parser(verb).parse_args(argv)

    from repro.experiments.runner import _program_for
    from repro.obs import IntervalSampler, Observation, PipeView
    from repro.soc import System, preset
    from repro.workloads import get_workload

    cfg = preset(args.system)
    program = _program_for(cfg, get_workload(args.workload, args.scale))
    if verb == "trace":
        obs = Observation(max_events=args.max_events)
    elif verb == "pipeview":
        obs = Observation(pipeview=PipeView(window=args.window))
    elif verb in ("timeline", "phases"):
        energy = (args.big, args.little) if args.energy else None
        obs = Observation(sampler=IntervalSampler(interval=args.interval,
                                                  energy=energy))
    elif verb == "profile" and args.json is not None:
        # the canonical run dump folds in a phase report, so every profile
        # dump carries the phase structure alongside the flat stats
        obs = Observation(sampler=IntervalSampler(interval=100))
    else:
        obs = Observation()
    t0 = time.time()
    result = System(cfg).run(program, obs=obs)
    wall = time.time() - t0
    quiet_json = verb == "profile" and args.json == "-"
    if not quiet_json:
        print(f"== {args.workload}@{args.scale} on {args.system}: "
              f"{result.cycles} cycles (1 GHz), simulated in {wall:.1f}s ==")
    if verb == "trace":
        n = obs.write_chrome_trace(args.out)
        note = f", {obs.tracer.dropped} dropped" if obs.tracer.dropped else ""
        print(f"wrote {n} events to {args.out}{note} "
              f"(open at https://ui.perfetto.dev)")
    elif verb == "pipeview":
        pv = obs.pipeview
        fmt = args.format or ("o3" if "o3" in args.out.lower() else "kanata")
        if fmt == "o3":
            n = pv.write_o3pipeview(args.out)
            viewer = "gem5 util/o3-pipeview.py or Konata"
        else:
            n = pv.write_kanata(args.out)
            viewer = "Konata (https://github.com/shioyadan/Konata)"
        note = f", {pv.dropped} dropped" if pv.dropped else ""
        print(f"wrote {n} instruction records to {args.out}{note} "
              f"(open in {viewer})")
    elif verb == "timeline":
        sampler = obs.sampler
        if args.out.lower().endswith(".json"):
            n = sampler.to_json(args.out)
        else:
            n = sampler.to_csv(args.out)
        note = (f" with energy columns ({args.big}/{args.little})"
                if args.energy else "")
        print(f"wrote {n} samples ({sampler.interval}-cycle interval){note} "
              f"to {args.out}")
        if args.trace:
            obs.write_chrome_trace(args.trace)
            print(f"wrote counter tracks to {args.trace} "
                  f"(open at https://ui.perfetto.dev)")
    elif verb == "phases":
        from repro.obs.phases import PhaseThresholds, detect_phases

        report = detect_phases(
            obs.sampler,
            PhaseThresholds(min_intervals=args.min_intervals))
        if args.json:
            report.to_json(args.json)
            print(f"wrote {len(report)}-phase report to {args.json}")
        else:
            print(report.format_table())
    elif args.json is not None:
        from repro.obs.diff import dump_result
        from repro.obs.phases import detect_phases

        doc = dump_result(result, extra={
            "workload": args.workload,
            "scale": args.scale,
            "phases": detect_phases(obs.sampler).as_dict(),
        })
        text = json.dumps(doc, indent=1, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(text + "\n")
            print(f"wrote run dump ({len(doc['stats'])} stats) to {args.json}")
    else:
        print(obs.profile_table(top=args.top))
    return 0


def _hostprof_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle hostprof",
        description="Attribute host wall-time of one run to per-component "
                    "unit groups: where does the simulator itself spend "
                    "time? (bigvlittle-hostprof-v1)")
    ap.add_argument("workload", help="workload name, e.g. saxpy, mmult, bfs")
    ap.add_argument("--system", default="1b-4VL",
                    help="system preset (default: 1b-4VL)")
    ap.add_argument("--scale", default="small",
                    choices=("tiny", "small", "full"))
    ap.add_argument("--stride", type=int, default=1, metavar="N",
                    help="time only every N-th dispatch per group "
                         "(extrapolated; default: 1 = time everything)")
    ap.add_argument("--top", type=int, default=None, metavar="N",
                    help="only show the N largest groups")
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH",
                    help="write the bigvlittle-hostprof-v1 report as JSON to "
                         "PATH ('-' or no value: stdout) instead of the table")
    return ap


def _hostprof_main(argv):
    args = _hostprof_parser().parse_args(argv)

    import repro
    from repro.experiments.runner import _program_for
    from repro.obs import HostScope
    from repro.soc import System, preset
    from repro.workloads import get_workload

    # like the obs verbs, always simulate fresh: a hostscoped run's
    # timings are host-machine facts, never cache material
    cfg = preset(args.system)
    program = _program_for(cfg, get_workload(args.workload, args.scale))
    hs = HostScope(stride=args.stride)
    t0 = time.time()
    result = System(cfg).run(program, hostscope=hs)
    wall = time.time() - t0
    meta = {
        "workload": args.workload,
        "system": args.system,
        "scale": args.scale,
        "loop": "event",
        "sim_version": repro.__version__,
        "cycles": result.cycles,
    }
    if args.json is not None:
        doc = hs.report(meta=meta)
        if args.json == "-":
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            hs.write_json(args.json, meta=meta)
            print(f"wrote hostprof report ({len(doc['groups'])} groups, "
                  f"coverage {doc['coverage'] * 100:.1f}%) to {args.json}")
        return 0
    print(f"== {args.workload}@{args.scale} on {args.system}: "
          f"{result.cycles} cycles (1 GHz), simulated in {wall:.1f}s ==")
    print(hs.format_table(top=args.top))
    return 0


def _critpath_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle critpath",
        description="Attribute every advance of simulated time in one run "
                    "to the unit group whose armed event gated it, plus the "
                    "wakeup-graph profile (bigvlittle-critpath-v1)")
    ap.add_argument("workload", help="workload name, e.g. saxpy, mmult, bfs")
    ap.add_argument("--system", default="1b-4VL",
                    help="system preset (default: 1b-4VL)")
    ap.add_argument("--scale", default="small",
                    choices=("tiny", "small", "full"))
    ap.add_argument("--top", type=int, default=10, metavar="N",
                    help="show at most N wakeup seams (default: 10)")
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH",
                    help="write the bigvlittle-critpath-v1 report as JSON to "
                         "PATH ('-' or no value: stdout) instead of the table")
    return ap


def _critpath_main(argv):
    args = _critpath_parser().parse_args(argv)

    import repro
    from repro.experiments.runner import _program_for
    from repro.obs import CritPath
    from repro.soc import System, preset
    from repro.workloads import get_workload

    # always simulate fresh: like every obs verb, the attribution is a
    # property of one live event-core schedule, never cache material
    cfg = preset(args.system)
    program = _program_for(cfg, get_workload(args.workload, args.scale))
    cp = CritPath()
    t0 = time.time()
    result = System(cfg).run(program, critpath=cp)
    wall = time.time() - t0
    meta = {
        "workload": args.workload,
        "system": args.system,
        "scale": args.scale,
        "loop": "event",
        "sim_version": repro.__version__,
        "cycles": result.cycles,
    }
    if args.json is not None:
        doc = cp.report(meta=meta)
        if args.json == "-":
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            cp.write_json(args.json, meta=meta)
            print(f"wrote critpath report ({len(doc['groups'])} groups, "
                  f"{doc['wakeup_edges']} wakeup edges) to {args.json}")
        return 0
    print(f"== {args.workload}@{args.scale} on {args.system}: "
          f"{result.cycles} cycles (1 GHz), simulated in {wall:.1f}s ==")
    print(cp.format_table(top=args.top))
    return 0


def _inspect_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle inspect",
        description="Snapshot every unit's scheduling state — the "
                    "wait-for graph, cycles, and blocking frontier — at an "
                    "--at-ns horizon or at completion "
                    "(bigvlittle-forensics-v1; the same report every "
                    "DeadlockError carries as err.forensics)")
    ap.add_argument("workload", help="workload name, e.g. saxpy, mmult, bfs")
    ap.add_argument("--system", default="1b-4VL",
                    help="system preset (default: 1b-4VL)")
    ap.add_argument("--scale", default="small",
                    choices=("tiny", "small", "full"))
    ap.add_argument("--at-ns", type=int, default=None, metavar="N",
                    help="stop the run at N simulated ns and snapshot there "
                         "(default: run to completion and snapshot the end "
                         "state)")
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH",
                    help="write the bigvlittle-forensics-v1 report as JSON "
                         "to PATH ('-' or no value: stdout) instead of the "
                         "text rendering")
    return ap


def _inspect_main(argv):
    args = _inspect_parser().parse_args(argv)

    from repro.errors import DeadlockError
    from repro.experiments.runner import _program_for
    from repro.obs.forensics import format_report, snapshot, write_json
    from repro.soc import System, preset
    from repro.workloads import get_workload

    cfg = preset(args.system)
    program = _program_for(cfg, get_workload(args.workload, args.scale))
    system = System(cfg)
    run_kwargs = {} if args.at_ns is None else {"max_ns": args.at_ns}
    try:
        result = system.run(program, **run_kwargs)
    except DeadlockError as e:
        # the horizon (or a genuine deadlock) fired: its attached report
        # IS the requested snapshot
        report = e.forensics
        if report is None:  # pragma: no cover - snapshot seam failed
            raise
    else:
        report = snapshot(system, result.stats["time_ps"], reason="completed")
    if args.json is not None:
        if args.json == "-":
            print(json.dumps(report, indent=1, sort_keys=True))
        else:
            write_json(report, args.json)
            print(f"wrote forensics snapshot ({len(report['units'])} units, "
                  f"{len(report['wait_for'])} wait edges) to {args.json}")
        return 0
    print(format_report(report))
    return 0


def _bench_history_main(argv):
    from repro.experiments.benchhistory import main as bh_main

    return bh_main(argv)


def _diff_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle diff",
        description="Classified stat diff of two run dumps (see bigvlittle "
                    "profile --json), or — with --timeline — a cycle-aligned "
                    "diff of two timeline dumps")
    ap.add_argument("a", help="baseline dump (JSON)")
    ap.add_argument("b", help="candidate dump (JSON)")
    ap.add_argument("--timeline", action="store_true",
                    help="inputs are bigvlittle-timeline-v1 dumps; align "
                         "rows on cycle values and report where each column "
                         "first leaves tolerance")
    ap.add_argument("--gate", action="store_true",
                    help="exit nonzero on any exact mismatch, missing "
                         "non-obs key, or out-of-tolerance timing delta")
    ap.add_argument("--rel-tol", type=float, default=0.0, metavar="FRAC",
                    help="flat relative tolerance for timing-class deltas "
                         "(default: 0.0 — bit-identical)")
    ap.add_argument("--tolerances", default=None, metavar="PATH",
                    help="bigvlittle-tolerances-v1 JSON of per-stat-family "
                         "tolerances (e.g. benchmarks/diff_tolerances.json); "
                         "overrides --rel-tol")
    ap.add_argument("--top", type=int, default=25, metavar="N",
                    help="show at most N deltas (default: 25)")
    return ap


def _diff_main(argv):
    args = _diff_parser().parse_args(argv)

    from repro.obs.diff import ToleranceSchema, diff_files, diff_timeline_files

    tol = ToleranceSchema.load(args.tolerances) if args.tolerances else None
    if args.timeline:
        if tol is None and args.rel_tol:
            tol = ToleranceSchema(default_rel_tol=args.rel_tol, name="flat")
        report = diff_timeline_files(args.a, args.b, tolerances=tol)
        print(report.format_table(top=args.top))
        if args.gate and not report.ok():
            print(f"GATE FAILED: {len(report.diverged())} columns out of "
                  f"tolerance")
            return 1
        return 0
    report = diff_files(args.a, args.b)
    print(report.format_table(top=args.top, rel_tol=args.rel_tol,
                              tolerances=tol))
    if args.gate and not report.ok(args.rel_tol, tolerances=tol):
        n = (len(report.regressions(args.rel_tol, tolerances=tol))
             + len(report._gated_missing()))
        policy = f"tolerances={tol.name}" if tol else f"rel_tol={args.rel_tol}"
        print(f"GATE FAILED: {n} gated deltas ({policy})")
        return 1
    return 0


def _cache_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle cache",
        description="Inspect, empty, or LRU-prune the persistent result "
                    "cache")
    ap.add_argument("action", choices=("stats", "clear", "prune"))
    ap.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="prune: evict least-recently-used entries (by file "
                         "mtime, across all shards) until the cache holds at "
                         "most N bytes")
    return ap


def _cache_main(argv):
    args = _cache_parser().parse_args(argv)
    cache = get_cache()
    if args.action == "clear":
        st = cache.stats()
        cache.clear()
        print(f"cleared {st['disk_entries']} cached results "
              f"({st['disk_bytes'] / 1024:.0f} KiB) from {st['dir']}")
    elif args.action == "prune":
        if args.max_bytes is None:
            print("cache prune requires --max-bytes N", file=sys.stderr)
            return 2
        out = cache.prune(args.max_bytes)
        print(f"pruned {out['removed']} cached results "
              f"({out['bytes_freed'] / 1024:.0f} KiB); cache now holds "
              f"{out['disk_bytes'] / 1024:.0f} KiB "
              f"(limit {args.max_bytes / 1024:.0f} KiB)")
    else:
        for k, v in cache.stats().items():
            print(f"{k:16s} {v}")
    return 0


def _serve_parser():
    ap = argparse.ArgumentParser(
        prog="bigvlittle serve",
        description="Run the sweep service: an async job queue and worker "
                    "pool over the sharded result cache, fronted by the "
                    "bigvlittle-service-v1 HTTP/JSON API "
                    "(see docs/service.md)")
    ap.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    ap.add_argument("--port", type=int, default=8421,
                    help="TCP port; 0 picks a free one (default: 8421)")
    ap.add_argument("--workers", type=int, default=2, metavar="N",
                    help="job-queue worker threads, and simulation "
                         "processes in the pool they share (default: 2)")
    ap.add_argument("--cache-root", default="results", metavar="DIR",
                    help="service state root: cache/, artifacts/, and the "
                         "service/jobs.jsonl journal live under it "
                         "(default: results)")
    ap.add_argument("--shards", type=int, default=2, metavar="N",
                    help="hex-prefix length sharding cache and artifact "
                         "dirs (default: 2 = 256-way)")
    ap.add_argument("--batch", type=int, default=4, metavar="N",
                    help="max queued jobs one worker claims per sweep "
                         "(default: 4)")
    ap.add_argument("--max-retries", type=int, default=2, metavar="N",
                    help="re-queue a crashed job at most N times before "
                         "marking it failed (default: 2)")
    ap.add_argument("--telemetry", metavar="PATH", default=None,
                    help="append job_*/cache_*/run_* telemetry events "
                         "(JSONL) to PATH while serving")
    return ap


def _serve_main(argv):
    args = _serve_parser().parse_args(argv)

    import signal

    from repro.service import ServiceApp

    app = ServiceApp(cache_root=args.cache_root, host=args.host,
                     port=args.port, workers=args.workers,
                     shards=args.shards, batch=args.batch,
                     max_retries=args.max_retries,
                     telemetry_path=args.telemetry)
    app.start()
    print(f"sweep service on http://{args.host}:{app.port} "
          f"({args.workers} workers, cache root {args.cache_root}) — "
          f"Ctrl-C drains and exits")
    stop = {"flag": False}

    def _sigterm(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    print("draining in-flight jobs ...")
    app.stop(drain=True)
    st = app.queue.stats()
    print(f"stopped: {st['counters']['done']} jobs done, "
          f"{st['counters']['failed']} failed, "
          f"{st['pending']} still queued for the next start")
    return 0


#: every named verb `bigvlittle <verb> ...` dispatches on (the bare
#: `bigvlittle <experiment>` form is the "" entry of the registry)
NAMED_VERBS = ("cache", "serve", "trace", "profile", "pipeview", "timeline",
               "phases", "hostprof", "critpath", "inspect", "bench-history",
               "diff")


def cli_registry():
    """Verb -> fully built ``ArgumentParser`` for the whole CLI surface.

    ``tools/docs_check.py`` walks this to cross-check the documentation:
    every verb and flag the docs mention must exist here, and every verb
    here must appear in the docs.  The ``""`` entry is the positional
    experiment parser (``bigvlittle fig7 --jobs 4 ...``).
    """
    from repro.experiments.benchhistory import build_parser as bh_parser

    registry = {
        "": _experiments_parser(),
        "cache": _cache_parser(),
        "serve": _serve_parser(),
        "hostprof": _hostprof_parser(),
        "critpath": _critpath_parser(),
        "inspect": _inspect_parser(),
        "bench-history": bh_parser(),
        "diff": _diff_parser(),
    }
    for verb in _OBS_DESCRIPTIONS:
        registry[verb] = _obs_parser(verb)
    assert set(registry) - {""} == set(NAMED_VERBS)
    return registry


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


if __name__ == "__main__":
    sys.exit(main())
