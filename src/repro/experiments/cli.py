"""Command-line entry point: ``bigvlittle <experiment> [--scale S] [--jobs N]``.

Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table2..table7 all

``--jobs N`` fans each experiment's simulation sweep out over N worker
processes; results land in the persistent cache under ``results/cache/``
(override with ``$BIGVLITTLE_CACHE_DIR``), so an interrupted or repeated
invocation resumes instead of re-simulating.  ``bigvlittle all --jobs N``
is therefore one resumable, parallel full-paper reproduction.

Cache maintenance: ``bigvlittle cache stats`` / ``bigvlittle cache clear``
/ ``bigvlittle cache prune --max-bytes N`` (LRU by file mtime).

Sweep service: ``bigvlittle serve [--port P] [--workers N]
[--cache-root DIR]`` runs the async job queue + result cache + HTTP
results API documented in ``docs/service.md``; its cache is
``DIR/cache``, at the default root the CLI's default ``results/cache``.

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

The eight single-run verbs above, ``trace`` through ``inspect``, share
one parser builder and one main, and always simulate fresh: they never
read or write the result cache, because an attached Observation adds
``obs.*`` keys, and a HostScope host timings, that must not leak into
cached results.  Every verb dispatches from one table, from which
:data:`NAMED_VERBS` and :func:`cli_registry` derive.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from repro.experiments import ablations, benchhistory, figures, tables
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
#: ablations that ignore ``--scale``: ``ablate-switch`` sweeps ``tiny`` and
#: ``small``, ``ablate-regions`` sizes its regions by element count
_SCALE_FREE = {"ablate-switch", "ablate-regions"}

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


def _experiments_main(argv):
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
        kw = {} if name in _SCALE_FREE else {"scale": args.scale}
        print(f"== {name}" + (f" (scale={args.scale})" if kw else "") + " ==")
        if name in _FIGS:
            fn, pr = _FIGS[name]
            data = fn(scale=args.scale, jobs=args.jobs)
        elif name in _ABLATIONS:
            data = _ABLATIONS[name](jobs=args.jobs, **kw)
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


#: the single-run verbs: each builds one workload's program and System,
#: attaches one instrument, simulates fresh, and prints or writes what
#: the instrument measured
_RUN_DESCRIPTIONS = {
    "trace": "Export a Chrome trace_event JSON for one run",
    "profile": "Print a per-unit cycle-attribution stall table for one run",
    "pipeview": "Export an instruction-grain pipeline trace (Konata / "
                "gem5 O3PipeView) for one run",
    "timeline": "Export interval time-series (IPC, stall mix, occupancies, "
                "MPKI, DRAM bandwidth, optionally power/energy) for one run",
    "phases": "Segment one run's sampled timeline into scalar / mode-switch "
              "/ vector-burst / drain phases",
    "hostprof": "Attribute host wall-time of one run to per-component "
                "unit groups: where does the simulator itself spend "
                "time? (bigvlittle-hostprof-v1)",
    "critpath": "Attribute every advance of simulated time in one run "
                "to the unit group whose armed event gated it, plus the "
                "wakeup-graph profile (bigvlittle-critpath-v1)",
    "inspect": "Snapshot every unit's scheduling state — the "
               "wait-for graph, cycles, and blocking frontier — at an "
               "--at-ns horizon or at completion "
               "(bigvlittle-forensics-v1; the same report every "
               "DeadlockError carries as err.forensics)",
}


def _json_flag(ap, what, instead="the table"):
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH",
                    help=f"write {what} as JSON to PATH ('-' or no value: "
                         f"stdout) instead of {instead}")


def _run_parser(verb):
    ap = argparse.ArgumentParser(
        prog=f"bigvlittle {verb}", description=_RUN_DESCRIPTIONS[verb])
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
        _json_flag(ap, "the canonical run dump")
    elif verb == "pipeview":
        ap.add_argument("--out", default="pipe.kanata", metavar="PATH",
                        help="output path (default: pipe.kanata)")
        ap.add_argument("--format", choices=("kanata", "o3"), default=None,
                        help="output format (default: o3 if PATH contains "
                             "'o3', else kanata)")
        ap.add_argument("--window", type=int, default=50_000,
                        help="retired-instruction window; older records drop")
    elif verb == "hostprof":
        ap.add_argument("--stride", type=int, default=1, metavar="N",
                        help="time only every N-th dispatch per group "
                             "(extrapolated; default: 1 = time everything)")
        ap.add_argument("--top", type=int, default=None, metavar="N",
                        help="only show the N largest groups")
        _json_flag(ap, "the bigvlittle-hostprof-v1 report")
    elif verb == "critpath":
        ap.add_argument("--top", type=int, default=10, metavar="N",
                        help="show at most N wakeup seams (default: 10)")
        _json_flag(ap, "the bigvlittle-critpath-v1 report")
    elif verb == "inspect":
        ap.add_argument("--at-ns", type=int, default=None, metavar="N",
                        help="stop the run at N simulated ns and snapshot "
                             "there (default: run to completion and snapshot "
                             "the end state)")
        _json_flag(ap, "the bigvlittle-forensics-v1 report",
                   instead="the text rendering")
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


def _emit_json(path, doc, what):
    """A ``--json`` document: to stdout for ``-``, else to ``path`` with
    one ``wrote <what> to <path>`` line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(f"wrote {what} to {path}")


def _run_main(verb, argv):
    args = _run_parser(verb).parse_args(argv)

    import repro
    from repro.errors import DeadlockError
    from repro.experiments.runner import _program_for
    from repro.obs import (CritPath, HostScope, IntervalSampler, Observation,
                           PipeView)
    from repro.soc import System, preset
    from repro.workloads import get_workload

    cfg = preset(args.system)
    program = _program_for(cfg, get_workload(args.workload, args.scale))
    # one instrument per verb: an Observation (with the layer the verb
    # reads), a HostScope, a CritPath, or, for inspect, only a horizon
    obs = probe = None
    run_kw = {}
    if verb == "trace":
        obs = Observation(max_events=args.max_events)
    elif verb == "pipeview":
        obs = Observation(pipeview=PipeView(window=args.window))
    elif verb in ("timeline", "phases"):
        energy = (args.big, args.little) if args.energy else None
        obs = Observation(sampler=IntervalSampler(interval=args.interval,
                                                  energy=energy))
    elif verb == "profile":
        # the canonical run dump folds in a phase report, so every profile
        # dump carries the phase structure alongside the flat stats
        obs = Observation(sampler=None if args.json is None
                          else IntervalSampler(interval=100))
    elif verb == "hostprof":
        probe = run_kw["hostscope"] = HostScope(stride=args.stride)
    elif verb == "critpath":
        probe = run_kw["critpath"] = CritPath()
    elif args.at_ns is not None:
        run_kw["max_ns"] = args.at_ns
    t0 = time.time()
    system = System(cfg)
    try:
        result = system.run(program, obs=obs, **run_kw)
    except DeadlockError as e:
        # inspect: the horizon (or a genuine deadlock) fired, and its
        # attached report IS the requested snapshot
        if verb != "inspect" or e.forensics is None:
            raise
        result, report = None, e.forensics
    wall = time.time() - t0

    if verb == "inspect":
        from repro.obs.forensics import format_report, snapshot

        if result is not None:
            report = snapshot(system, result.stats["time_ps"],
                              reason="completed")
        if args.json is None:
            print(format_report(report))
        else:
            _emit_json(args.json, report,
                       f"forensics snapshot ({len(report['units'])} units, "
                       f"{len(report['wait_for'])} wait edges)")
        return 0
    if probe is not None and args.json is not None:
        doc = probe.report(meta={
            "workload": args.workload,
            "system": args.system,
            "scale": args.scale,
            "loop": "event",
            "sim_version": repro.__version__,
            "cycles": result.cycles,
        })
        detail = (f"coverage {doc['coverage'] * 100:.1f}%"
                  if verb == "hostprof"
                  else f"{doc['wakeup_edges']} wakeup edges")
        _emit_json(args.json, doc,
                   f"{verb} report ({len(doc['groups'])} groups, {detail})")
        return 0
    if not (verb == "profile" and args.json == "-"):
        print(f"== {args.workload}@{args.scale} on {args.system}: "
              f"{result.cycles} cycles (1 GHz), simulated in {wall:.1f}s ==")
    if probe is not None:
        print(probe.format_table(top=args.top))
    elif verb == "trace":
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
        _emit_json(args.json, doc, f"run dump ({len(doc['stats'])} stats)")
    else:
        print(obs.profile_table(top=args.top))
    return 0


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
                         "mtime) until the cache holds at most N bytes")
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
                    "pool over the result cache, fronted by the "
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
    ap.add_argument("--max-retries", type=int, default=2, metavar="N",
                    help="re-queue a crashed job at most N times before "
                         "marking it failed (default: 2)")
    ap.add_argument("--telemetry", metavar="PATH", default=None,
                    help="append job_*/cache_*/run_* telemetry events "
                         "(JSONL) to PATH while serving")
    return ap


def _serve_main(argv):
    args = _serve_parser().parse_args(argv)

    import os
    import signal

    from repro.service import ServiceApp

    app = ServiceApp(cache_root=args.cache_root, host=args.host,
                     port=args.port, workers=args.workers,
                     max_retries=args.max_retries,
                     telemetry_path=args.telemetry)
    app.start()
    print(f"sweep service on http://{args.host}:{app.port} "
          f"({args.workers} workers, cache root {args.cache_root}) — "
          f"Ctrl-C drains and exits")
    # wait for SIGTERM or Ctrl-C (KeyboardInterrupt): the C-level handler
    # writes each signal to the wakeup pipe, so one that lands just before
    # the read blocks is not lost, as it can be for a threading.Event
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        while os.read(wake_r, 1)[0] != signal.SIGTERM:
            pass
    except KeyboardInterrupt:
        pass
    print("draining in-flight jobs ...")
    app.stop(drain=True)
    st = app.queue.stats()
    print(f"stopped: {st['counters']['done']} jobs done, "
          f"{st['counters']['failed']} failed, "
          f"{st['pending']} still queued for the next start")
    return 0


#: verb -> (parser builder, main). `bigvlittle <verb> ...` dispatches on
#: it; the "" entry is the bare `bigvlittle <experiment>` form
_VERBS = {
    "": (_experiments_parser, _experiments_main),
    "cache": (_cache_parser, _cache_main),
    "serve": (_serve_parser, _serve_main),
    **{verb: (partial(_run_parser, verb), partial(_run_main, verb))
       for verb in _RUN_DESCRIPTIONS},
    "bench-history": (benchhistory.build_parser, benchhistory.main),
    "diff": (_diff_parser, _diff_main),
}

#: every named verb `bigvlittle <verb> ...` dispatches on
NAMED_VERBS = tuple(verb for verb in _VERBS if verb)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    verb = argv[0] if argv and argv[0] in NAMED_VERBS else ""
    return _VERBS[verb][1](argv[1:] if verb else argv)


def cli_registry():
    """Verb -> fully built ``ArgumentParser`` for the whole CLI surface.

    ``tools/docs_check.py`` walks this to cross-check the documentation:
    every verb and flag the docs mention must exist here, and every verb
    here must appear in the docs.  The ``""`` entry is the positional
    experiment parser (``bigvlittle fig7 --jobs 4 ...``).
    """
    return {verb: build() for verb, (build, _) in _VERBS.items()}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


if __name__ == "__main__":
    sys.exit(main())
