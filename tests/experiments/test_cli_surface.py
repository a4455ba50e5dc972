"""The CLI's option surface, pinned.

Every ``cli_registry()`` verb's argparse actions, as (option strings,
dest, default, const, nargs, choices, type name) rows in declaration
order. A refactor of the CLI must leave this table exactly as it is;
a deliberate change to a verb's flags edits the table in the same
change, so the diff shows every flag that moved.
"""

from repro.experiments.cli import cli_registry

SURFACE = {
    "": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "experiment", None, None, None,
         ("fig10", "fig11", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
          "table2", "table3", "table4", "table5", "table6", "table7",
          "ablate-coalesce", "ablate-dram", "ablate-graphs", "ablate-regions",
          "ablate-scaling", "ablate-switch", "ablate-vxu", "all"),
         None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--jobs", "-j"), "jobs", None, None, None, None, "int"),
        (("--no-cache",), "no_cache", False, True, 0, None, None),
        (("--json",), "json", False, True, 0, None, None),
        (("--svg",), "svg", None, None, None, None, None),
        (("--telemetry",), "telemetry", None, None, None, None, None),
        (("--sweep-trace",), "sweep_trace", None, None, None, None, None),
    ),
    "bench-history": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        (("--ledger",), "ledger", "BENCH_history.jsonl", None, None, None,
         None),
        (("--bench",), "bench", None, None, "*", None, None),
        (("--append",), "append", False, True, 0, None, None),
        (("--note",), "note", "", None, None, None, None),
        (("--source",), "source", "local", None, None, None, None),
        (("--html",), "html", None, None, None, None, None),
        (("--json",), "json", False, True, 0, None, None),
        (("--top",), "top", 20, None, None, None, "int"),
        (("--threshold",), "threshold", 0.05, None, None, None, "float"),
    ),
    "cache": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "action", None, None, None, ("stats", "clear", "prune"), None),
        (("--max-bytes",), "max_bytes", None, None, None, None, "int"),
    ),
    "critpath": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--top",), "top", 10, None, None, None, "int"),
        (("--json",), "json", None, "-", "?", None, None),
    ),
    "diff": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "a", None, None, None, None, None),
        ((), "b", None, None, None, None, None),
        (("--timeline",), "timeline", False, True, 0, None, None),
        (("--gate",), "gate", False, True, 0, None, None),
        (("--rel-tol",), "rel_tol", 0.0, None, None, None, "float"),
        (("--tolerances",), "tolerances", None, None, None, None, None),
        (("--top",), "top", 25, None, None, None, "int"),
    ),
    "hostprof": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--stride",), "stride", 1, None, None, None, "int"),
        (("--top",), "top", None, None, None, None, "int"),
        (("--json",), "json", None, "-", "?", None, None),
    ),
    "inspect": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--at-ns",), "at_ns", None, None, None, None, "int"),
        (("--json",), "json", None, "-", "?", None, None),
    ),
    "phases": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--json",), "json", None, None, None, None, None),
        (("--min-intervals",), "min_intervals", 2, None, None, None, "int"),
        (("--interval",), "interval", 100, None, None, None, "int"),
        (("--energy",), "energy", False, True, 0, None, None),
        (("--big",), "big", "b1", None, None, None, None),
        (("--little",), "little", "l1", None, None, None, None),
    ),
    "pipeview": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--out",), "out", "pipe.kanata", None, None, None, None),
        (("--format",), "format", None, None, None, ("kanata", "o3"), None),
        (("--window",), "window", 50000, None, None, None, "int"),
    ),
    "profile": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--top",), "top", None, None, None, None, "int"),
        (("--json",), "json", None, "-", "?", None, None),
    ),
    "serve": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        (("--host",), "host", "127.0.0.1", None, None, None, None),
        (("--port",), "port", 8421, None, None, None, "int"),
        (("--workers",), "workers", 2, None, None, None, "int"),
        (("--cache-root",), "cache_root", "results", None, None, None, None),
        (("--batch",), "batch", 4, None, None, None, "int"),
        (("--max-retries",), "max_retries", 2, None, None, None, "int"),
        (("--telemetry",), "telemetry", None, None, None, None, None),
    ),
    "timeline": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--out",), "out", "timeline.csv", None, None, None, None),
        (("--trace",), "trace", None, None, None, None, None),
        (("--interval",), "interval", 1000, None, None, None, "int"),
        (("--energy",), "energy", False, True, 0, None, None),
        (("--big",), "big", "b1", None, None, None, None),
        (("--little",), "little", "l1", None, None, None, None),
    ),
    "trace": (
        (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, None),
        ((), "workload", None, None, None, None, None),
        (("--system",), "system", "1b-4VL", None, None, None, None),
        (("--scale",), "scale", "small", None, None, ("tiny", "small", "full"),
         None),
        (("--out",), "out", "trace.json", None, None, None, None),
        (("--max-events",), "max_events", 1000000, None, None, None, "int"),
    ),
}


def _row(action):
    choices = action.choices
    return (tuple(action.option_strings), action.dest, action.default,
            action.const, action.nargs,
            tuple(choices) if choices is not None else None,
            action.type.__name__ if action.type is not None else None)


def test_every_verb_keeps_its_options():
    registry = cli_registry()
    assert sorted(registry) == sorted(SURFACE)
    for verb, parser in registry.items():
        assert tuple(_row(a) for a in parser._actions) == SURFACE[verb], verb
