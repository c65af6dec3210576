"""The command-line parser, pinned option by option.

``EXPECTED`` holds, for every verb, one row per argparse action: option
strings, dest, default, type name, choices, nargs and action class.  It
was generated from the parser as it stood before ``build_parser`` was
rebuilt from the shared-option and verb tables, so a row that changes is
a changed command line.  Help text is not pinned, and rows compare
without their order (declaration order only moves lines of ``--help``).
"""

import argparse

import pytest

from repro.cli import build_parser, run


def _verbs(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def _row(action: argparse.Action) -> tuple:
    return (
        tuple(action.option_strings),
        action.dest,
        action.default,
        getattr(action.type, "__name__", action.type),
        None if action.choices is None else tuple(action.choices),
        action.nargs,
        type(action).__name__,
    )


def table(parser: argparse.ArgumentParser) -> dict[str, list[tuple]]:
    """Every verb's rows, in declaration order."""
    return {
        verb: [_row(a) for a in p._actions] for verb, p in _verbs(parser).items()
    }


EXPECTED = {
    "fig2": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig3": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig4": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig5": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig6": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig7": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "fig8": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--uls",), "uls", [2.0, 4.0, 6.0, 8.0], "float", None, "+", "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--workers", "--jobs"), "workers", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--checkpoint",), "checkpoint", None, None, None, None, "_StoreAction"),
        (("--resume",), "resume", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "solve": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--epsilon",), "epsilon", 1.0, "float", None, None, "_StoreAction"),
        (("--realizations",), "realizations", 500, "_positive_int",
         None, None, "_StoreAction"),
    ],
    "compare": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--realizations",), "realizations", 500, "_positive_int",
         None, None, "_StoreAction"),
    ],
    "gantt": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--scheduler",), "scheduler", "robust", None,
         ("heft", "cpop", "peft", "minmin", "robust"), None, "_StoreAction"),
        (("--epsilon",), "epsilon", 1.2, "float", None, None, "_StoreAction"),
        (("--width",), "width", 78, "int", None, None, "_StoreAction"),
    ],
    "pareto": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--iterations",), "iterations", 150, "int", None, None, "_StoreAction"),
    ],
    "export": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--out",), "out", "instance.json", None, None, None, "_StoreAction"),
        (("--dot",), "dot", None, None, None, None, "_StoreAction"),
    ],
    "zoo": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--zoo-ul",), "zoo_ul", 4.0, "float", None, None, "_StoreAction"),
        (("--no-dynamic",), "no_dynamic", False, None, None, 0, "_StoreTrueAction"),
    ],
    "sensitivity": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--scale",), "scale", "medium", None,
         ("medium", "paper", "smoke"), None, "_StoreAction"),
        (("--seed",), "seed", None, "int", None, None, "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--parameter",), "parameter", "ccr", None,
         ("ccr", "alpha", "m"), None, "_StoreAction"),
        (("--values",), "values", [0.1, 0.5, 1.0], "float", None, "+", "_StoreAction"),
        (("--sens-ul",), "sens_ul", 4.0, "float", None, None, "_StoreAction"),
    ],
    "faults": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--scenario",), "scenario", None, None, None, None, "_AppendAction"),
        (("--epsilon",), "epsilon", 1.4, "float", None, None, "_StoreAction"),
        (("--realizations",), "realizations", 200, "_positive_int",
         None, None, "_StoreAction"),
        (("--instances",), "instances", 1, "_positive_int", None, None, "_StoreAction"),
        (("--workers",), "workers", 1, "_positive_int", None, None, "_StoreAction"),
        (("--policies",), "policies", ["rerun-static", "repair", "dynamic"], None,
         ("rerun-static", "repair", "dynamic"), "+", "_StoreAction"),
        (("--ga-iterations",), "ga_iterations", 80, "_positive_int",
         None, None, "_StoreAction"),
        (("--ga-population",), "ga_population", 20, "_positive_int",
         None, None, "_StoreAction"),
        (("--list-scenarios",), "list_scenarios", False, None,
         None, 0, "_StoreTrueAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
    ],
    "energy": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--epsilons",), "epsilons", [1.0, 1.3, 1.6], "float",
         None, "+", "_StoreAction"),
        (("--slack-ratio",), "slack_ratio", 0.5, "float", None, None, "_StoreAction"),
        (("--power",), "power", "default", None,
         ("default", "uniform", "null"), None, "_StoreAction"),
        (("--k",), "k", 1, "int", None, None, "_StoreAction"),
        (("--deadline-factor",), "deadline_factor", 4.0, "float",
         None, None, "_StoreAction"),
        (("--realizations",), "realizations", 200, "_positive_int",
         None, None, "_StoreAction"),
        (("--replication-realizations",), "replication_realizations", 10, "_positive_int",
         None, None, "_StoreAction"),
        (("--instances",), "instances", 1, "_positive_int", None, None, "_StoreAction"),
        (("--workers",), "workers", 1, "_positive_int", None, None, "_StoreAction"),
        (("--ga-iterations",), "ga_iterations", 80, "_positive_int",
         None, None, "_StoreAction"),
        (("--ga-population",), "ga_population", 20, "_positive_int",
         None, None, "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
    ],
    "algo-grid": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
        (("--combos",), "combos", None, None, None, "+", "_StoreAction"),
        (("--families",), "families", ["layered", "gauss", "fft", "forkjoin"], None,
         ("layered", "gauss", "fft", "forkjoin"), "+", "_StoreAction"),
        (("--instances",), "instances", 3, "_positive_int", None, None, "_StoreAction"),
        (("--realizations",), "realizations", 200, "_positive_int",
         None, None, "_StoreAction"),
        (("--workers",), "workers", 1, "_positive_int", None, None, "_StoreAction"),
        (("--rank-by",), "rank_by", "makespan", None,
         ("makespan", "r1", "r2"), None, "_StoreAction"),
        (("--list-combos",), "list_combos", False, None, None, 0, "_StoreTrueAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
    ],
    "stream": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--seed",), "seed", 0, "int", None, None, "_StoreAction"),
        (("--stream-jobs",), "stream_jobs", 40, "_positive_int",
         None, None, "_StoreAction"),
        (("--tasks",), "tasks", 24, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--load",), "load", 1.5, "float", None, None, "_StoreAction"),
        (("--arrival",), "arrival", "poisson", None,
         ("poisson", "mmpp"), None, "_StoreAction"),
        (("--burstiness",), "burstiness", 4.0, "float", None, None, "_StoreAction"),
        (("--deadline-factor",), "deadline_factor", 3.0, "float",
         None, None, "_StoreAction"),
        (("--policy",), "policy", "none", None,
         ("none", "prune", "drop"), None, "_StoreAction"),
        (("--grid",), "grid", False, None, None, 0, "_StoreTrueAction"),
        (("--loads",), "loads", None, "float", None, "+", "_StoreAction"),
        (("--policies",), "policies", None, None,
         ("none", "prune", "drop"), "+", "_StoreAction"),
        (("--workers",), "workers", 1, "_positive_int", None, None, "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "serve": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--host",), "host", "127.0.0.1", None, None, None, "_StoreAction"),
        (("--port",), "port", 8642, "int", None, None, "_StoreAction"),
        (("--workers",), "workers", 1, "_positive_int", None, None, "_StoreAction"),
        (("--ga-queue-limit",), "ga_queue_limit", 8, "int", None, None, "_StoreAction"),
        (("--admission",), "admission", "tiered", None,
         ("tiered", "stream"), None, "_StoreAction"),
        (("--stream-threshold",), "stream_threshold", 0.5, "float",
         None, None, "_StoreAction"),
        (("--cache-mb",), "cache_mb", 64.0, "float", None, None, "_StoreAction"),
        (("--shards",), "shards", 1, "_positive_int", None, None, "_StoreAction"),
        (("--transport",), "transport", "tcp", None,
         ("inproc", "tcp"), None, "_StoreAction"),
        (("--steal-margin",), "steal_margin", 1, "_positive_int",
         None, None, "_StoreAction"),
        (("--quiet",), "quiet", False, None, None, 0, "_StoreTrueAction"),
        (("--trace",), "trace", None, None, None, None, "_StoreAction"),
    ],
    "submit": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        (("--host",), "host", "127.0.0.1", None, None, None, "_StoreAction"),
        (("--port",), "port", 8642, "int", None, None, "_StoreAction"),
        (("--op",), "op", "solve", None,
         ("solve", "status", "ping", "shutdown"), None, "_StoreAction"),
        (("--problem",), "problem", None, None, None, None, "_StoreAction"),
        (("--seed",), "seed", 42, "int", None, None, "_StoreAction"),
        (("--tasks",), "tasks", 50, "_positive_int", None, None, "_StoreAction"),
        (("--procs",), "procs", 4, "_positive_int", None, None, "_StoreAction"),
        (("--ul",), "ul", 2.0, "float", None, None, "_StoreAction"),
        (("--solver",), "solver", "ga", None,
         ("heft", "cpop", "peft", "minmin", "heft-append", "heft-greedy",
          "heft-lookahead", "heft-q90", "heft-ready", "blevel-eft", "blevel-append",
          "cpop-append", "cpop-unpinned", "peft-append", "peft-eft", "peft-lookahead",
          "minmin-append", "maxmin", "random-eft", "random-append", "ga"), None,
          "_StoreAction"),
        (("--epsilon",), "epsilon", 1.0, "float", None, None, "_StoreAction"),
        (("--realizations",), "realizations", 500, "_positive_int",
         None, None, "_StoreAction"),
        (("--deadline",), "deadline", None, "float", None, None, "_StoreAction"),
        (("--ga-iterations",), "ga_iterations", None, "_positive_int",
         None, None, "_StoreAction"),
        (("--ga-stagnation",), "ga_stagnation", None, "_positive_int",
         None, None, "_StoreAction"),
        (("--ga-population",), "ga_population", None, "_positive_int",
         None, None, "_StoreAction"),
        (("--warm-start", "--no-warm-start"), "warm_start", True, None,
         None, 0, "BooleanOptionalAction"),
        (("--retry-s",), "retry_s", 5.0, "float", None, None, "_StoreAction"),
        (("--json",), "json", False, None, None, 0, "_StoreTrueAction"),
    ],
    "trace-summary": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, "_HelpAction"),
        ((), "path", None, None, None, None, "_StoreAction"),
        (("--top",), "top", 5, "_positive_int", None, None, "_StoreAction"),
    ],
}


def _key(row: tuple) -> tuple:
    return row[0], row[1]


def test_every_verb_is_registered():
    assert sorted(table(build_parser())) == sorted(EXPECTED)


@pytest.mark.parametrize("verb", sorted(EXPECTED))
def test_verb_options_are_unchanged(verb):
    actual = table(build_parser())[verb]
    assert sorted(actual, key=_key) == sorted(EXPECTED[verb], key=_key)


@pytest.mark.parametrize("verb", sorted(EXPECTED))
def test_help_renders(verb):
    assert verb in _verbs(build_parser())[verb].format_help()


@pytest.mark.parametrize("verb", ["zoo", "sensitivity"])
@pytest.mark.parametrize(
    "flag", [["--uls", "2"], ["--workers", "2"], ["--jobs", "2"],
             ["--checkpoint", "c.jsonl"], ["--resume"]],
)
def test_unread_figure_options_are_usage_errors(verb, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run([verb, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
