"""Pin the CLI surface: a flag comes back only by editing this file."""

import argparse

from repro.cli import build_parser

_CELL = {"--config", "--workload", "--instructions", "--seed"}
_CHECKING = {"--sanitize", "--sanitize-every", "--check-invariants"}

#: subcommand -> its flags (option strings) and positionals (dest names);
#: "" is the top-level parser
SURFACE = {
    "": {"--version", "--log-json"},
    "list": set(),
    "run": {"record", *_CELL, "--job", "--serve-cache", "--view", "--epoch",
            "--format", "--out", "--window", "--check", *_CHECKING},
    "report": {"artifact"},
    "sweep": {"--workloads", "--instructions", "--seed", "--jobs",
              "--profile-attrib", "--timeline", "--epoch", *_CHECKING},
    "compare": {"baseline", "candidate", "--metric-threshold",
                "--json-out"},
    "verify": {"--model-check", "--coverage", "--json-out"},
    "serve": {"--host", "--port", "--workers", "--job-concurrency",
              "--cache-dir", "--metrics-out"},
    "dashboard": {"--out", "--workloads", "--workload", "--config",
                  "--against", "--instructions", "--seed", "--jobs",
                  "--timeline", "--epoch"},
}


def _surface(parser: argparse.ArgumentParser) -> set:
    names = set()
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        names.update(action.option_strings or [action.dest])
    return names


def test_every_subcommand_exposes_exactly_the_pinned_flags():
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    found = {"": _surface(parser)}
    found.update((name, _surface(sub)) for name, sub in commands.items())
    assert found == SURFACE
