"""argparse's parser of the subcommands, built from their flag tables.

`berrybox.cli.main` reads a valid command from the tables alone; this module,
and argparse with it, loads only for --help and for argv that reading
declines, so help, usage errors and their exit codes stay argparse's.
"""

from __future__ import annotations

import argparse

from . import _COMMON_FLAGS, _NEGATIVE_NUMBER, _SUMMARIES

# the first line of the package docstring, which python -OO strips
_DESCRIPTION = "Batch command-line interface."


def _subcommand(sub, name: str, module):
    """Subparser of one subcommand; a flag whose table entry has no "default"
    is absent from the parsed namespace unless given."""
    sp = sub.add_parser(name, help=_SUMMARIES[name], argument_default=argparse.SUPPRESS, allow_abbrev=False)
    sp._negative_number_matcher = _NEGATIVE_NUMBER
    group = None
    for flag, spec in {**_COMMON_FLAGS, **module.FLAGS}.items():
        spec = dict(spec)
        if spec.pop("exclusive", False):
            group = group or sp.add_mutually_exclusive_group()
            group.add_argument(flag, **spec)
        else:
            sp.add_argument(flag, **spec)
    sp.set_defaults(fn=module.run)


def build(command: str | None = None) -> argparse.ArgumentParser:
    """See `berrybox.cli.build_parser`."""
    known = command in _SUMMARIES
    p = argparse.ArgumentParser(prog="berrybox", description=_DESCRIPTION, allow_abbrev=False)
    # the usage line lists every subcommand, however many are built
    sub = p.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_SUMMARIES) if known else None)
    for name in [command] if known else _SUMMARIES:
        # an import through __import__, unlike importlib's, shows in -X importtime
        _subcommand(sub, name, __import__(f"{__package__}.{name}", fromlist=["run"]))
    return p
