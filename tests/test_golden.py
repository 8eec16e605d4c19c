"""The pinned CLI corpus of tests/golden: every report the CLI gave when the
corpus was written, replayed in-process, and a check that the corpus
reaches every subcommand, option and choice of the parser.

After a change that alters a report on purpose, rewrite the corpus with
``PYTHONPATH=src python3 tests/golden/write_corpus.py`` and list each
changed entry, and why, in CHANGES.md.
"""

import argparse
import importlib.util
import json
from pathlib import Path

from joinrings import cli

WRITER = Path(__file__).with_name("golden") / "write_corpus.py"


def _writer():
    spec = importlib.util.spec_from_file_location("write_corpus", WRITER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


writer = _writer()
CORPUS = [json.loads(line) for line in writer.CORPUS.read_text().splitlines()]


def test_corpus_replays_unchanged():
    changed = [(entry, now) for entry in CORPUS
               if (now := writer.record(entry["argv"])) != entry]
    assert not changed, "\n".join(f"{' '.join(old['argv'])}:\n  pinned {old}\n  now    {now}"
                                  for old, now in changed)


def test_corpus_is_written_from_the_cases():
    # an argv added to CASES but not written, or written and then taken out,
    # would leave the corpus and the writer apart
    argvs = [argv for case in writer.CASES for argv in (case, ["--json", *case])]
    assert [entry["argv"] for entry in CORPUS] == argvs


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _words(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of a parser and the choices of its arguments, --help aside."""
    words = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction | argparse._HelpAction):
            continue
        words |= set(action.option_strings) | set(action.choices or ())
    return words


def test_corpus_reaches_every_subcommand_option_and_exit_code():
    parser = cli.build_parser()
    subcommands = _subcommands(parser)
    used: dict[str, set[str]] = {}  # subcommand -> the words of its argvs
    for entry in CORPUS:
        argv = entry["argv"]
        name = next((word for word in argv if word in subcommands), None)
        used.setdefault(name, set()).update(argv)
    everywhere = set().union(*used.values())
    missing = sorted(_words(parser) - everywhere)
    missing += [f"{name} {word}" for name, sub in subcommands.items()
                for word in sorted(_words(sub) - used.get(name, set()))]
    missing += [name for name in subcommands if name not in used]
    assert not missing, f"no corpus argv uses {missing}"
    assert {entry["exit"] for entry in CORPUS} >= {0, 1, 2}
