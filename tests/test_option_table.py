"""The argparse parser is the one table of options: the README's option list
and the config-file keys are checked against it, so an option is added in
one place."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from citeheat import cli
from citeheat.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def _subcommand_options() -> dict[str, set[str]]:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in subparser._actions for s in a.option_strings} - {"-h", "--help"}
        for name, subparser in sub.choices.items()
    }


def test_readme_options_sentence_lists_the_parser_options():
    options = _subcommand_options()
    assert len({frozenset(o) for o in options.values()}) == 1, options
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Options: (.*?`)\.", text)
    assert sentence is not None
    listed = re.findall(r"`(--[a-z-]+)", sentence.group(1))
    assert len(listed) == len(set(listed))
    assert set(listed) == options["run"]


def test_config_keys_are_the_parser_options_but_config(tmp_path):
    options = _subcommand_options()["run"] - {"--config"}
    config = tmp_path / "run.cfg"
    for option in sorted(options):
        key = option[2:].replace("-", "_")
        value = "true" if key == "keep_loops" else "2011=x"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        tokens = cli.load_config_file(config)
        assert [token.partition("=")[0] for token in tokens] == [option]
    for key in ("config", "help", "keep-loops", "loops"):
        config.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{re.escape(str(config))}:1: unknown key"):
            cli.load_config_file(config)
