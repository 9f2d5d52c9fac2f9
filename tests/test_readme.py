"""The README's library example runs as documented, and it names only real options."""

import re
from pathlib import Path

from nkvol.cli import _CATALOG, _COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _options() -> set[str]:
    """--json, --help and every option of the command table, catalog's included."""
    options = {"--json", "--help"}
    for row in [*_COMMANDS.values(), *_CATALOG.values()]:
        options.update(row[-1])
    return options


def test_readme_flags_are_parser_options():
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    commands = [line for line in text.splitlines() if line.startswith("nkvol ")]
    named = {flag for chunk in spans + commands for flag in re.findall(r"--[a-z][a-z0-9-]*", chunk)}
    options = _options()
    assert named and named <= options, sorted(named - options)
