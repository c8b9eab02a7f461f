"""The README's library example and the console script the package declares."""

import importlib
import re
import tomllib
from pathlib import Path

import pytest

from dqdsim import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs_and_its_t2s_agree():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["t2_fit"] == pytest.approx(namespace["t2"], rel=2e-6)


def test_simulate_script_is_the_cli_console_main():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, attribute = scripts["simulate"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is cli.console_main
