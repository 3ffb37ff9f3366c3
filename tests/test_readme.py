"""The examples in README.md run against the current API."""

import re
from pathlib import Path

from decosim.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README,
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_configs_parse():
    configs = [parse_config(text) for text in _blocks("json")]
    assert [c.scenario for c in configs] == ["central-spin",
                                             "unraveling-check"]


def test_readme_library_snippet_runs():
    (snippet,) = _blocks("python")
    names = {}
    exec(snippet, names)
    assert len(names["rho_t"]) == names["grid"].n_samples
    assert len(names["batch"]) == 1000
    assert names["estimate"].n_traj == 1000
