"""Public export lists name only attributes that exist, and the package
metadata takes its version from the package."""

import pathlib

import pytest

import decosim
import decosim.models


def test_every_exported_name_resolves():
    for package in (decosim, decosim.models):
        missing = [name for name in package.__all__
                   if not hasattr(package, name)]
        assert missing == [], package.__name__


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert (meta["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "decosim.__version__"})
