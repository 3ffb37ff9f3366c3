"""Public export lists name only attributes that exist."""

import decosim
import decosim.models


def test_every_exported_name_resolves():
    for package in (decosim, decosim.models):
        missing = [name for name in package.__all__
                   if not hasattr(package, name)]
        assert missing == [], package.__name__
