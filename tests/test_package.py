"""The package's public surface."""
from __future__ import annotations

import pfchan


def test_every_public_name_resolves():
    missing = [name for name in pfchan.__all__ if not hasattr(pfchan, name)]
    assert missing == []
