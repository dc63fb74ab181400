from __future__ import annotations

import hermflow


def test_every_exported_name_resolves():
    # a renamed or deleted function must leave __all__ with it
    missing = [name for name in hermflow.__all__ if not hasattr(hermflow, name)]
    assert missing == []
    assert len(set(hermflow.__all__)) == len(hermflow.__all__)
