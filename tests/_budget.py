"""Hypothesis example budgets that grow with the loaded profile.

A test's own ``@settings(max_examples=...)`` overrides any profile, so the
float-edge oracles ask for ``examples(n)``: ``n`` under Hypothesis's
``default`` and ``ci`` profiles (100 examples), and ``n`` scaled by the
``oracles`` profile's larger default (``tests/conftest.py``) when a run
passes ``--hypothesis-profile=oracles``.
"""

from __future__ import annotations

from hypothesis import settings


def examples(n: int) -> int:
    """``n`` times the loaded profile's ``max_examples`` over 100."""
    return n * settings.default.max_examples // 100
