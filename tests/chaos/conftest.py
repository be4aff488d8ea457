"""Chaos-suite fixtures.

The chaos tests drive the stack through injected faults, always under
XPCSan, so every fault-recovery path is checked for ownership/race
discipline too — a recovery that touches a ring or link stack from the
wrong core without a sanctioned handoff fails the test even when its
outcome looks right.
"""

from __future__ import annotations

import pytest

import repro.san as san


@pytest.fixture(autouse=True)
def san_session():
    """XPCSan armed around every chaos test."""
    with san.active(san.SanSession()) as session:
        yield session
    assert not session.issues, san.format_issues(session.issues)
