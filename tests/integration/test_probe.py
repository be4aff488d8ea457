"""The probe bus: its catalogue matches the stack, and ``armed``
orders, shadows and restores observers.

Every probe point the stack fires is catalogued, and every catalogued
point fires somewhere.  A site fires point ``p`` by calling its
subscriber tuple ``probe.P(...)`` (``region`` also through
``probe.region(...)``).  An uncatalogued tuple would be a point no
observer can subscribe to; a catalogued point with no site is a
promise the stack does not keep.
"""

import ast
import pathlib

import repro.probe as probe

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _fired(path: pathlib.Path):
    """(point, line) for each probe point fired in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "probe"
                and (func.attr.isupper() or func.attr == "region")):
            yield func.attr.lower(), node.lineno


def _sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "probe.py" and path.parent == SRC:
            continue
        for point, line in _fired(path):
            sites.setdefault(point, []).append(
                f"{path.relative_to(SRC.parent)}:{line}")
    return sites


def test_every_fired_point_is_catalogued():
    sites = _sites()
    unknown = {point: where for point, where in sites.items()
               if point not in probe.CATALOGUE}
    assert not unknown, f"uncatalogued probe points: {unknown}"


def test_every_catalogued_point_has_a_site():
    sites = _sites()
    silent = sorted(set(probe.CATALOGUE) - set(sites))
    assert not silent, f"catalogued points nothing fires: {silent}"


def test_every_point_has_a_subscriber_tuple():
    for point in probe.CATALOGUE:
        assert getattr(probe, point.upper()) == (), point


class Listener:
    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def probes(self):
        return {"fault": lambda point, action: self.log.append(self.tag)}


class OtherListener(Listener):
    pass


def _fire(log):
    del log[:]
    probe.FAULT("test.point", {})
    return list(log)


def test_innermost_observer_hears_first_and_scopes_restore():
    log = []
    outer, inner = Listener(log, "outer"), OtherListener(log, "inner")
    with probe.armed(outer):
        with probe.armed(inner):
            assert _fire(log) == ["inner", "outer"]
        assert _fire(log) == ["outer"]
    assert _fire(log) == []


def test_an_observer_shadows_outer_ones_of_its_type():
    log = []
    outer, inner = Listener(log, "outer"), Listener(log, "inner")
    with probe.armed(outer):
        with probe.armed(inner):
            assert _fire(log) == ["inner"]
            with probe.armed(outer):
                assert _fire(log) == ["outer"]
            assert _fire(log) == ["inner"]
        assert _fire(log) == ["outer"]


def test_rearming_a_listening_observer_keeps_the_order():
    log = []
    session, snapper = Listener(log, "session"), OtherListener(log, "snap")
    with probe.armed(session), probe.armed(snapper):
        with probe.armed(session), probe.armed(None):
            assert _fire(log) == ["snap", "session"]
        assert _fire(log) == ["snap", "session"]
