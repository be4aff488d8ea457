"""Each lint rule must fire on a deliberately-broken fixture and stay
quiet on the equivalent well-formed code."""

import pathlib
import textwrap

import pytest

from repro.verify import lint_source
from repro.verify.rules.aio import AioDisciplineRule
from repro.verify.rules.cycles import CycleAccountingRule
from repro.verify.rules.errors import ErrorDisciplineRule
from repro.verify.rules.layering import ALLOWED_IMPORTS, LayeringRule
from repro.verify.rules.obs import ObsDisciplineRule
from repro.verify.rules.state import StateMutationRule


def lint(source, modname, rule):
    return lint_source(textwrap.dedent(source), modname, [rule])


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_hw_may_not_import_xpc(self):
        violations = lint(
            "from repro.xpc.engine import XPCEngine\n",
            "repro.hw.cpu", LayeringRule())
        assert len(violations) == 1
        assert violations[0].rule == "layering"
        assert "repro.xpc" in violations[0].message

    def test_hw_may_not_import_kernel(self):
        violations = lint(
            "import repro.kernel.kernel\n",
            "repro.hw.machine", LayeringRule())
        assert violations and violations[0].rule == "layering"

    def test_verify_may_not_import_analysis(self):
        violations = lint(
            "from repro.analysis import render_table\n",
            "repro.verify.model", LayeringRule())
        assert len(violations) == 1
        assert "repro.analysis" in violations[0].message

    @pytest.mark.parametrize("source", [
        "import repro.obs\n",
        "import repro.san\n",
        "from repro import obs\n",
    ])
    def test_kernel_may_not_import_an_observer(self, source):
        violations = lint(source, "repro.kernel.kernel", LayeringRule())
        assert len(violations) == 1
        assert violations[0].rule == "layering"

    def test_kernel_fires_probe_points(self):
        violations = lint("import repro.probe as probe\n",
                          "repro.kernel.kernel", LayeringRule())
        assert violations == []

    def test_xpc_may_import_hw(self):
        violations = lint(
            "from repro.hw.cpu import Core\n",
            "repro.xpc.engine", LayeringRule())
        assert violations == []

    def test_glue_may_not_reach_hw_internals(self):
        violations = lint(
            "from repro.hw.tlb import TLB\n",
            "repro.binder.driver", LayeringRule())
        assert len(violations) == 1
        assert "repro.hw.tlb" in violations[0].message

    @pytest.mark.parametrize("internal", ["tlb", "cache"])
    @pytest.mark.parametrize("glue", ["sel4.kernel", "zircon.kernel",
                                      "binder.driver"])
    def test_glue_may_not_reach_hw_internals_through_the_facade(
            self, glue, internal):
        violations = lint(f"from repro.hw import {internal}\n",
                          f"repro.{glue}", LayeringRule())
        assert len(violations) == 1
        assert f"repro.hw.{internal}" in violations[0].message

    def test_hw_facade_reexports_no_internals(self):
        # A re-exported class is a name, not a submodule, so the rule
        # cannot see ``from repro.hw import TLB``; the facade must not
        # offer it at all.
        import repro.hw
        assert not {"TLB", "CacheModel"} & set(repro.hw.__all__)
        with pytest.raises(ImportError):
            from repro.hw import TLB  # noqa: F401

    def test_glue_may_use_hw_public_surface(self):
        violations = lint(
            "from repro.hw.cpu import Core\n"
            "from repro.hw.machine import Machine\n",
            "repro.sel4.kernel", LayeringRule())
        assert violations == []

    def test_private_cross_package_import(self):
        violations = lint(
            "from repro.hw.cache import _TagArray\n",
            "repro.kernel.kernel", LayeringRule())
        assert len(violations) == 1
        assert "_TagArray" in violations[0].message

    def test_type_checking_imports_exempt(self):
        violations = lint(
            """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.xpc.engine import XPCEngine
            """,
            "repro.hw.machine", LayeringRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            "from repro.xpc.engine import XPCEngine"
            "  # verify-ok: layering\n",
            "repro.hw.machine", LayeringRule())
        assert violations == []

    def test_unknown_unit_is_a_violation(self):
        violations = lint(
            "import os\nfrom repro.mystery import thing\n",
            "repro.kernel.kernel", LayeringRule())
        assert len(violations) == 1          # stdlib is fine, mystery not
        assert "mystery" in violations[0].message

    # -- the oracle contract: executors never see the reference model --
    ORACLE_IMPORTS = {
        "import": "import repro.proptest.oracle\n",
        "from-package": "from repro.proptest import oracle\n",
        "from-module": "from repro.proptest.oracle import Oracle\n",
        "relative-package": "from . import oracle\n",
        "relative-module": "from .oracle import Oracle\n",
    }

    @pytest.mark.parametrize("source", list(ORACLE_IMPORTS.values()),
                             ids=list(ORACLE_IMPORTS))
    @pytest.mark.parametrize("side", ["executors", "gen", "fastexec"])
    def test_mechanism_side_may_not_import_the_oracle(self, side, source):
        violations = lint(source, f"repro.proptest.{side}", LayeringRule())
        assert len(violations) == 1
        assert "repro.proptest.oracle" in violations[0].message

    @pytest.mark.parametrize("source", list(ORACLE_IMPORTS.values()),
                             ids=list(ORACLE_IMPORTS))
    @pytest.mark.parametrize("module", ["harness", "grammar"])
    def test_other_proptest_modules_may_import_the_oracle(self, module,
                                                          source):
        assert lint(source, f"repro.proptest.{module}",
                    LayeringRule()) == []

    def test_relative_import_in_a_package_init(self):
        """``__init__.py`` is its own package: ``..`` is ``repro``."""
        violations = lint_source("from ..hw import tlb\n", "repro.sel4",
                                 [LayeringRule()],
                                 path="src/repro/sel4/__init__.py")
        assert len(violations) == 1
        assert "repro.hw.tlb" in violations[0].message

    # -- the fastcore contract: reference and fast core never meet --
    #: The tempting shortcut: the engine "reuses" a precomputed sum,
    #: and the op-by-op cycle diff silently becomes a tautology.
    FASTCORE_IMPORT = "from repro.fastcore import cycle_table\n"

    def test_fastcore_import_set_is_pinned(self):
        """Editing the map cannot widen fastcore's diet, and only the
        equivalence gate (proptest) may see the fast core."""
        assert ALLOWED_IMPORTS["fastcore"] == {"params"}
        assert [unit for unit, allowed in ALLOWED_IMPORTS.items()
                if "fastcore" in allowed] == ["proptest"]

    def test_reference_units_may_not_import_fastcore(self):
        for unit in ("xpc.engine", "hw.cpu", "kernel.kernel",
                     "runtime.xpclib", "ipc.xpc_transport"):
            violations = lint(self.FASTCORE_IMPORT, f"repro.{unit}",
                              LayeringRule())
            assert len(violations) == 1, unit
            assert "repro.fastcore" in violations[0].message

    def test_aio_and_cluster_may_not_import_fastcore(self):
        for unit in ("aio.pool", "cluster.loadgen"):
            violations = lint(self.FASTCORE_IMPORT, f"repro.{unit}",
                              LayeringRule())
            assert len(violations) == 1, unit
            assert "repro.fastcore" in violations[0].message

    def test_fastcore_may_not_import_the_engine(self):
        violations = lint("from repro.xpc.engine import XPCEngine\n",
                          "repro.fastcore.tables", LayeringRule())
        assert len(violations) == 1
        assert "repro.xpc" in violations[0].message

    def test_fastcore_plain_import_form_is_flagged(self):
        violations = lint("import repro.kernel.kernel\n",
                          "repro.fastcore.structs", LayeringRule())
        assert len(violations) == 1

    def test_fastcore_may_import_params_and_itself(self):
        assert lint("from repro.params import DEFAULT_PARAMS\n"
                    "from repro.fastcore.tables import CycleTable\n",
                    "repro.fastcore.structs", LayeringRule()) == []

    def test_proptest_fastexec_may_import_fastcore(self):
        assert lint(self.FASTCORE_IMPORT, "repro.proptest.fastexec",
                    LayeringRule()) == []

    def test_fastcore_type_checking_import_is_exempt(self):
        assert lint(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.fastcore import CycleTable\n",
            "repro.xpc.engine", LayeringRule()) == []

    def test_fastcore_pragma_suppresses(self):
        assert lint(
            "from repro.fastcore import cycle_table"
            "  # verify-ok: layering\n",
            "repro.xpc.engine", LayeringRule()) == []

    def test_real_fastcore_modules_pass(self):
        for path in sorted(pathlib.Path("src/repro/fastcore").glob("*.py")):
            modname = f"repro.fastcore.{path.stem}".replace(".__init__", "")
            assert lint_source(path.read_text(), modname, [LayeringRule()],
                               path=str(path)) == [], path


# ----------------------------------------------------------------------
# cycle accounting
# ----------------------------------------------------------------------
class TestCycleAccountingRule:
    def test_engine_method_must_charge(self):
        violations = lint(
            """\
            class XPCEngine:
                def xcall(self, entry_id):
                    return entry_id
            """,
            "repro.xpc.engine", CycleAccountingRule())
        assert len(violations) == 1
        assert "xcall" in violations[0].message

    def test_tick_satisfies_the_rule(self):
        violations = lint(
            """\
            class XPCEngine:
                def xcall(self, entry_id):
                    self.core.tick(10)
                    return entry_id
            """,
            "repro.xpc.engine", CycleAccountingRule())
        assert violations == []

    def test_free_listed_methods_exempt(self):
        violations = lint(
            """\
            class XPCEngine:
                def bind(self, thread, state):
                    self.state = state
            """,
            "repro.xpc.engine", CycleAccountingRule())
        assert violations == []

    def test_passive_model_must_not_tick(self):
        violations = lint(
            """\
            class TLB:
                def lookup(self, core, va):
                    core.tick(1)
            """,
            "repro.hw.tlb", CycleAccountingRule())
        assert len(violations) == 1
        assert "passive" in violations[0].message


# ----------------------------------------------------------------------
# error discipline
# ----------------------------------------------------------------------
class TestErrorDisciplineRule:
    def test_bare_exception_forbidden_in_xpc(self):
        violations = lint(
            """\
            def xcall(entry_id):
                raise RuntimeError("nope")
            """,
            "repro.xpc.engine", ErrorDisciplineRule())
        assert len(violations) == 1
        assert "RuntimeError" in violations[0].message

    def test_xpc_error_subclass_allowed(self):
        violations = lint(
            """\
            from repro.xpc.errors import XPCError

            def xcall(entry_id):
                raise XPCError("bad entry")
            """,
            "repro.xpc.engine", ErrorDisciplineRule())
        assert violations == []

    def test_local_subclass_allowed(self):
        violations = lint(
            """\
            from repro.xpc.errors import XPCError

            class WeirdError(XPCError):
                pass

            def f():
                raise WeirdError()
            """,
            "repro.xpc.relayseg", ErrorDisciplineRule())
        assert violations == []

    def test_rule_scoped_to_xpc_package(self):
        violations = lint(
            "def f():\n    raise RuntimeError('fine here')\n",
            "repro.kernel.kernel", ErrorDisciplineRule())
        assert violations == []


# ----------------------------------------------------------------------
# state mutation
# ----------------------------------------------------------------------
class TestStateMutationRule:
    def test_glue_may_not_write_seg_reg(self):
        violations = lint(
            """\
            def hijack(thread, window):
                thread.xpc.seg_reg = window
            """,
            "repro.binder.xpcglue", StateMutationRule())
        assert len(violations) == 1
        assert "seg_reg" in violations[0].message

    def test_glue_may_not_write_active_owner(self):
        violations = lint(
            "def f(seg, thread):\n    seg.active_owner = thread\n",
            "repro.ipc.xpc_transport", StateMutationRule())
        assert len(violations) == 1

    def test_kernel_may_write(self):
        violations = lint(
            """\
            def install(thread, window):
                thread.xpc.seg_reg = window
            """,
            "repro.kernel.kernel", StateMutationRule())
        assert violations == []

    def test_engine_may_write(self):
        violations = lint(
            "def f(state, w):\n    state.seg_reg = w\n",
            "repro.xpc.engine", StateMutationRule())
        assert violations == []

    def test_self_attributes_exempt(self):
        violations = lint(
            """\
            class SegReg:
                def __init__(self):
                    self.seg_reg = None
            """,
            "repro.services.fs", StateMutationRule())
        assert violations == []


# ----------------------------------------------------------------------
# obs discipline
# ----------------------------------------------------------------------
class TestObsDisciplineRule:
    def test_direct_counter_value_write_forbidden(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                obs.ACTIVE.registry.counter("x").value += 1
            """,
            "repro.kernel.kernel", ObsDisciplineRule())
        assert len(violations) == 1
        assert violations[0].rule == "obs-discipline"
        assert "value" in violations[0].message

    def test_write_through_alias_forbidden(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                registry = obs.ACTIVE.registry
                registry.counter("x").value = 5
            """,
            "repro.runtime.xpclib", ObsDisciplineRule())
        assert len(violations) == 1

    def test_container_rebind_forbidden(self):
        violations = lint(
            "def f(session):\n    session.banks = {}\n",
            "repro.services.fs.server", ObsDisciplineRule())
        assert len(violations) == 1
        assert "container" in violations[0].message

    def test_tuple_unpacking_target_caught(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                a, obs.ACTIVE.pmu.thing = 1, 2
            """,
            "repro.ipc.xpc_transport", ObsDisciplineRule())
        assert len(violations) == 1

    def test_reading_and_api_calls_allowed(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f(core):
                if obs.ACTIVE is not None:
                    registry = obs.ACTIVE.registry
                    registry.counter("x").inc(cycle=core.cycles)
                    obs.ACTIVE.pmu.add(core, "cycles.xcall.captest", 6)
                    depth = obs.ACTIVE.spans.open_depth(0)
            """,
            "repro.kernel.kernel", ObsDisciplineRule())
        assert violations == []

    def test_repro_obs_itself_exempt(self):
        violations = lint(
            "def f(self):\n    self.banks = {}\n",
            "repro.obs.pmu", ObsDisciplineRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                obs.ACTIVE.registry.counter("x").value = 0  # verify-ok: obs-discipline
            """,
            "repro.tools.bench", ObsDisciplineRule())
        assert violations == []


# ----------------------------------------------------------------------
# aio-discipline
# ----------------------------------------------------------------------
class TestAioDisciplineRule:
    def test_private_ring_method_call_flagged(self):
        violations = lint(
            """\
            def f(ring, core, data):
                ring._store(0, data)
            """,
            "repro.services.fs.server", AioDisciplineRule())
        assert len(violations) == 1
        assert violations[0].rule == "aio-discipline"
        assert "_store" in violations[0].message

    def test_index_attribute_write_flagged(self):
        violations = lint(
            "def f(ring):\n    ring.sq_head = 7\n",
            "repro.runtime.xpclib", AioDisciplineRule())
        assert len(violations) == 1
        assert "sq_head" in violations[0].message

    def test_chained_write_through_ring_reference_flagged(self):
        violations = lint(
            """\
            def f(self):
                self.ring.header.entries = 0
            """,
            "repro.kernel.kernel", AioDisciplineRule())
        assert len(violations) == 1
        assert "entries" in violations[0].message

    def test_augmented_index_write_flagged(self):
        violations = lint(
            "def f(worker):\n    worker.batcher.ring.cq_tail += 1\n",
            "repro.services.net.server", AioDisciplineRule())
        assert len(violations) == 1

    def test_repro_aio_itself_exempt(self):
        violations = lint(
            "def f(self):\n    self.sq_head = 0\n    self._store(0, b'')\n",
            "repro.aio.ring", AioDisciplineRule())
        assert violations == []

    def test_holding_a_ring_reference_is_legal(self):
        violations = lint(
            """\
            def f(self, core, ring):
                self.ring = ring
                seq = ring.push_sqe(core, ("m",), b"")
                cqe = ring.pop_cqe(core)
                depth = ring.sq_tail - ring.sq_head
            """,
            "repro.services.fs.server", AioDisciplineRule())
        assert violations == []

    def test_generic_entries_attribute_not_claimed(self):
        violations = lint(
            "def f(self):\n    self.entries = []\n",
            "repro.kernel.kernel", AioDisciplineRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            """\
            def f(ring):
                ring.sq_head = 0  # verify-ok: aio-discipline
            """,
            "repro.tools.bench", AioDisciplineRule())
        assert violations == []
