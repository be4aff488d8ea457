"""The repo-specific lint rules enforced over ``src/repro``.

Each module holds one rule; :func:`default_rules` builds the suite the
CLI, pytest, and CI all run.
"""

from repro.verify.rules.layering import LayeringRule
from repro.verify.rules.cluster import ClusterDisciplineRule
from repro.verify.rules.cycles import CycleAccountingRule
from repro.verify.rules.errors import ErrorDisciplineRule
from repro.verify.rules.obs import ObsDisciplineRule
from repro.verify.rules.aio import AioDisciplineRule
from repro.verify.rules.snap import SnapDisciplineRule
from repro.verify.rules.state import StateMutationRule


def default_rules():
    """One fresh instance of every rule in the suite."""
    return [LayeringRule(), CycleAccountingRule(), ErrorDisciplineRule(),
            StateMutationRule(), ObsDisciplineRule(), AioDisciplineRule(),
            ClusterDisciplineRule(), SnapDisciplineRule()]


__all__ = ["AioDisciplineRule", "ClusterDisciplineRule", "LayeringRule",
           "CycleAccountingRule", "ErrorDisciplineRule",
           "ObsDisciplineRule", "SnapDisciplineRule", "StateMutationRule",
           "default_rules"]
