"""The simulator reads no environment variables.

Every way to arm an observer or change a run is an explicit argument
(``obs.active``, ``san.active``, executor rosters, CLI flags), so the
same call gives the same simulated result in any shell.  Environment
knobs belong to the test and benchmark harnesses only.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``os`` attributes that read the process environment.
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_READS for alias in node.names):
                yield node.lineno


def test_no_module_reads_the_environment():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    reads = [f"{path.relative_to(SRC.parent)}:{line}"
             for path in modules for line in _env_reads(path)]
    assert not reads, "environment reads under src/repro: " + ", ".join(
        reads)
