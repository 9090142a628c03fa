"""The layer diagram of DESIGN §8, held statically.

``repro.geo``, ``repro.messages``, ``repro.policy``, ``repro.protocol``
and the transport-free control-plane modules sit *below* the backends:
they import nothing from ``repro.core``, ``repro.runtime``, ``repro.sim``
or the two control-plane drivers, ``if TYPE_CHECKING:`` blocks included.
The check walks the AST rather than ``sys.modules``: ``import repro``
loads every subpackage, so a runtime check would see nothing.

The executors run a ``repro.world.World`` and import none of the
builders that write one, and only the perf ledger still feeds
``LocalCluster`` hardware profiles instead of a world.
"""

from __future__ import annotations

import ast
from importlib.util import find_spec
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Packages and modules that must stay below the backends.
LOWER = [
    "repro/geo",
    "repro/messages.py",
    "repro/policy",
    "repro/protocol",
    "repro/controlplane/errors.py",
    "repro/controlplane/sharding.py",
    "repro/controlplane/router.py",
    "repro/controlplane/replication.py",
]
#: What they may not import (a prefix match on the dotted name).
UPPER = (
    "repro.core",
    "repro.runtime",
    "repro.sim",
    "repro.controlplane.live_driver",
)
#: Two re-export stubs pinned by ``benchmarks/ledger`` (only a benchmark
#: PR may edit it); nothing else may import through them.
LEDGER_ONLY = ("repro.core.messages", "repro.core.policies")

#: The executors, which run a ``repro.world.World`` ...
EXECUTORS = ["repro/core/system.py", "repro/runtime", "repro/metro"]
#: ... and the builders that write one: an executor imports none of them.
BUILDERS = ("repro.api", "repro.experiments.scenario", "repro.faults.scenarios")


def python_files(path: Path) -> List[Path]:
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def imported_names(path: Path, src: Path = SRC) -> Iterator[Tuple[int, str]]:
    """Every module a file imports, anywhere in it, as ``(line, dotted name)``.

    ``from a.b import c`` yields ``a.b.c`` (which has ``a.b`` as a
    prefix, and names the submodule when ``c`` is one); relative imports
    are resolved against the file's own package.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = list(path.parent.relative_to(src).parts)
                package = package[: len(package) - (node.level - 1)]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def hits(name: str, forbidden: Tuple[str, ...]) -> bool:
    return any(name == f or name.startswith(f + ".") for f in forbidden)


def violations(files: List[Path], forbidden: Tuple[str, ...]) -> List[str]:
    return [
        f"{path.relative_to(ROOT)}:{line} imports {name}"
        for path in files
        for line, name in imported_names(path)
        if hits(name, forbidden)
    ]


@pytest.mark.parametrize("lower", LOWER)
def test_lower_layers_import_nothing_from_the_backends(lower):
    files = python_files(SRC / lower)
    assert files, lower
    assert violations(files, UPPER) == []


def test_only_the_ledger_imports_through_the_two_stubs():
    ledger = ROOT / "benchmarks" / "ledger"
    files = [
        path
        for top in ("src", "tests", "benchmarks", "examples")
        for path in python_files(ROOT / top)
        if ledger not in path.parents
    ]
    assert violations(files, LEDGER_ONLY) == []
    # The stubs re-export and do nothing else.
    for stub in ("repro/core/messages.py", "repro/core/policies/global_policies.py"):
        assert len((SRC / stub).read_text().splitlines()) <= 6, stub
    assert ast.parse((SRC / "repro/core/policies/__init__.py").read_text()).body[1:] == []


@pytest.mark.parametrize("executor", EXECUTORS)
def test_executors_import_no_builder(executor):
    files = python_files(SRC / executor)
    assert files, executor
    assert violations(files, BUILDERS) == []


def profile_fed_clusters(path: Path) -> List[str]:
    """``LocalCluster(...)`` calls in ``path`` that pass the profiles
    form: ``n_clients=`` / ``seed=``, or a first argument that is not a
    world (a name, attribute or call whose own name says ``world``)."""

    def head(node: ast.AST) -> str:
        if isinstance(node, ast.Call):
            return head(node.func)
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else ""

    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and head(node.func) == "LocalCluster"):
            continue
        profiles_form = {k.arg for k in node.keywords} & {"n_clients", "seed"}
        first = node.args[0] if node.args else None
        if profiles_form or first is None or "world" not in head(first).lower():
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_the_ledger_passes_profiles_to_local_cluster():
    """Everything else hands ``LocalCluster`` a ``World``; the ledger's
    live workload keeps the profiles form until a benchmark change
    re-points it, and then the form goes."""
    found = [
        hit
        for top in ("src", "tests", "benchmarks", "examples")
        for path in python_files(ROOT / top)
        for hit in profile_fed_clusters(path)
    ]
    assert {hit.split(":")[0] for hit in found} == {"benchmarks/ledger/wl_live.py"}


#: The selection, admission and Central Manager effects.
#: ``repro.protocol.driver`` dispatches them, once, for both backends.
DRIVER_EFFECTS = {
    "SendDiscovery", "ProbeCandidates", "SendJoin", "SendLeave",
    "SendFailoverJoin", "Attached", "UpdateBackups", "FlushBacklog",
    "StartTimer", "ReplyProbe", "ReplyJoin", "ScheduleTestWorkload",
    "NodeOnline", "NodeExpired", "ReplyCandidates", "ReplyPartialCandidates",
}


def test_only_the_protocol_package_names_the_driver_effects():
    """No module outside ``repro/protocol`` imports a selection,
    admission or manager effect, or reaches one as an attribute: a
    backend that wants one is interpreting a machine a second time."""
    protocol = SRC / "repro" / "protocol"
    found = []
    for path in python_files(SRC / "repro"):
        if protocol in path.parents:
            continue
        found += [
            f"{path.relative_to(ROOT)}:{line} imports {name}"
            for line, name in imported_names(path)
            if hits(name, ("repro.protocol",))
            and name.rsplit(".", 1)[-1] in DRIVER_EFFECTS
        ]
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in DRIVER_EFFECTS
        ]
    assert found == []


#: The failover traces: only the manager driver's one promote / rejoin /
#: handoff path builds them.
FAILOVER_TRACES = {"ManagerPromote", "RegistryHandoff"}
#: The three manager backends, and what each left to the driver.
MANAGER_BACKENDS = [
    "repro/core/manager.py",
    "repro/runtime/manager_server.py",
    "repro/controlplane/live_driver.py",
]
DRIVER_ONLY_METHODS = {"_run_effects", "_promote", "mark_down", "mark_up"}


def test_only_the_manager_driver_builds_failover_traces():
    """``ManagerPromote(...)`` and ``RegistryHandoff(...)`` are
    constructed in ``repro/protocol/driver.py`` and nowhere else under
    ``src/``: a second construction site is a second failover path."""
    driver = SRC / "repro" / "protocol" / "driver.py"
    found = []
    for path in python_files(SRC / "repro"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in FAILOVER_TRACES:
                found.append((path, name))
    assert {name for path, name in found if path == driver} == FAILOVER_TRACES
    assert [f"{path.relative_to(ROOT)}: {name}" for path, name in found if path != driver] == []


@pytest.mark.parametrize("backend", MANAGER_BACKENDS)
def test_manager_backends_keep_only_their_transport(backend):
    """No manager backend defines its own effect loop, promotion or
    replica marking: those are ``ManagerDriver``'s."""
    path = SRC / backend
    defined = {
        f"{cls.name}.{item.name}"
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in DRIVER_ONLY_METHODS
    }
    assert defined == set()


@pytest.mark.parametrize(
    "name",
    [
        "repro.core.probing",
        "repro.core.policies.local_policies",
        "repro.core.policies.reputation",
        "repro.policy.reputation",
        "repro.controlplane.sim_driver",
    ],
)
def test_deleted_modules_stay_deleted(name):
    assert find_spec(name) is None


def test_the_sim_manager_imports_only_the_lower_control_plane():
    """``core/manager.py`` is the sim's one Central Manager at every
    shape; of the control plane it may use only the transport-free
    modules, never a driver."""
    lower = tuple(
        f"repro.controlplane.{Path(module).stem}"
        for module in LOWER
        if module.startswith("repro/controlplane/")
    )
    used = [
        name
        for _, name in imported_names(SRC / "repro/core/manager.py")
        if hits(name, ("repro.controlplane",))
    ]
    assert used and [name for name in used if not hits(name, lower)] == []


def test_the_metro_kernel_imports_nothing_from_the_sim():
    """The cohort path is the metro kernel's one frame path: it schedules
    no simulator event, so it imports no part of ``repro.sim``. Only its
    per-frame reference, ``repro/metro/reference.py``, steps a
    ``Simulator``."""
    assert violations([SRC / "repro/metro/kernel.py"], ("repro.sim",)) == []


def test_the_check_sees_type_checking_blocks_and_relative_imports(tmp_path):
    """The walker is what the guarantees above rest on: show that it
    finds an import inside ``if TYPE_CHECKING:``, inside a function, and
    a relative one, and that prefix matching stops at a dot."""
    package = tmp_path / "src" / "repro" / "protocol"
    package.mkdir(parents=True)
    probe = package / "probe.py"
    probe.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.client import EdgeClient\n"
        "def late():\n"
        "    import repro.sim.kernel\n"
        "from ..core import config\n"
        "from repro import corelib\n"
    )
    found = sorted(imported_names(probe, tmp_path / "src"))
    assert [name for _, name in found if hits(name, UPPER)] == [
        "repro.core.client.EdgeClient",
        "repro.sim.kernel",
        "repro.core.config",
    ]
