"""The runtime stays pure stdlib: importing every exolink module loads no
third-party package.  It also reads no environment variable, so a run's
inputs are exactly what its report records, and it holds no module that the
`exolink` command leaves unloaded."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and every submodule, then prints the top-level names of
# all loaded modules.  The interpreter runs with -S, so no site-packages .pth
# hook loads modules of its own, and a third-party import fails outright.
CHILD = """
import importlib, json, pkgutil, sys
import exolink
for info in pkgutil.walk_packages(exolink.__path__, "exolink."):
    importlib.import_module(info.name)
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_runtime_imports_only_stdlib():
    loaded = set(json.loads(_run_child(CHILD)))
    assert "exolink" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"exolink", "__main__"}
    assert not foreign, f"exolink imports non-stdlib modules: {sorted(foreign)}"


# Imports only the command, then lists the package's modules that it left
# unloaded: a module that no command imports is test-only code in the runtime.
CLI_CHILD = """
import json, pkgutil, sys
import exolink.cli
found = [info.name for info in pkgutil.walk_packages(exolink.__path__, "exolink.")]
print(json.dumps(sorted(name for name in found if name not in sys.modules)))
"""


def _run_child(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return done.stdout


def test_cli_loads_every_runtime_module():
    unloaded = json.loads(_run_child(CLI_CHILD))
    assert not unloaded, f"modules no command imports: {unloaded}"


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_runtime_reads_no_environment():
    found = []
    for path in sorted((SRC / "exolink").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{path.name}:{node.lineno}: from os import {alias.name}"
                    for alias in node.names
                    if alias.name in ENV_READS
                ]
    assert not found, f"exolink reads the environment: {found}"
