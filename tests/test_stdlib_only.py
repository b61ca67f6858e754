"""The runtime stays pure stdlib: importing every exolink module loads no
third-party package."""
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = set(json.loads(done.stdout))
    assert "exolink" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"exolink", "__main__"}
    assert not foreign, f"exolink imports non-stdlib modules: {sorted(foreign)}"
