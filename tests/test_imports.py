"""Static and start-up checks on what ``import repro`` pulls in.

numpy is the only third-party package loaded when the package is
imported; anything else (scipy) is imported inside the function that
uses it.  These tests pin both rules: every third-party import in the
source is a declared dependency, and importing every subpackage leaves
scipy unloaded until a function that needs it is called.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _declared_dependencies():
    """Distribution names in ``[project].dependencies`` of pyproject.toml.

    A regex rather than ``tomllib``: Python 3.10 has no ``tomllib``.
    """
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    names = re.findall(r"[\"']\s*([A-Za-z0-9][A-Za-z0-9._-]*)", deps)
    return {n.lower().replace("-", "_") for n in names}


def _third_party_imports():
    """Top-level non-stdlib module -> files importing it, at any depth."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top in ("repro", "__future__"):
                    continue
                found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    assert {"numpy", "scipy"} <= declared  # the regex read the table
    undeclared = {
        module: sorted(files)
        for module, files in _third_party_imports().items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


_GUARD = """
import sys
import repro.apps, repro.bench, repro.bench.microbench, repro.datacutter, repro.net, repro.cli
print(sorted(m for m in ("scipy", "networkx") if m in sys.modules))
from repro.sim.stats import BatchMeans
bm = BatchMeans()
for x in range(100):
    bm.record(x % 7)
print("scipy.stats" in sys.modules)
lo, hi = bm.interval()
print("scipy.stats" in sys.modules, lo < 3.0 < hi)
"""


def test_import_loads_no_scipy_until_batch_means_interval():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _GUARD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.splitlines()
    assert out == ["[]", "False", "True True"]
