"""What importing seis binds: no export shadows a submodule, no part of the
package loads scipy (scoring, field generation and warps need numpy only),
and the installed `seis` script is seis.cli.main.

The test process has imported scipy already, so the scipy check runs in a
fresh interpreter and reports the scipy modules it found loaded.
"""

import importlib
import importlib.metadata
import json
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import seis
from seis import cli

from helpers import child_env

CHILD = r"""
import json, sys
from pathlib import Path

import numpy as np

import seis
from seis import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

work = Path(sys.argv[1])
z = np.random.default_rng(0).standard_normal((4, 8, 6, 6))
z_alt = z[..., ::-1].copy()
seis.seis(z, z_alt)
seis.write_tensor(z, work / "a.npy")
seis.write_tensor(z_alt, work / "b.npy")
(work / "m.json").write_text('{"entries": [{"label": "x", "ref": "a.npy", "alt": "b.npy"}]}')
codes = [
    cli.main(["score", str(work / "a.npy"), str(work / "b.npy")]),
    cli.main(["layers", "--manifest", str(work / "m.json"), "--out", str(work / "r.csv")]),
]
scoring = scipy_modules()
_, rows = seis.run_validation_suite(seis.HarnessConfig(dims=(2, 2, 8, 8), trials=1))
codes += [
    cli.main(["synth", "--dims", "2,2,8,8", "--trials", "1", "--out", str(work / "s.csv")]),
    cli.main(["gen", "--dims", "2,2,8,8", "--out", str(work / "g.npy"), "--warp", "rotation"]),
]
print(json.dumps({"codes": codes, "scoring": scoring, "harness": scipy_modules(),
                  "conditions": [row.condition for row in rows],
                  "written": sorted(p.name for p in work.iterdir() if p.stat().st_size)}))
"""


def test_no_part_of_the_package_loads_scipy(tmp_path):
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], cwd=tmp_path,
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scoring"] == []
    assert report["harness"] == []
    assert report["conditions"] == [kind.value for kind in seis.CONDITION_ORDER]
    assert {"s.csv", "g.npy", "g_alt.npy"} <= set(report["written"])


def test_no_export_shadows_a_submodule():
    # `from .m import m` would rebind seis.m from the module to the function
    submodules = {info.name for info in pkgutil.iter_modules(seis.__path__)}
    assert submodules.isdisjoint(seis.__all__)
    assert callable(importlib.import_module("seis.linalg").center_rows)
    assert callable(importlib.import_module("seis.tensor_io").matricize)


def test_console_script_is_cli_main():
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    scripts = pyproject["project"]["scripts"]
    assert scripts == {"seis": "seis.cli:main"}
    entry_point = importlib.metadata.EntryPoint("seis", scripts["seis"], "console_scripts")
    assert entry_point.load() is cli.main
