import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import troplog

SRC = str(Path(troplog.__file__).resolve().parents[1])
SUBMODULES = ["affine", "errors", "feasibility", "moduli", "plfunction", "selfmap", "subdivision", "tree"]

# The names that `from troplog import *` binds, and the public names of
# dir(troplog), as they were when __init__ imported every submodule, and
# the `selfmap` submodule.
PUBLIC = [
    "AffineExpr", "CombinatorialType", "Cone", "ConeComplex", "ContactOrder", "Edge",
    "FaceMap", "Fan", "FanCone", "IncompleteFan", "IsomorphismReport", "Leg",
    "LengthMismatch", "Multidegree", "NoSuchEdge", "NoSuchLeg", "NonZeroSum", "PLFunction",
    "ParseError", "SelfMapNormalForm", "SubdividedCell", "SubdividedComplex", "Tree",
    "TropicalMapPoint", "TroplogError", "UnstableRange", "UnsupportedDimension",
    "ValidationReport", "affine", "as_fraction", "build_map_moduli", "build_moduli_complex",
    "canonicalize", "check_feasible", "classify_self_map", "contract_edge",
    "enumerate_tree_types", "errors", "extend_from_leg_slopes", "face_census", "feasibility",
    "is_balanced", "moduli", "multidegree", "plfunction", "plfunction_from_json",
    "plfunction_to_json", "product_decomposition", "prune_redundant", "selfmap",
    "splitting_at_leg", "splitting_expr", "stabilize", "subdivide_cone", "subdivide_map_moduli",
    "subdivision", "tree", "tree_from_json", "tree_to_json", "validate_fan", "validate_tree", "vertex_values",
]

# Runs its argv through `python -m troplog.cli` and writes to stderr, as a
# JSON list, the troplog modules whose bodies ran: an "exec" audit event
# carries each module's code object. The CLI ends its process with
# os._exit, which skips the `finally`, so the list is also written just
# before that exit.
RUN_CLI = """
import json, os, runpy, sys
from pathlib import Path
ran = set()
def hook(event, args):
    if event == "exec":
        path = Path(getattr(args[0], "co_filename", ""))
        if path.parent.name == "troplog":
            ran.add(path.stem)
def report():
    print(json.dumps(sorted(ran)), file=sys.stderr, flush=True)
def report_and_exit(code, exit=os._exit):
    report()
    exit(code)
os._exit = report_and_exit
sys.addaudithook(hook)
try:
    runpy.run_module("troplog.cli", run_name="__main__", alter_sys=True)
finally:
    report()
"""


def _python(*argv: str, cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


@pytest.fixture
def documents(tmp_path):
    legs = [{"label": k, "at": "a"} for k in (1, 2)] + [{"label": 3, "at": "b"}]
    tree = {"vertices": ["a", "b"], "edges": [{"ends": ["a", "b"], "length": "3"}], "legs": legs}
    plf = {
        **tree,
        "basepoint": "a",
        "base_value": "0",
        "edge_slopes": [{"from": "a", "to": "b", "slope": 1}],
        "leg_slopes": {"1": 1, "2": -2, "3": 1},
    }
    fan = {"dim": 1, "cones": [{"gens": [[1]]}, {"gens": [[-1]]}, {"gens": []}]}
    for name, doc in [("tree.json", tree), ("plf.json", plf), ("p1.fan", fan)]:
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


BASE = ["__init__", "affine", "cli", "errors", "tree"]


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["validate", "tree.json"], BASE),
        (["extend", "tree.json", "--sigma", "1,1,-2"], BASE + ["plfunction"]),
        (["multidegree", "plf.json"], BASE + ["plfunction"]),
        (["selfmap", "--r", "2", "--a", "1", "--compose", "3", "4"], ["__init__", "affine", "cli", "errors", "selfmap"]),
        (["moduli", "--n", "4"], BASE + ["moduli", "plfunction"]),
        (["validate-fan", "p1.fan"], BASE + ["feasibility", "moduli", "plfunction", "subdivision"]),
    ],
    ids=["validate", "extend", "multidegree", "selfmap", "moduli", "validate-fan"],
)
def test_command_runs_only_its_modules(documents, argv, ran):
    proc = _python("-c", RUN_CLI, *argv, cwd=documents)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"
    assert json.loads(proc.stderr.splitlines()[-1]) == sorted(ran)


def test_import_registers_every_submodule_and_runs_none(tmp_path):
    # perfbench/spans.py reads sys.modules["troplog.<name>"] for every
    # submodule once `import troplog.cli` has returned.
    script = RUN_CLI.replace(
        'runpy.run_module("troplog.cli", run_name="__main__", alter_sys=True)',
        "import troplog.cli; print(json.dumps(sorted(n for n in sys.modules if n.startswith('troplog'))))",
    )
    proc = _python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(["troplog", "troplog.cli"] + [f"troplog.{m}" for m in SUBMODULES])
    assert json.loads(proc.stderr.splitlines()[-1]) == ["__init__", "cli", "errors"]


def test_public_names_are_the_submodules_objects():
    for name in troplog.__all__:
        if name in SUBMODULES:
            assert getattr(troplog, name) is sys.modules[f"troplog.{name}"]
        else:
            obj = getattr(troplog, name)
            assert obj.__module__ in [f"troplog.{m}" for m in SUBMODULES], name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_keep_their_names(tmp_path):
    # In a fresh interpreter: importing troplog.cli adds `cli` to both.
    script = """
import json, troplog
namespace = {}
exec("from troplog import *", namespace)
print(json.dumps([sorted(k for k in namespace if k != "__builtins__"), dir(troplog)]))
"""
    proc = _python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    star, names = json.loads(proc.stdout)
    assert star == PUBLIC
    assert [n for n in names if not n.startswith("_")] == PUBLIC
    assert "__version__" in names


def test_self_map_names_stay_in_moduli():
    # perfbench/spans.py reads troplog.moduli.SelfMapNormalForm.
    from troplog.moduli import SelfMapNormalForm, classify_self_map

    assert SelfMapNormalForm is sys.modules["troplog.selfmap"].SelfMapNormalForm
    assert classify_self_map is troplog.classify_self_map
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        sys.modules["troplog.moduli"].frobnicate


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        troplog.frobnicate
    with pytest.raises(ImportError):
        from troplog import frobnicate  # noqa: F401


def test_public_name_follows_its_submodule(monkeypatch):
    # The package does not cache a name, so a replacement in the submodule
    # (a monkeypatch, the benchmark's tracer) is what the package returns.
    def replacement(*args):
        return None

    monkeypatch.setattr(sys.modules["troplog.tree"], "canonicalize", replacement)
    assert troplog.canonicalize is replacement
