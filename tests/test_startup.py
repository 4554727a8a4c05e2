"""Start-up cost: the symbolic path never loads numpy.

``import symlab``, the catalog build and the ``solve``, ``errata`` and
``export`` commands are exact, so none of them may load numpy, and none may
load the modules they do not use.  Each check runs in a fresh interpreter,
because this process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")

# the symbolic commands, as `main` argument lists
SYMBOLIC_COMMANDS = (
    [["solve", "--group", t] for t in TAGS]
    + [["solve", "--group", t, "--format", "json"] for t in TAGS]
    + [["errata", "--group", t, "--format", "json"] for t in TAGS]
    + [["export", "--group", t] for t in TAGS]
    + [["solve", "--group", "VI", "--q", "3"]]
)

# runs the commands given as JSON in argv[1]; prints the sha256 of each
# one's stdout, its exit status, and the symlab modules and numpy it loaded
_RUN_COMMANDS = """
import contextlib, hashlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None  # any import of numpy now fails
from symlab import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out.append([argv, rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
loaded = sorted(m for m in sys.modules if m.startswith("symlab") or m == "numpy")
print(json.dumps({"runs": out, "loaded": loaded}))
"""


def _python(*args, check=True):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    if check:
        assert done.returncode == 0, done.stderr
    return done


def _loaded_after(code):
    """The symlab modules and numpy that ``code`` leaves in sys.modules."""
    code += (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('symlab') or m == 'numpy')))"
    )
    return json.loads(_python("-c", code).stdout)


def test_import_symlab_loads_no_submodule():
    assert _loaded_after("import symlab") == ["symlab"]


def test_catalog_build_loads_no_numpy():
    loaded = _loaded_after(
        "import symlab\nfrom symlab import catalog, solver\n"
        "for tag in catalog.TAGS:\n    catalog.get_model(tag)"
    )
    assert "numpy" not in loaded
    assert "symlab.dynamics" not in loaded and "symlab.cli" not in loaded


def _run_commands(mode):
    done = _python("-c", _RUN_COMMANDS, json.dumps(SYMBOLIC_COMMANDS), mode)
    return json.loads(done.stdout)


def test_symbolic_commands_load_no_numpy_and_need_none():
    normal = _run_commands("normal")
    assert "numpy" not in normal["loaded"]
    assert "symlab.dynamics" not in normal["loaded"]
    assert all(rc == 0 for _argv, rc, _sha in normal["runs"])
    # the same bytes from an interpreter in which numpy cannot be imported
    assert _run_commands("block")["runs"] == normal["runs"]


def test_verify_and_export_leave_the_solver_unloaded():
    code = (
        "import contextlib, io\n"
        "from symlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['export', '--group', 'VI']) == 0\n"
        "    assert cli.main(['verify', '--group', 'I', '--samples', '1']) == 0"
    )
    loaded = _loaded_after(code)
    assert "symlab.cli" in loaded and "symlab.solver" not in loaded


def test_lazy_submodules_are_reachable():
    code = (
        "import symlab\n"
        "assert callable(symlab.dynamics.integrate) and callable(symlab.cli.main)\n"
        "ns = {}\n"
        "exec('from symlab import *', ns)\n"
        "names = [n for n in symlab.__all__ if n != '__version__']\n"
        "assert all(type(ns[n]).__name__ == 'module' for n in names), ns.keys()\n"
        "assert ns['__version__'] == symlab.__version__\n"
        "assert symlab.dynamics.IntegrationError is symlab.expr.IntegrationError\n"
        "print(len(names))"
    )
    assert _python("-c", code).stdout == "7\n"


def test_unknown_attribute_is_an_attribute_error():
    code = "import symlab\ntry:\n    symlab.numpy\nexcept AttributeError as e:\n    print(e)"
    assert _python("-c", code).stdout == "module 'symlab' has no attribute 'numpy'\n"


def test_runaway_simulate_exits_2_with_one_error_line(tmp_path):
    # a uniform field: the flow grows like exp(2 tau) and leaves double range;
    # dynamics loads only inside simulate, and main still reports its error
    path = tmp_path / "runaway.manifest"
    path.write_text("[bindings]\ngamma0 = u0\n")
    done = _python(
        "-m", "symlab", "simulate", "--group", "V", "--tau", "10", "--bindings", str(path),
        check=False,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


# runs `main` on argv[2:] with the module named in argv[1] made unimportable
_MAIN_WITHOUT = """
import sys
sys.modules[sys.argv[1]] = None
from symlab import cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv",
    [["verify", "--group", "I", "--samples", "1"], ["simulate", "--group", "I", "--tau", "0.1"]],
    ids=["verify", "simulate"],
)
def test_numeric_commands_without_numpy_exit_2_with_one_error_line(argv):
    done = _python("-c", _MAIN_WITHOUT, "numpy", *argv, check=False)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "numpy" in done.stderr and done.stdout == ""


def test_other_missing_module_keeps_its_traceback():
    done = _python("-c", _MAIN_WITHOUT, "symlab.dynamics", "simulate", "--group", "I", check=False)
    assert done.returncode == 1
    assert "Traceback" in done.stderr and "symlab.dynamics" in done.stderr, done.stderr


def test_report_clock_starts_after_numpy_is_loaded():
    # the text report prints timing_seconds: the one-off numpy import must
    # not be charged to the first model
    code = (
        "import sys, time\n"
        "from symlab import catalog, cli\n"
        "seen = []\n"
        "clock = time.perf_counter\n"
        "def probe():\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    return clock()\n"
        "cli.time.perf_counter = probe\n"
        "cli.run_verification(catalog.get_model('III'), samples=1)\n"
        "print(seen)"
    )
    assert _python("-c", code).stdout == "[True, True]\n"

