"""Scalar commands and calls without numpy.

``import cifm``, the ``mul``, ``report``, ``fpmul``, ``netlist`` and ``metrics``
commands, single-vector netlist evaluation and ``softfloat_mul`` run in fresh
interpreters, some with numpy blocked, and must print what they print with
numpy loaded.
"""

import contextlib
import io
import json
import subprocess
import sys

from cifm.cli import main

COMMANDS = [
    ["mul", "0x3", "0x5"],
    ["mul", "--width", "4", "0xF", "0xD", "--report"],
    ["mul", "--width", "12", "0xFFF", "0xABC", "--fault", "LL:0:0=0xFF"],
    ["mul", "--width", "12", "0xFFF", "0xFFF", "--fault", "LL:0:0=0xFF",
     "--repair", "LL:0:0", "--report"],
    ["mul", "0xFFFFFF", "0xABCDEF", "--report"],
    ["mul", "0xFFFFFF", "0xFFFFFF", "--fault", "HH:1:2=0x00", "--fault", "LL:2:0=0xA5",
     "--repair", "HH:1:2", "--report"],
    ["mul", "0x1F", "0x1", "--width", "4"],             # exit 2: a does not fit
    ["report", "0x123456", "0xFEDCBA"],
    ["report", "--width", "12", "0x0", "0x0", "--repair", "LL:1:1"],
    ["fpmul", "0x3FC00000", "0x40200000", "--trace"],
    ["fpmul", "0x7F800000", "0x00000000", "--trace"],
    ["fpmul", "0x00800001", "0x3F000000", "--trace", "--truncate"],
    ["netlist", "mul24"],
    ["netlist", "mul12-rev"],
    ["metrics", "cifm-rev"],
    ["metrics", "fa-fredkin5"],
    ["metrics", "mul24", "--with-features"],
]

# Runs in a fresh interpreter: every command through cli.main, then scalar
# netlist and reversible evaluation and scalar soft-float products, printed
# as one JSON document.
SCRIPT = """
import contextlib, io, json, sys
{prelude}
from cifm.cli import main
from cifm.multiplier import export_netlist
from cifm.revlogic import expand, simulate, simulate_inverse
from cifm.softfloat import softfloat_mul

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return [code, out.getvalue()]

doc = {{"cli": [run(args) for args in {commands!r}]}}
nl = export_netlist("mul24")
nets = nl.evaluate_nets({{"a": 0xABCDEF, "b": 0x123456}})
doc["product"] = [sum(nets[net] << k for k, (_, net) in enumerate(nl.outputs)),
                  nl.evaluate({{"a": 0xABCDEF, "b": 0x123456}})]
rev = expand(export_netlist("mul4"))
fwd = simulate(rev, {{f"{{x}}{{k}}": (0xB if x == "a" else 0x6) >> k & 1
                     for x in "ab" for k in range(4)}})
doc["rev"] = [fwd.outputs, simulate_inverse(rev, list(fwd.line_values))]
doc["softfloat"] = [softfloat_mul(0x3FC00000, 0x40200000),
                   softfloat_mul(0x3FAAAAAB, 0x3FAAAAAB, truncate=True)]
doc["numpy_loaded"] = sys.modules.get("numpy") is not None
print(json.dumps(doc))
"""


def _fresh(prelude: str = "") -> dict:
    code = SCRIPT.format(prelude=prelude, commands=COMMANDS)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _in_process(args) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return [code, out.getvalue()]


def test_import_cifm_loads_no_numpy():
    code = ("import json, sys, cifm; cifm.mul4(0, 0); "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('numpy', 'cifm')))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    # fp32, softfloat, revlogic and verify load on first use of one of their names
    assert json.loads(out.stdout) == ["cifm", "cifm.bitcore", "cifm.multiplier"]


def test_scalar_commands_with_numpy_blocked_print_what_they_print_with_it():
    blocked = _fresh('sys.modules["numpy"] = None      # any import of numpy fails')
    assert [code for code, _ in blocked["cli"]] == [0] * 6 + [2] + [0] * 10
    assert blocked["cli"] == [_in_process(args) for args in COMMANDS]
    assert blocked["product"] == [0xABCDEF * 0x123456] * 2
    assert blocked["rev"][0] == {f"p{k}": (0xB * 0x6) >> k & 1 for k in range(8)}
    assert blocked["softfloat"] == [0x40700000, 0x3FE38E39]     # 1.5 * 2.5; (4/3)**2 truncated
    loaded = _fresh("import numpy")
    assert loaded["numpy_loaded"]
    assert {k: v for k, v in blocked.items() if k != "numpy_loaded"} == \
        {k: v for k, v in loaded.items() if k != "numpy_loaded"}


def test_scalar_commands_leave_numpy_unloaded():
    assert not _fresh()["numpy_loaded"]


def test_names_loaded_on_first_use_are_their_modules_public_names():
    import importlib

    import cifm

    for name, module in cifm._LAZY_NAMES.items():
        source = importlib.import_module(f"cifm.{module}")
        assert name in source.__all__
        assert getattr(cifm, name) is getattr(source, name)
    assert set(cifm._LAZY_NAMES) <= set(cifm.__all__) <= set(dir(cifm))
    assert cifm.verify is importlib.import_module("cifm.verify")
