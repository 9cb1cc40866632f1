import contextlib
import io
import json
import re
import subprocess
import sys

from cifm.cli import main

CMD = [sys.executable, "-m", "cifm"]


def run(*args):
    """``cifm *args`` run in process through ``cli.main``, returned as the
    CompletedProcess that ``python -m cifm *args`` would give."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:       # argparse errors exit 2
            code = exc.code
    return subprocess.CompletedProcess(
        CMD + list(args), code or 0, out.getvalue(), err.getvalue()
    )


def test_module_entry_point():
    # the __main__ wiring, the one path that run() cannot reach in process
    def spawn(*args):
        return subprocess.run(CMD + list(args), capture_output=True, text=True,
                              timeout=300)

    ok = spawn("mul", "0x3", "0x5")
    assert ok.returncode == 0 and ok.stdout.strip() == "0xF", ok.stderr
    bad = spawn("mul", "--width", "4", "0x1F", "0x1")
    assert bad.returncode == 2 and "a=0x1f" in bad.stderr, bad.stderr


def test_mul_width4():
    r = run("mul", "--width", "4", "0xF", "0xF")
    assert r.returncode == 0
    assert r.stdout.strip() == "0xE1"


def test_mul_accepts_bare_hex():
    r = run("mul", "--width", "24", "ABC", "DEF")
    assert r.stdout.strip() == "0x959184"


def test_mul_report_json():
    r = run("mul", "--width", "24", "0xABC", "0xDEF", "--report")
    doc = json.loads(r.stdout)
    assert doc["product"] == "0x959184"
    assert doc["power_proxy"] == 9
    active = doc["activity"]["active"]
    assert all(m["quadrant"] == "LL" for m in active)


def test_mul_fault_and_repair():
    broken = run("mul", "--width", "12", "0xFFF", "0xFFF", "--fault", "LL:0:0=0xFF")
    fixed = run(
        "mul", "--width", "12", "0xFFF", "0xFFF",
        "--fault", "LL:0:0=0xFF", "--repair", "LL:0:0",
    )
    assert broken.stdout.strip() == "0xFFE01F"
    assert fixed.stdout.strip() == "0xFFE001"


def test_fpmul_examples():
    assert run("fpmul", "0x3F800000", "0x40000000").stdout.strip() == "0x40000000"
    assert run("fpmul", "0x3FC00000", "0x40200000").stdout.strip() == "0x40700000"
    assert run("fpmul", "0x7F800000", "0x00000000").stdout.strip() == "0x7FC00000"


def test_fpmul_trace_is_json():
    r = run("fpmul", "0x3FC00000", "0x40200000", "--trace")
    doc = json.loads(r.stdout)
    assert doc["result"] == "0x40700000"
    assert doc["trace"]["a"]["class"] == "normal"


def test_fpmul_truncate_flag():
    rne = run("fpmul", "0x40490FDB", "0x40490FDB").stdout.strip()
    trunc = run("fpmul", "0x40490FDB", "0x40490FDB", "--truncate").stdout.strip()
    assert int(rne, 16) == int(trunc, 16) + 1


def test_verify_passes_and_reports():
    r = run("verify", "mul4-exhaustive")
    assert r.returncode == 0
    assert "256/256 pass" in r.stderr
    doc = json.loads(r.stdout)
    assert doc["ok"] is True and doc["total"] == 256


def test_verify_times_itself_on_stderr_only():
    from cifm.verify import run_suite

    r = run("verify", "rev-expand", "--seed", "3")
    assert re.search(r"rev-expand: 1256/1256 pass in \d+\.\d{3} s", r.stderr)
    assert r.stdout == json.dumps(run_suite("rev-expand", 3).to_json(), indent=2) + "\n"


def test_metrics_full_adders():
    expected = {
        "fa-tsg": (1, 2, 1),
        "fa-ng2": (3, 3, 3),
        "fa-ng-toffoli": (3, 2, 3),
        "fa-fredkin5": (5, 5, 5),
    }
    for name, (gates, garbage, delay) in expected.items():
        doc = json.loads(run("metrics", name).stdout)
        assert doc["gates"] == gates
        assert doc["garbage_outputs"] == garbage
        assert doc["unit_delay"] == delay


def test_metrics_with_features_grows():
    plain = json.loads(run("metrics", "mul24").stdout)
    full = json.loads(run("metrics", "mul24", "--with-features").stdout)
    assert full["cells"] > plain["cells"]
    assert full["datapath_cells"] == plain["datapath_cells"]


def test_metrics_of_the_reversible_datapath():
    from cifm.multiplier import export_netlist
    from cifm.revlogic import expand, metrics_of

    r = run("metrics", "cifm-rev")
    assert r.returncode == 0, r.stderr
    want = metrics_of(expand(export_netlist("mul24"))).to_json()
    assert json.loads(r.stdout) == {"circuit": "cifm-rev"} | want


def test_metrics_rejects_features_on_reversible():
    r = run("metrics", "fa-tsg", "--with-features")
    assert r.returncode == 2


def test_choices_offered_without_loading_their_modules_are_theirs():
    from cifm import SUITE_NAMES
    from cifm.cli import _FA_VARIANTS, METRICS_CIRCUITS
    from cifm.revlogic import FullAdderVariant
    from cifm.verify import SUITES

    assert _FA_VARIANTS == tuple(v.value for v in FullAdderVariant)
    assert set(_FA_VARIANTS) <= set(METRICS_CIRCUITS)
    assert tuple(SUITES) == SUITE_NAMES
    assert all(fn.__name__ == "suite_" + name.replace("-", "_") for name, fn in SUITES.items())
    usage = run("verify", "--help").stdout
    assert "{" + ",".join(sorted(SUITES)) + "}" in usage


def test_netlist_deterministic():
    one = run("netlist", "mul4").stdout
    two = run("netlist", "mul4").stdout
    assert one == two
    doc = json.loads(one)
    assert sum(c["kind"] == "AND" for c in doc["cells"]) == 16


def test_netlist_mul12_rev():
    from cifm.cli import METRICS_CIRCUITS, NETLIST_TARGETS
    from cifm.multiplier import export_netlist
    from cifm.revlogic import expand

    assert set(NETLIST_TARGETS) <= set(METRICS_CIRCUITS)
    r = run("netlist", "mul12-rev")
    assert r.returncode == 0, r.stderr
    want = expand(export_netlist("mul12")).to_json()
    assert r.stdout == json.dumps(want, indent=2) + "\n"


def test_report_verb():
    doc = json.loads(run("report", "0xF", "0xF").stdout)
    assert doc["power_proxy"] == 1


def test_bad_inputs_exit_2():
    for args, named in [
        (("mul", "--width", "4", "0x1F", "0x1"), "a=0x1f"),
        (("mul", "--width", "12", "0xFFF", "0xFFF", "--fault", "HH:0:0=0x1"), "HH:0:0"),
        (("fpmul", "0x0", "0x100000000"), "b=0x100000000"),
    ]:
        r = run(*args)
        assert r.returncode == 2 and named in r.stderr, (args, r.stderr)
    assert run("mul", "0x1", "0x1", "--fault", "XX:0:0=0x1").returncode == 2
    assert run("mul", "0x1", "0x1", "--fault", "LL:0:0").returncode == 2
    assert run("mul", "0x1", "0x1", "--fault", "LL:9:9=0x1").returncode == 2
    for args, named in [
        (("mul", "0x1", "0x1", "--repair", "LL:0"), "QUADRANT:row:col"),
        (("mul", "0x1", "0x1", "--fault", "LL:0:0:0=0x1"), "QUADRANT:row:col"),
        (("mul", "0x1", "0x1", "--fault", "LL:0:0=0x100"), "exceeds 8 bits"),
        (("mul", "0x1", "0x1", "--repair", "LL:0:0", "--repair", "LL:1:1"),
         "repaired twice"),
        (("mul", "--width", "12", "0x1", "0x1", "--repair", "HH:0:0"), "quadrant LL"),
    ]:
        r = run(*args)
        assert r.returncode == 2 and named in r.stderr, (args, r.stderr)
    assert run("fpmul", "zzz", "0x0").returncode == 2
    assert run("verify", "no-such-suite").returncode == 2
    assert run("netlist", "mul48").returncode == 2


def test_negative_seed_exits_2():
    r = run("verify", "mul4-exhaustive", "--seed", "-1")
    assert r.returncode == 2 and "seed must be non-negative" in r.stderr, r.stderr
    assert r.stdout == ""


def test_fault_rejected_for_width_4():
    r = run("mul", "--width", "4", "0x1", "0x1", "--fault", "LL:0:0=0x1")
    assert r.returncode == 2
