"""Command line front end.

Machine-readable JSON goes to stdout and human diagnostics to stderr; the
exit status is 0 only when every requested check passed. Hex operands take
an optional ``0x`` prefix. Random sweeps accept ``--seed`` and default to
seed 0 so repeated runs are byte-identical. ``report`` is ``mul --report``
for widths 12 and 24: the two block commands share one parent parser for
their operands, ``--fault`` and ``--repair``, and one handler.

Each JSON document is encoded in full and goes to stdout in one ``write``
call. ``json.dump`` with ``indent`` hands the stream one small chunk at a
time, and under ``PYTHONUNBUFFERED=1`` (or ``python -u``) each chunk is its
own system call: about 48,000 of them for the mul24 netlist, which then took
longer to write than to build.

The ``verify`` handler imports :mod:`cifm.verify` when it runs, and that
module loads :mod:`cifm.revlogic` only inside the two reversible suites.
The ``metrics`` handler for a reversible circuit, and ``netlist`` for a
reversible target, import :mod:`cifm.revlogic` when they run. So the scalar
commands start without either module and without numpy, and ``cifm verify``
of a block-level suite starts without :mod:`cifm.revlogic`. ``fpmul``
imports :mod:`cifm.fp32` when it runs, so ``mul``, ``report`` and
``netlist`` start without the float32 wrapper and its soft-float module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from . import SUITE_NAMES
from .multiplier import (
    GRID_IDS,
    FaultSpec,
    ModuleId,
    Quadrant,
    RepairConfig,
    cost_report,
    export_netlist,
    mul4,
    mul12,
    mul24,
)

# The values of revlogic.FullAdderVariant, in its order (tests/test_cli.py
# pins them), so the parser offers them without loading revlogic.
_FA_VARIANTS = ("fa-tsg", "fa-ng2", "fa-ng-toffoli", "fa-fredkin5")
_REV_MULS = {"mul4-rev": "mul4", "mul12-rev": "mul12", "cifm-rev": "mul24"}
_CLASSICAL = ("mul4", "mul12", "mul24")

METRICS_CIRCUITS = _FA_VARIANTS + tuple(_REV_MULS) + _CLASSICAL
NETLIST_TARGETS = _CLASSICAL + tuple(_REV_MULS)


def _hex_operand(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex number: {text!r}")


def _parse_position(text: str, what: str) -> ModuleId:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"{what} must look like QUADRANT:row:col, got {text!r}"
        )
    name, row_s, col_s = parts
    try:
        quadrant = Quadrant(name.upper())
        row, col = int(row_s), int(col_s)
        return GRID_IDS[quadrant][(row, col)]
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(f"no block at position {text!r}")


def _fault_flag(text: str) -> FaultSpec:
    pos, sep, value_s = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"fault must look like QUADRANT:row:col=0xVV, got {text!r}"
        )
    target = _parse_position(pos, "fault")
    value = _hex_operand(value_s)
    if not 0 <= value < 256:
        raise argparse.ArgumentTypeError(f"forced output {value_s!r} exceeds 8 bits")
    return FaultSpec(target, value)


def _repair_flag(text: str) -> ModuleId:
    return _parse_position(text, "repair")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifm",
        description="Block-structured 24x24 multiplier toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    # the operands, faults and repairs of the two block commands
    blocks = argparse.ArgumentParser(add_help=False)
    blocks.add_argument("a", type=_hex_operand)
    blocks.add_argument("b", type=_hex_operand)
    blocks.add_argument(
        "--fault", type=_fault_flag, action="append", default=[],
        metavar="Q:I:J=0xVV", help="force a block's output to a constant",
    )
    blocks.add_argument(
        "--repair", type=_repair_flag, action="append", default=[],
        metavar="Q:I:J", help="swap the quadrant spare in for this block",
    )

    mul_p = sub.add_parser("mul", parents=[blocks],
                           help="integer multiply through the block datapath")
    mul_p.add_argument("--width", type=int, choices=(4, 12, 24), default=24)
    mul_p.add_argument("--report", action="store_true",
                       help="emit product plus activity report as JSON")

    fp_p = sub.add_parser("fpmul", help="IEEE-754 single precision multiply")
    fp_p.add_argument("a", type=_hex_operand)
    fp_p.add_argument("b", type=_hex_operand)
    fp_p.add_argument("--trace", action="store_true")
    fp_p.add_argument("--truncate", action="store_true",
                      help="drop guard bits instead of rounding to nearest even")

    ver_p = sub.add_parser("verify", help="run a named verification sweep")
    ver_p.add_argument("suite", choices=sorted(SUITE_NAMES))
    ver_p.add_argument("--seed", type=int, default=0)

    met_p = sub.add_parser("metrics", help="gate/garbage/delay or cell counts")
    met_p.add_argument("circuit", choices=METRICS_CIRCUITS)
    met_p.add_argument("--with-features", action="store_true",
                       help="include checker and repair cells (classical only)")

    net_p = sub.add_parser("netlist", help="dump a netlist as JSON")
    net_p.add_argument("target", choices=NETLIST_TARGETS)

    rep_p = sub.add_parser("report", parents=[blocks],
                           help="activity report for one multiplication")
    rep_p.add_argument("--width", type=int, choices=(12, 24), default=24)
    rep_p.set_defaults(report=True)
    return parser


def _run_blocks(parser, args):
    """Run the multiplication that ``args`` asks for; returns the MulResult.

    Operand ranges and fault targets are checked by the library, whose
    ValueError :func:`main` turns into exit status 2.
    """
    if args.width == 4:
        if args.fault or args.repair:
            parser.error("a lone 4x4 block has no spare; faults need width 12 or 24")
        return mul4(args.a, args.b)

    repairs: dict[Quadrant, RepairConfig] = {}
    for target in args.repair:
        if target.quadrant in repairs:
            parser.error(f"quadrant {target.quadrant.value} repaired twice")
        repairs[target.quadrant] = RepairConfig(enabled=True, target=target)

    if args.width == 12:
        # mul12 takes one RepairConfig, so a repair elsewhere would be dropped
        if set(repairs) - {Quadrant.LL}:
            parser.error("width 12 runs as quadrant LL; use LL:row:col")
        return mul12(args.a, args.b, faults=args.fault,
                     repair=repairs.get(Quadrant.LL, RepairConfig()))
    return mul24(args.a, args.b, faults=args.fault, repair=repairs)


def _write_json(doc) -> None:
    """Write ``doc`` to stdout as indented JSON and a newline, in one call."""
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def cmd_mul(parser, args) -> int:
    """``mul``, and ``report``, which is ``mul --report`` at width 12 or 24."""
    result = _run_blocks(parser, args)
    if args.report:
        doc = {
            "product": f"0x{int(result.product):X}",
            "activity": result.activity.to_json(),
            "power_proxy": result.activity.power_proxy,
            "unrepaired_faults": [str(m) for m in result.unrepaired_faults],
        }
        _write_json(doc)
    else:
        print(f"0x{int(result.product):X}")
    return 0


def cmd_fpmul(parser, args) -> int:
    from .fp32 import Rounding, fp_mul

    mode = Rounding.TRUNCATE if args.truncate else Rounding.NEAREST_EVEN
    bits, trace = fp_mul(args.a, args.b, rounding=mode)
    if args.trace:
        doc = {"result": f"0x{int(bits):08X}", "trace": trace.to_json()}
        _write_json(doc)
    else:
        print(f"0x{int(bits):08X}")
    return 0


def cmd_verify(parser, args) -> int:
    from .verify import run_suite

    start = time.perf_counter()
    result = run_suite(args.suite, seed=args.seed)
    elapsed = time.perf_counter() - start
    print(f"{result.summary()} in {elapsed:.3f} s, seed {args.seed}", file=sys.stderr)
    for note in result.notes:
        print(f"  {note}", file=sys.stderr)
    _write_json(result.to_json())
    return 0 if result.ok else 1


def cmd_metrics(parser, args) -> int:
    name = args.circuit
    if name in _CLASSICAL:
        doc = cost_report(name, with_features=args.with_features).to_json()
    else:
        if args.with_features:
            parser.error("--with-features applies to the classical datapaths only")
        from .revlogic import FullAdderVariant, build_full_adder, expand, metrics_of

        if name in _FA_VARIANTS:
            circuit = build_full_adder(FullAdderVariant(name))
        else:
            circuit = expand(export_netlist(_REV_MULS[name]))
        doc = {"circuit": name} | metrics_of(circuit).to_json()
    _write_json(doc)
    return 0


def cmd_netlist(parser, args) -> int:
    if args.target in _REV_MULS:
        from .revlogic import expand

        doc = expand(export_netlist(_REV_MULS[args.target])).to_json()
    else:
        doc = export_netlist(args.target).to_json()
    _write_json(doc)
    return 0


_HANDLERS = {
    "mul": cmd_mul,
    "fpmul": cmd_fpmul,
    "verify": cmd_verify,
    "metrics": cmd_metrics,
    "netlist": cmd_netlist,
    "report": cmd_mul,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
