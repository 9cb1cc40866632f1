"""Every step program the engine generates, run on every input pattern.

A step's program is the factored AND/XOR form of a truth table
(``_plans.anf_program``); a reversible gate's forward program is also
folded where some of its lines are known to hold a constant. Each test
below writes the program out as the engine does, runs it once on bit planes
that hold every input pattern, one vector per pattern, and compares each
row with the truth table, which it builds from textbook formulas or the
gate's ``mapping``.
"""

import itertools
import random

import pytest

from cifm._plans import Plan, anf_program, element_program, run_planes
from cifm.bitcore import CellKind, _cell_program, truth_table
from cifm.revlogic import _forward_program, _inverse_program, gate_library

CELL_FUNCTIONS = {
    CellKind.AND: (2, lambda a, b: (a & b,)),
    CellKind.HA: (2, lambda a, b: (a ^ b, a & b)),
    CellKind.FA: (3, lambda a, b, c: (a ^ b ^ c, (a & b) | (a & c) | (b & c))),
}


def column(values, bit: int) -> int:
    """The bit plane of ``bit`` of ``values``: vector v holds values[v]."""
    return sum((x >> bit & 1) << v for v, x in enumerate(values))


def run_step(program, state: list, n: int) -> list:
    """``state`` after one step of ``program`` on rows 0, 1, ..., through a
    one-step plan: the engine's path."""
    rows = tuple(range(len(state)))
    plan = Plan(rows=len(state), steps=((program, rows),), load_rows=rows,
                load_src=rows, load_shift=None, ones=(), depth=(0,) * len(state))
    return run_planes(plan, state, n)


def reads(program) -> set[int]:
    """The registers that the program's ops and writes read."""
    _, ops, writes = program
    return ({r for a, _, b in ops for r in (a, b)}
            | {r for _, _, regs in writes for r in regs})


@pytest.mark.parametrize("kind", list(CellKind))
def test_every_cell_program_on_every_input(kind):
    n_in, fn = CELL_FUNCTIONS[kind]
    program = _cell_program(kind)
    patterns = range(1 << n_in)
    inputs = [column(patterns, n_in - 1 - k) for k in range(n_in)]
    want = [fn(*(i >> (n_in - 1 - k) & 1 for k in range(n_in))) for i in patterns]
    state = run_step(program, inputs + [0] * len(want[0]), len(patterns))
    assert state[:n_in] == inputs
    assert state[n_in:] == [column([w[j] for w in want], 0) for j in range(len(want[0]))]


def test_the_full_adder_shares_its_xor():
    """The FA's sum and carry share ``a ^ b``: 5 ANDs and XORs, not the 7
    of the two ANFs side by side."""
    ops, outputs = anf_program(truth_table(CELL_FUNCTIONS[CellKind.FA][1], 3, 2), 3, 2)
    assert len(ops) + sum(len(regs) - 1 for _, regs in outputs) == 5


@pytest.mark.parametrize("name", sorted(gate_library()))
def test_every_gate_program_on_every_input_held_or_not(name):
    """The inverse program, and the forward program for each way of
    holding the gate's lines: free, or known to hold 0 or 1. A folded
    program reads no held line and writes only the lines it changes."""
    gate = gate_library()[name]
    n = gate.arity
    inverse = gate.inverse_mapping()
    everything = range(1 << n)
    state = [column(everything, n - 1 - k) for k in range(n)]
    for table, program in ((inverse, _inverse_program(gate)),
                           (gate.mapping, _forward_program(gate, (None,) * n))):
        got = run_step(program, state, 1 << n)
        assert got == [column([table[i] for i in everything], n - 1 - k) for k in range(n)]

    for held in itertools.product((None, 0, 1), repeat=n):
        free = [k for k in range(n) if held[k] is None]
        patterns = []                   # every input the step may see
        for v in range(1 << len(free)):
            bits = dict(zip(free, (v >> (len(free) - 1 - m) & 1 for m in range(len(free)))))
            patterns.append(sum(bits.get(k, held[k]) << (n - 1 - k) for k in range(n)))
        state = [column(patterns, n - 1 - k) for k in range(n)]
        want = [column([gate.mapping[i] for i in patterns], n - 1 - k) for k in range(n)]
        program = _forward_program(gate, held)
        assert run_step(program, state, len(patterns)) == want, held
        assert not reads(program) & {k for k in range(n) if held[k] is not None}, held
        assert {k for k, _, _ in program[2]} == {k for k in range(n) if want[k] != state[k]}


@pytest.mark.parametrize("seed", range(8))
def test_programs_of_random_tables(seed):
    """Any table, with or without a constant term, fewer or more outputs
    than inputs, in place or not."""
    rng = random.Random(seed)
    for n_in in range(1, 5):
        n_out = rng.randint(1, 4)
        table = tuple(rng.randrange(1 << n_out) for _ in range(1 << n_in))
        patterns = range(1 << n_in)
        inputs = [column(patterns, n_in - 1 - k) for k in range(n_in)]
        outputs = [column(table, n_out - 1 - j) for j in range(n_out)]
        got = run_step(element_program(table, n_in, n_out, False), inputs + [0] * n_out, 1 << n_in)
        assert got == inputs + outputs
        if n_out == n_in:
            got = run_step(element_program(table, n_in, n_out, True), inputs, 1 << n_in)
            assert got == outputs
