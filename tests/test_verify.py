"""Sweep documents: a red sweep names the cases that failed, a green one
names none."""

import re

import numpy as np
import pytest

from cifm import bitcore, verify
from cifm.multiplier import BlockBatch
from cifm.softfloat import softfloat_mul

NOTE = re.compile(r"a=0x([0-9A-F]+) b=0x([0-9A-F]+) got=0x([0-9A-F]+) want=0x([0-9A-F]+)")


def _parsed(notes):
    cases = []
    for note in notes:
        m = NOTE.fullmatch(note)
        assert m, note
        cases.append(tuple(int(g, 16) for g in m.groups()))
    return cases


TOTALS = {"mul4-exhaustive": 256, "mul12-random": 10009, "mul24-random": 10025,
          "fp32-oracle": 10009, "rev-roundtrip": 1262, "rev-expand": 1256,
          "repair-all": 36036}


@pytest.mark.parametrize("suite", TOTALS)
def test_green_sweep_has_no_notes(suite):
    for seed in range(5):
        r = verify.run_suite(suite, seed=seed)
        assert r.ok and r.notes == () and r.total == TOTALS[suite], (seed, r)


@pytest.mark.parametrize("width", [12, 24])
def test_random_pairs_draw_every_magnitude_class(width):
    pairs = verify._random_pairs(np.random.default_rng(0), width, 1000)
    assert pairs.shape == (2, 1000)
    classes = {int(v).bit_length() for v in pairs.ravel()}
    assert 0 in classes and max(classes) == width
    for k in range(4, width + 1, 4):
        assert classes & set(range(k - 3, k + 1)), k


def test_int_sweep_names_failing_inputs(monkeypatch):
    real = verify.mul24_batch

    def off_by_one_below_2_12(a, b, *args, **kwargs):
        r = real(a, b, *args, **kwargs)
        return BlockBatch(r.products + ((a < 1 << 12) & (b > 0)), r.energised, r.unrepaired)

    monkeypatch.setattr(verify, "mul24_batch", off_by_one_below_2_12)
    r = verify.run_suite("mul24-random", seed=2)
    assert not r.ok and r.total - r.passed > 3
    cases = _parsed(r.notes)
    assert len(cases) == 3
    for a, b, got, want in cases:
        assert want == a * b and got == want + 1 and a < 1 << 12


def test_fp32_sweep_names_failing_inputs(monkeypatch):
    real = verify.fp32.fp_mul_batch

    def sign_flipped_when_negative_a(a, b, *args, **kwargs):
        return real(a, b, *args, **kwargs) ^ (np.asarray(a) & (1 << 31))

    monkeypatch.setattr(verify.fp32, "fp_mul_batch", sign_flipped_when_negative_a)
    r = verify.run_suite("fp32-oracle", seed=3)
    assert not r.ok
    cases = _parsed(r.notes)
    assert len(cases) == 3
    for a, b, got, want in cases:
        assert want == softfloat_mul(a, b) and got == want ^ (1 << 31)


def test_fp32_sweep_takes_its_random_pairs_expectations_from_the_batch_oracle(monkeypatch):
    real = verify.softfloat.softfloat_mul_batch

    def fifth_pattern_flipped(x, y):
        want = real(x, y)
        want[4] ^= 1
        return want

    monkeypatch.setattr(verify.softfloat, "softfloat_mul_batch", fifth_pattern_flipped)
    r = verify.run_suite("fp32-oracle", seed=6)
    xs, ys, _ = _rejection_loop(6)
    assert r.total - r.passed == 1
    assert _parsed(r.notes) == [
        (xs[4], ys[4], softfloat_mul(xs[4], ys[4]), softfloat_mul(xs[4], ys[4]) ^ 1)
    ]


def _is_nan(bits: int) -> bool:
    return (bits >> 23) & 0xFF == 0xFF and bits & 0x7FFFFF != 0


def test_fp32_sweep_checks_its_special_cases_against_the_oracle(monkeypatch):
    real = verify.softfloat.softfloat_mul

    def nan_payload_kept(x, y, *args, **kwargs):
        if _is_nan(x) or _is_nan(y):
            return 0x7FC00001
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(verify.softfloat, "softfloat_mul", nan_payload_kept)
    r = verify.run_suite("fp32-oracle", seed=4)
    nan_cases = sum(_is_nan(x) or _is_nan(y) for x, y, _ in verify._SPECIAL_CASES)
    assert nan_cases == 2 and r.total - r.passed == nan_cases


def _soft_normal(bits: int) -> bool:
    return 0 < (bits >> 23) & 0xFF < 255


def _rejection_loop(seed: int):
    """The pairs fp32-oracle ran before it picked them in bulk: each draw
    kept while the soft-float product is normal, then the special cases."""
    rng = np.random.default_rng(seed)
    xs, ys, want = [], [], []
    while len(want) < 10_000:
        n = 10_000 - len(want)
        sign = rng.integers(0, 2, size=(2, n))
        exponent = rng.integers(1, 255, size=(2, n))
        fraction = rng.integers(0, 1 << 23, size=(2, n))
        bits_a, bits_b = ((sign << 31) | (exponent << 23) | fraction).tolist()
        for x, y in zip(bits_a, bits_b):
            w = softfloat_mul(x, y)
            if _soft_normal(w):
                xs.append(x)
                ys.append(y)
                want.append(w)
    for x, y, w in verify._SPECIAL_CASES:
        xs.append(x)
        ys.append(y)
        want.append(w)
    return xs, ys, want


def test_fp32_oracle_runs_the_rejection_loops_pairs(monkeypatch):
    """Same pairs in the same order; the datapath, replaced by the loop's
    soft-float products, then passes only if the suite wants those too."""
    for seed in range(5):
        xs, ys, want = _rejection_loop(seed)
        seen = []

        def loops_products(a, b, *args, **kwargs):
            seen.append((a.tolist(), b.tolist()))
            return np.array(want)

        monkeypatch.setattr(verify.fp32, "fp_mul_batch", loops_products)
        r = verify.run_suite("fp32-oracle", seed=seed)
        assert seen == [(xs, ys)], seed
        assert r.ok and r.total == len(want), (seed, r)


def _boundary_pairs() -> np.ndarray:
    """(2, n) normal patterns whose significand product straddles 2**47 -
    2**22 (the band that rounds up to the next power of two), 2**47 and
    2**48 - 2**23, with exponent fields summing to 126-128 (the underflow
    edge) or 380-382 (where the rounding carry overflows)."""
    rng = np.random.default_rng(11)
    sig_a = [0x918E00] + rng.integers(1 << 23, 1 << 24, size=40).tolist()
    pairs = [(0x918E00, 0xE12000)]        # product exactly 2**47 - 2**22, a tie
    for sa in sig_a:
        for edge in (2**47 - 2**22, 2**47, 2**48 - 2**23):
            for sb in range(-(-edge // sa) - 1, -(-edge // sa) + 2):
                if 1 << 23 <= sb < 1 << 24:
                    pairs.append((sa, sb))
    bits = []
    for sa, sb in pairs:
        for total in (126, 127, 128, 380, 381, 382):
            ea, eb = total // 2, total - total // 2
            for sign in (0, 1):
                bits.append(((sign << 31) | (ea << 23) | (sa - (1 << 23)),
                             (eb << 23) | (sb - (1 << 23))))
    return np.array(bits).T


def test_fp32_pair_selection_agrees_with_the_oracle_at_its_edges():
    assert 0x918E00 * 0xE12000 == 2**47 - 2**22
    bits = _boundary_pairs()
    picked = verify._normal_product(bits)
    want = [_soft_normal(softfloat_mul(x, y)) for x, y in bits.T.tolist()]
    assert picked.tolist() == want
    assert 0 < np.count_nonzero(picked) < picked.size


def test_repair_all_exposes_a_fault_shown_by_its_last_pair_only(monkeypatch):
    real = verify.mul24_batch
    a, b = np.random.default_rng(5).integers(0, 1 << 24, size=(2, 1000))

    def fault_hidden_but_in_the_last_pair(x, y, faults=(), repair=None, **kwargs):
        r = real(x, y, faults, repair, **kwargs)
        if repair:
            return r
        last = (x == a[-1]) & (y == b[-1])
        return BlockBatch(np.where(last, r.products, x * y), r.energised, r.unrepaired)

    monkeypatch.setattr(verify, "mul24_batch", fault_hidden_but_in_the_last_pair)
    r = verify.run_suite("repair-all", seed=5)
    assert r.ok and r.notes == () and r.total == TOTALS["repair-all"], r


def test_repair_all_notes_a_fault_that_never_shows(monkeypatch):
    real = verify.mul24_batch
    hidden = verify.GRID_IDS[verify.Quadrant.HL][(2, 0)]

    def one_fault_hidden(x, y, faults=(), repair=None, **kwargs):
        r = real(x, y, faults, repair, **kwargs)
        if repair or faults[0].target != hidden:
            return r
        return BlockBatch(x * y, r.energised, r.unrepaired)

    monkeypatch.setattr(verify, "mul24_batch", one_fault_hidden)
    r = verify.run_suite("repair-all", seed=5)
    assert r.total - r.passed == 1
    assert r.notes == (f"fault at {hidden} never observable",)


@pytest.mark.parametrize("name", [[], None, 3, b"mul4-exhaustive", "no-such-suite"])
def test_run_suite_rejects_a_bad_name(name):
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite(name)


@pytest.mark.parametrize("seed", ["x", 1.0, None, True, False])
def test_run_suite_rejects_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="seed must be an int"):
        verify.run_suite("mul4-exhaustive", seed=seed)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_run_suite_rejects_a_negative_seed(suite):
    for seed in (-1, np.int8(-1)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            verify.run_suite(suite, seed=seed)


def test_run_suite_takes_numpy_int_seeds():
    assert verify.run_suite("mul12-random", seed=np.int64(5)) == verify.run_suite(
        "mul12-random", seed=5)


def test_green_gating_safety_notes_only_its_power_proxy():
    for seed in range(5):
        r = verify.run_suite("gating-safety", seed=seed)
        assert r.ok and r.total == 10002, (seed, r)
        assert r.notes == ("power_proxy narrow=1 wide=36",), (seed, r)


def test_gating_safety_names_failing_inputs(monkeypatch):
    real = verify.mul24_batch

    def gated_off_by_one_for_odd_a(a, b, *args, gating=True, **kwargs):
        r = real(a, b, *args, gating=gating, **kwargs)
        return BlockBatch(r.products + (gating & (a % 2 == 1)), r.energised, r.unrepaired)

    monkeypatch.setattr(verify, "mul24_batch", gated_off_by_one_for_odd_a)
    r = verify.run_suite("gating-safety", seed=2)
    assert not r.ok and r.total - r.passed > 3
    assert r.notes[0] == "power_proxy narrow=1 wide=36"
    cases = _parsed(r.notes[1:])
    assert len(cases) == 3
    for a, b, got, want in cases:
        assert want == a * b and got == want + 1 and a % 2 == 1


def test_repair_all_names_failing_inputs_with_their_block(monkeypatch):
    real = verify.mul24_batch
    broken = verify.GRID_IDS[verify.Quadrant.LH][(1, 2)]

    def spare_off_by_one_at_one_position(a, b, faults=(), repair=None, **kwargs):
        r = real(a, b, faults, repair, **kwargs)
        if repair and faults[0].target == broken:
            return BlockBatch(r.products ^ (b & 1), r.energised, r.unrepaired)
        return r

    monkeypatch.setattr(verify, "mul24_batch", spare_off_by_one_at_one_position)
    r = verify.run_suite("repair-all", seed=3)
    assert not r.ok and r.total - r.passed > 3
    assert len(r.notes) == 3
    prefix = f"{broken} "
    for note in r.notes:
        assert note.startswith(prefix)
    for a, b, got, want in _parsed(n[len(prefix):] for n in r.notes):
        assert want == a * b and got == want ^ 1 and b & 1


FLIP = 0x25     # the vector whose values the broken runner inverts


def _break_the_runner(monkeypatch):
    """Invert every value the netlist runner reads out for vector FLIP."""
    real = bitcore.run_kernels

    def flipped(plan, values, read):
        for lo, hi, bits in real(plan, values, read):
            if lo <= FLIP < hi:
                bits[:, FLIP - lo] ^= 1
            yield lo, hi, bits

    monkeypatch.setattr(bitcore, "run_kernels", flipped)


def test_mul4_exhaustive_names_failing_inputs(monkeypatch):
    verify.mul4(0, 0)       # the block's tables are built before the break
    _break_the_runner(monkeypatch)
    r = verify.run_suite("mul4-exhaustive")
    a, b = FLIP & 0xF, FLIP >> 4
    assert r.total - r.passed == 1
    assert _parsed(r.notes) == [(a, b, (a * b) ^ 0xFF, a * b)]


def test_rev_expand_names_failing_inputs(monkeypatch):
    _break_the_runner(monkeypatch)
    r = verify.run_suite("rev-expand", seed=4)
    assert r.total - r.passed == 2
    want = [(int(a[FLIP]), int(b[FLIP]), width) for _, width, a, b in verify._rev_cases(4)]
    for (a, b, got, product), (x, y, width) in zip(_parsed(r.notes), want, strict=True):
        assert (a, b, product) == (x, y, x * y) and got == product ^ ((1 << 2 * width) - 1)


def test_rev_roundtrip_names_failing_inputs_and_line(monkeypatch):
    _break_the_runner(monkeypatch)
    r = verify.run_suite("rev-roundtrip", seed=4)
    assert r.total - r.passed == 2
    want = [(int(a[FLIP]), int(b[FLIP])) for _, _, a, b in verify._rev_cases(4)]
    notes = [re.fullmatch(r"line (\d+) (.*)", note) for note in r.notes]
    assert all(notes), r.notes
    cases = _parsed(m.group(2) for m in notes)
    assert [(a, b) for a, b, _, _ in cases] == want
    assert all({got, start} == {0, 1} for _, _, got, start in cases)
