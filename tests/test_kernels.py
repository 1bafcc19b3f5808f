"""Numpy kernels: pole marking, pair-table layout, plane waves, the table
fill, stacked Y steps and bounded sampling."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe import _kernels
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import PoleAtU
from pointbethe.permutations import symmetric_group
from pointbethe.scattering import amplitudes
from reference import factorization_panel_per_sign, sample_panel_one_by_one


def test_panel_marks_poles_with_inf():
    grid = np.array([[0.0, 0.0, 0.0, 0.0]])
    res = _kernels.factorization_panel(grid, np.array([0.0]), np.array([1.0]))
    assert np.isinf(res).all()


@pytest.mark.parametrize("panel_size", [1, 100, _kernels.PANEL_BLOCK_ENTRIES + 3])
def test_blocked_panel_matches_row_by_row_calls(panel_size):
    # more rows than one block holds, with c = 0 rows (a pole at u = 0) in
    # the middle; the blocks must not leak the inf into their other rows
    rng = np.random.default_rng(panel_size)
    rows = max(101, _kernels.PANEL_BLOCK_ENTRIES // panel_size + 3)
    grid = rng.uniform(0.5, 1.5, (rows, 4))
    poles = [rows // 2, rows // 2 + 1]
    grid[poles] = 0.0
    panel = _kernels.sample_panel(7, panel_size)
    us = panel[:, 0].copy()
    us[-1] = 0.0
    res = _kernels.factorization_panel(grid, us, panel[:, 1])
    single = np.vstack([_kernels.factorization_panel(row, us, panel[:, 1]) for row in grid])
    assert np.array_equal(res, single)
    assert np.isinf(res[poles]).all()
    assert np.isfinite(np.delete(res, poles, axis=0)).all()


SCAN_GRID = np.array(list(itertools.product(
    (-2, -1, 0.5, 1, 2), (-0.5, 0, 0.5, 1, 2), (-1, -0.5, 0, 0.5, 1), (-1, -0.5, 0, 0.5, 1))),
    dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_panel_equals_the_per_sign_reference_on_the_scan_grid(seed):
    # one amplitude call per argument for both particle orders, and the
    # shared identity products, give the bits of forming each sign and
    # each identity on its own
    panel = _kernels.sample_panel(seed, 100)
    got = _kernels.factorization_panel(SCAN_GRID, panel[:, 0], panel[:, 1])
    assert got.tobytes() == factorization_panel_per_sign(SCAN_GRID, panel[:, 0],
                                                         panel[:, 1]).tobytes()


_couplings = st.one_of(st.sampled_from([0.0, 1e150, -1e150, 1e200, -1e200]),
                       st.floats(-3.0, 3.0))
_momenta = st.one_of(st.sampled_from([0.0, 1e-15, -1e-15]), st.floats(-5.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_couplings, _couplings, _couplings, _couplings),
                     min_size=1, max_size=12),
       samples=st.lists(st.tuples(_momenta, _momenta), min_size=1, max_size=8),
       pole_row=st.booleans())
def test_panel_equals_the_per_sign_reference(rows, samples, pole_row):
    # c = 0 rows meet their pole at u = 0, lam = 0 rows drop the quadratic
    # term, and couplings of 1e150 and beyond overflow entries to inf
    grid = np.array(rows + [(0.0, 0.0, 0.0, 0.0)] * pole_row, dtype=np.float64)
    us, vs = np.array(samples, dtype=np.float64).T
    if pole_row:
        us[0] = 0.0
    got = _kernels.factorization_panel(grid, us, vs)
    assert got.tobytes() == factorization_panel_per_sign(grid, us, vs).tobytes()
    if pole_row:
        assert np.isinf(got[-1]).all()


def test_panel_evaluates_amplitudes_three_times_per_block(monkeypatch):
    # u, v and u + v; -u is read off u by conjugation and must not be
    # evaluated again
    args, evaluate = [], _kernels.amplitude_arrays

    def counted(c, lam, gamma, eta, u):
        args.append(u)
        return evaluate(c, lam, gamma, eta, u)

    panel = _kernels.sample_panel(3, 100)
    us, vs = panel[:, 0], panel[:, 1]
    rows_per_block = _kernels.PANEL_BLOCK_ENTRIES // len(us)
    monkeypatch.setattr(_kernels, "amplitude_arrays", counted)
    _kernels.factorization_panel(SCAN_GRID[:2 * rows_per_block + 1], us, vs)
    assert len(args) == 3 * 3
    assert not any(np.array_equal(u, -us) for u in args)


def test_pair_amplitude_tables_layout():
    params = CouplingParameters(1.2, 0.0, 0.3, -0.4)
    k = np.array([0.9, -0.7, 1.6])
    stp, srp, stm, srm = _kernels.pair_amplitude_tables(params, k)
    amp = amplitudes(params, k[2] - k[0])
    assert srp[2, 0] == amp.s_r_plus
    assert srm[2, 0] == amp.s_r_minus
    assert stp[2, 0] == amp.s_t_plus
    assert stm[2, 0] == amp.s_t_minus
    assert srp[1, 1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pair_amplitude_tables_equal_the_nested_scalar_loop(n):
    params = CouplingParameters(1.3, 0.4, -0.2, 0.7)
    k = np.linspace(1.5, -1.5, n) + np.random.default_rng(n).uniform(-0.05, 0.05, n)
    ref = np.zeros((4, n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            if a != b:
                amp = amplitudes(params, k[a] - k[b])
                ref[:, a, b] = amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus
    got = _kernels.pair_amplitude_tables(params, k)
    assert got.shape == (4, n, n)
    assert got.tobytes() == ref.tobytes()


def test_pair_amplitude_tables_raise_at_the_first_pair():
    # a coupling of 1e200 overflows the amplitudes at every u: the first
    # pair in row-major order is (0, 1)
    k = np.array([0.9, -0.7, 1.6])
    with pytest.raises(PoleAtU, match=re.escape(f"at u={k[0] - k[1]} ")):
        _kernels.pair_amplitude_tables(CouplingParameters(1.0, 0.0, 0.0, 1e200), k)


def test_sample_panel_gives_up_on_an_empty_domain(run_python):
    # |u| <= box < min_sep rejects every draw
    proc = run_python(
        "from pointbethe import _kernels\n"
        "_kernels.PANEL_BOX = 0.2\n"
        "try:\n"
        "    _kernels.sample_panel(0, 10)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "box=0.2" in proc.stdout and "min_sep=0.25" in proc.stdout


class _CountingRng:
    """A generator that counts the (u, v) candidates drawn from it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def uniform(self, low, high, size):
        out = self.rng.uniform(low, high, size)
        self.draws += out.size // 2
        return out


def test_sample_panel_gives_up_after_its_draw_budget(monkeypatch):
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingRng(real(seed))) or made[-1])
    monkeypatch.setattr(_kernels, "PANEL_BOX", 0.2)
    with pytest.raises(ValueError) as info:
        _kernels.sample_panel(0, 10)
    assert made[0].draws == _kernels.MAX_DRAWS_PER_SAMPLE * 10
    assert str(info.value) == (
        "sample_panel: 10000 draws in [-box, box]^2 with box=0.2 gave only 0 of 10 "
        "points with |u|, |v|, |u+v| >= min_sep=0.25")


def _panel_or_error(sampler, *args):
    try:
        return sampler(*args).tobytes()
    except ValueError as exc:
        return str(exc)


def test_sample_panel_equals_the_one_by_one_draw_on_many_seeds():
    for seed in range(300):
        assert _kernels.sample_panel(seed).tobytes() == sample_panel_one_by_one(seed).tobytes()


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12),
       # (box, min_sep): the CLI's domain, a sparse one, and one where
       # fewer than one candidate in a thousand is kept
       domain=st.sampled_from([(5.0, 0.25), (1.0, 0.9), (0.26, 0.25)]))
def test_sample_panel_equals_the_one_by_one_draw(seed, count, domain):
    box, min_sep = domain
    with mock.patch.multiple(_kernels, PANEL_BOX=box, PANEL_MIN_SEP=min_sep):
        got = _panel_or_error(_kernels.sample_panel, seed, count)
    assert got == _panel_or_error(sample_panel_one_by_one, seed, count, box, min_sep)


def _accepted_one_by_one(rng, count, width, box, accept, what, condition):
    # one candidate per draw, tested as it comes
    out = []
    draws = 0
    while len(out) < count:
        if draws == _kernels.MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"{what}: {draws} draws in [-box, box]^{width} with box={box} gave only "
                f"{len(out)} of {count} points with {condition}"
            )
        draws += 1
        x = rng.uniform(-box, box, (1, width))
        if accept(x)[0]:
            out.append(x[0])
    return np.array(out, dtype=np.float64).reshape(count, width)


def _accepted_or_error(sampler, rng, *args):
    try:
        return sampler(rng, *args).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12), width=st.integers(1, 6),
       # keep rows whose every coordinate is at least ``floor`` from 0:
       # all, about one in two per coordinate, and none (an empty domain)
       floor=st.sampled_from([0.0, 0.5, 1.5]))
def test_uniform_accepted_equals_the_one_by_one_draw(seed, count, width, floor):
    def accept(x):
        return np.abs(x).min(axis=1) >= floor

    args = (count, width, 1.0, accept, "sampler", f"|x_i| >= {floor}")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _accepted_or_error(_kernels.uniform_accepted, rng, *args)
    assert got == _accepted_or_error(_accepted_one_by_one, ref_rng, *args)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if floor > 1.0 and count:
        assert got == (f"sampler: {_kernels.MAX_DRAWS_PER_SAMPLE * count} draws in "
                       f"[-box, box]^{width} with box=1.0 gave only 0 of {count} points "
                       f"with |x_i| >= {floor}")


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_yang_apply_on_a_stack_equals_one_call_per_matrix(data):
    n = data.draw(st.integers(2, 4))
    stack = data.draw(st.integers(1, 6))
    site = data.draw(st.integers(0, n - 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tables = symmetric_group(n)
    f = tables.order

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    amps = [cplx(stack, 1) for _ in range(4)]  # S_T^+, S_R^+, S_T^-, S_R^- columns
    if data.draw(st.booleans()):
        target = cplx(stack, f, f)
    else:  # the stacked identities the Yang-Baxter check starts from
        target = np.broadcast_to(np.eye(f, dtype=np.complex128), (stack, f, f))
    stacked = _kernels.yang_apply(_kernels.step_parts(tables, site, amps), target)
    single = [_kernels.yang_apply(_kernels.step_parts(tables, site, [a[j, 0] for a in amps]),
                                  target[j]) for j in range(stack)]
    assert stacked.shape == (stack, f, f)
    assert stacked.tobytes() == np.array(single).tobytes()


def _direct_plane_waves(k, images, xq):
    # one exponential of the summed phase per wave
    return np.exp(1j * (k[images][np.newaxis] * xq[:, np.newaxis]).sum(axis=-1))


# the first symmetric_group(6) build can outlast hypothesis's per-example deadline
@settings(deadline=None)
@given(st.data())
def test_plane_waves_match_the_summed_phase(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 4))
    coords = st.floats(-5.0, 5.0)
    k = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    xq = np.array(data.draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                                     min_size=m, max_size=m)))
    images = symmetric_group(n).images
    waves = _kernels.plane_waves(k, images, xq)
    assert waves.shape == (m, math.factorial(n))
    assert np.abs(waves - _direct_plane_waves(k, images, xq)).max() <= 1e-12
    assert np.abs(np.abs(waves) - 1.0).max() <= 1e-14
    for row in range(m):
        assert np.array_equal(_kernels.plane_waves(k, images, xq[row:row + 1]), waves[row:row + 1])


def _row_by_row_table(a_identity, tables, amps):
    # the fill with every step's parts built inside the loop
    out = np.empty((tables.order, tables.order), dtype=np.complex128)
    out[0] = a_identity
    for p in range(1, tables.order):
        s = tables.last_site[p]
        parent = tables.tmaps[s, p]
        ka, kb = tables.images[parent, s], tables.images[parent, s + 1]
        parts = _kernels.step_parts(tables, s, amps[:, ka, kb])
        out[p] = _kernels.yang_apply(parts, out[parent])
    return out


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 0.0, 1.3),
                                    CouplingParameters(1.7, 1.0 / 1.7)],
                         ids=["family1", "family2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "random"])
def test_prebuilt_step_parts_fill_equals_row_by_row_fill(params, n, unit):
    rng = np.random.default_rng(n)
    tables = symmetric_group(n)
    k = np.linspace(1.5, -1.5, n) + rng.uniform(-0.05, 0.05, n)
    a = np.zeros(tables.order, dtype=np.complex128)
    a[0] = 1.0
    if not unit:
        a = rng.normal(size=tables.order) + 1j * rng.normal(size=tables.order)
    amps = _kernels.pair_amplitude_tables(params, k)
    assert _kernels.propagate_table(a, tables, amps).tobytes() == \
        _row_by_row_table(a, tables, amps).tobytes()


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 0.0, 1.3),
                                    CouplingParameters(1.7, 1.0 / 1.7)],
                         ids=["family1", "family2"])
@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("rows", [1, 2, 7, 720, 1000])
def test_fill_block_edges_give_the_row_by_row_bits(monkeypatch, params, n, rows):
    # one row per block flushes after every row, 2 and 7 leave parents in
    # earlier blocks, 720 and 1000 fill one block (partial below N = 6)
    monkeypatch.setattr(_kernels, "FILL_BLOCK_ROWS", rows)
    rng = np.random.default_rng(n + rows)
    tables = symmetric_group(n)
    k = np.linspace(1.5, -1.5, n) + rng.uniform(-0.05, 0.05, n)
    a = rng.normal(size=tables.order) + 1j * rng.normal(size=tables.order)
    amps = _kernels.pair_amplitude_tables(params, k)
    table = _kernels.propagate_table(a, tables, amps)
    assert table.flags.f_contiguous and table.flags.owndata
    assert table.tobytes() == _row_by_row_table(a, tables, amps).tobytes()


def test_plane_waves_refuse_a_phase_past_the_float_range():
    images = symmetric_group(2).images
    big = np.finfo(np.float64).max
    # the largest finite phase is a wave; twice it is none
    assert np.isfinite(_kernels.plane_waves(np.array([0.0, big]), images, np.array([[1.0, -1.0]]))).all()
    with pytest.raises(ValueError, match=r"^plane-wave phase past the float range: momentum "
                                         r"k\[1\]=1.7976931348623157e\+308 at a coordinate of modulus 2.0$"):
        _kernels.plane_waves(np.array([0.0, big]), images, np.array([[1.0, -2.0]]))
