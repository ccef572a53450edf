"""Property tests: the interval analysis is *sound* on the real ops.

For randomized small layer plans and inputs pinned to the format
extremes, three facts must hold:

* the exact (arbitrary-precision) accumulator of the real reduction
  lies inside the certificate's ``[accum_lo, accum_hi]``;
* every partial sum, in a *randomized* reduction order, stays within
  ``magnitude_bound`` — the bound the certificate claims holds for any
  BLAS blocking / im2col tiling;
* whenever the certificate says ``saturation-only``, the kernel's real
  op (:func:`~repro.hw.compile.kernel.plan_op`) produces bit-identical
  results to an arbitrary-precision reference — i.e. no wrap actually
  happened where none was predicted.

The ops run on whichever integer dtype :func:`~repro.hw.compile.kernel.
code_dtype` picks from the certificate: float64 codes when the op's
bounds sit below ``2**53``, ``int64`` otherwise.  The strategies draw
widths that put every op on both sides of that cut, so both dtypes are
checked against the same exact reference.

The ops run unmodified and take their input codes as the kernel's
program hands them over — no float carrier — so activation formats
reach 63 bits (ReLU, max and average pooling, global pooling, dropout,
batch-norm); where such a width makes the certificate
``wrap-possible``, only the bounds are checked.  A residual add's
operands are aligned into its input format by :func:`~repro.hw.compile.
kernel.recode`, as the program aligns them.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_plan
from repro.analysis.intervals import (
    INT64_MAX,
    format_interval,
    shifted_magnitude,
)
from repro.hw.compile.formats import aligned_format
from repro.hw.compile.kernel import (
    FLOAT64_EXACT,
    LayerPlan,
    code_dtype,
    plan_op,
    recode,
    round_shift,
)
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import (
    KIND_ACT,
    KIND_ADD,
    KIND_BN,
    KIND_DROPOUT,
    KIND_GPOOL,
    KIND_LINEAR,
    KIND_POOL,
)

SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def formats(draw, min_bits=8, max_bits=20):
    total = draw(st.integers(min_bits, max_bits))
    fraction = draw(st.integers(0, total - 1))
    return FixedPointFormat(total_bits=total, fraction_bits=fraction)


@st.composite
def code_arrays(draw, fmt, shape):
    """Integer codes of ``fmt``, biased toward the format extremes."""
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    values = draw(st.lists(
        st.one_of(st.sampled_from([lo, hi, 0, -1, 1]),
                  st.integers(lo, hi)),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.int64).reshape(shape)


#: The two sides of the float64 cut each op is drawn on.
SIDES = ("float64", "int64")


def lowest_code(fmt):
    """The format's most negative code (the largest magnitude)."""
    return -(1 << (fmt.total_bits - 1))


@st.composite
def linear_cases(draw):
    # Inputs reach 20 bits and weights 40, and one weight is pinned to
    # its format's extreme, so the magnitude bound lands on the drawn
    # side of 2**53 and the op runs its float64 or its int64 GEMM path.
    # The bound lies between 2**(in + w - 2) and 2**(in + w + 1) + 2**23
    # (8 products at most, a 24-bit bias), so float64 weights reach
    # 51 - in bits, drawn often: bounds from 2**49 to just below 2**53,
    # where partial sums come closest to the float64 mantissa.
    side = draw(st.sampled_from(SIDES))
    in_fmt = draw(formats(min_bits=8 if side == "float64" else 16))
    out_fmt = draw(formats())
    in_bits = in_fmt.total_bits
    if side == "float64":
        top = min(40, 51 - in_bits)
        w_bits = draw(st.one_of(st.just(top), st.integers(8, top)))
    else:
        w_bits = draw(st.integers(55 - in_bits, 40))
    w_fmt = FixedPointFormat(w_bits, draw(st.integers(0, w_bits - 1)))
    out_features = draw(st.integers(1, 4))
    in_features = draw(st.integers(1, 8))
    weight = draw(code_arrays(w_fmt, (out_features, in_features)))
    weight[0, 0] = lowest_code(w_fmt)
    with_bias = draw(st.booleans())
    bias = None
    if with_bias:
        bias = draw(code_arrays(FixedPointFormat(24, 0), (out_features,)))
    plan = LayerPlan(
        name="fc", kind=KIND_LINEAR,
        in_shape=(in_features,), out_shape=(out_features,),
        in_format=in_fmt, out_format=out_fmt, weight_format=w_fmt,
        tensors=({"weight": weight, "bias": bias} if with_bias
                 else {"weight": weight}))
    rows = draw(st.integers(1, 3))
    codes = draw(code_arrays(in_fmt, (rows, in_features)))
    order = draw(st.permutations(list(range(in_features))))
    return plan, codes, order, side


# ----------------------------------------------------------------------
# Exact references (Python ints — cannot wrap)
# ----------------------------------------------------------------------
def run_op(plan, codes, *extra):
    """``plan``'s real op on ``codes``; returns (int64 output codes,
    dtype).  Codes enter in the op's dtype, as the program hands them
    over (float64 only below ``2**53``, where it is exact)."""
    dtype = code_dtype(certify_plan(plan))
    out = plan_op(plan, dtype)(codes.astype(dtype), *extra)
    return np.asarray(out).astype(np.int64), dtype


def assert_dtype_follows_bounds(cert, dtype):
    """The certificate's cut: float64 strictly below ``2**53``."""
    exact = max(cert.magnitude_bound, cert.post_shift_bound) \
        < FLOAT64_EXACT
    assert dtype is (np.float64 if exact else np.int64)


def exact_matmul(codes, weight, bias):
    """Row-major exact accumulators as nested Python-int lists."""
    rows = []
    for row in codes.tolist():
        out_row = []
        for r, w_row in enumerate(weight.tolist()):
            acc = sum(int(x) * int(w) for x, w in zip(row, w_row))
            if bias is not None:
                acc += int(bias[r])
            out_row.append(acc)
        rows.append(out_row)
    return rows


def exact_rhe(numerator, denominator):
    """Round-half-even ``numerator / denominator`` in exact integers."""
    q, r = divmod(numerator, denominator)
    if 2 * r > denominator or (2 * r == denominator and q % 2 == 1):
        q += 1
    return q


def exact_requantize(acc, from_fraction, fmt):
    """Round-half-even rescale + saturate, in exact integers."""
    shift = from_fraction - fmt.fraction_bits
    if shift <= 0:
        value = acc << (-shift)
    else:
        q, r = divmod(acc, 1 << shift)
        half = 1 << (shift - 1)
        value = q + (1 if (r > half or (r == half and q % 2 == 1))
                     else 0)
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    return min(max(value, lo), hi)


# ----------------------------------------------------------------------
# Linear: the im2col-GEMM analysis rule
# ----------------------------------------------------------------------
@SETTINGS
@given(case=linear_cases())
def test_linear_bounds_are_sound(case):
    plan, codes, order, side = case
    cert = certify_plan(plan)
    assert (cert.magnitude_bound < FLOAT64_EXACT) == (side == "float64")
    weight = plan.tensors["weight"]
    bias = plan.tensors.get("bias")

    exact = exact_matmul(codes, weight, bias)
    for out_row in exact:
        for acc in out_row:
            assert cert.accum_lo <= acc <= cert.accum_hi
            assert abs(acc) <= cert.magnitude_bound

    # Partial sums in a randomized reduction order (bias first, the
    # worst case for an early partial) stay within magnitude_bound.
    for row in codes.tolist():
        for r, w_row in enumerate(weight.tolist()):
            partial = int(bias[r]) if bias is not None else 0
            assert abs(partial) <= cert.magnitude_bound
            for k in order:
                partial += int(row[k]) * int(w_row[k])
                assert abs(partial) <= cert.magnitude_bound

    if not cert.wrap_possible:
        out, dtype = run_op(plan, codes)
        assert_dtype_follows_bounds(cert, dtype)
        expected = np.array(
            [[exact_requantize(acc, plan.accum_fraction, plan.out_format)
              for acc in out_row] for out_row in exact], dtype=np.int64)
        np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Activation formats up to 63 bits: exact where saturation-only
# ----------------------------------------------------------------------
def wide_format(data, min_bits=8, max_bits=63):
    """An activation format of up to 63 bits."""
    return data.draw(formats(min_bits=min_bits, max_bits=max_bits))


def assert_wrap_is_real(cert):
    """A wrap-possible verdict only where a bound exceeds int64."""
    assert cert.wrap_possible == (max(cert.magnitude_bound,
                                      cert.post_shift_bound) > INT64_MAX)


# ----------------------------------------------------------------------
# Dropout: per-pass quantized mask product at the format extremes
# ----------------------------------------------------------------------
@SETTINGS
@given(out_fmt=formats(max_bits=63), mask_fmt=formats(max_bits=16),
       data=st.data())
def test_dropout_bounds_are_sound(out_fmt, mask_fmt, data):
    in_fmt = wide_format(data)
    shape = (2, 3)
    plan = LayerPlan(
        name="slot", kind=KIND_DROPOUT,
        in_shape=(shape[1],), out_shape=(shape[1],),
        in_format=in_fmt, out_format=out_fmt, mask_format=mask_fmt,
        slot_name="slot")
    cert = certify_plan(plan)
    assert_wrap_is_real(cert)
    codes = data.draw(code_arrays(in_fmt, shape))
    mask = data.draw(code_arrays(mask_fmt, shape))

    exact = [int(x) * int(m)
             for x, m in zip(codes.flat.copy(), mask.flat.copy())]
    for acc in exact:
        assert cert.accum_lo <= acc <= cert.accum_hi
        assert abs(acc) <= cert.magnitude_bound

    if cert.wrap_possible:
        return
    out, dtype = run_op(plan, codes, mask.astype(code_dtype(cert)))
    assert_dtype_follows_bounds(cert, dtype)
    expected = np.array(
        [exact_requantize(acc, plan.accum_fraction, out_fmt)
         for acc in exact], dtype=np.int64).reshape(shape)
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# ReLU and max pooling: no arithmetic growth, so every width is safe
# ----------------------------------------------------------------------
@SETTINGS
@given(data=st.data())
def test_relu_exact(data):
    in_fmt = wide_format(data)
    plan = LayerPlan(name="relu", kind=KIND_ACT, in_shape=(6,),
                     out_shape=(6,), in_format=in_fmt, out_format=in_fmt)
    cert = certify_plan(plan)
    assert not cert.wrap_possible
    codes = data.draw(code_arrays(in_fmt, (2, 6)))
    out, dtype = run_op(plan, codes)
    assert_dtype_follows_bounds(cert, dtype)
    assert all(cert.accum_lo <= v <= cert.accum_hi for v in out.flat)
    np.testing.assert_array_equal(out, np.maximum(codes, 0))


@SETTINGS
@given(kernel=st.sampled_from([2, 3]), padding=st.sampled_from([0, 1]),
       data=st.data())
def test_max_pool_exact(kernel, padding, data):
    in_fmt = wide_format(data)
    size = 2 * kernel
    out_size = (size + 2 * padding - kernel) // kernel + 1
    plan = LayerPlan(
        name="pool", kind=KIND_POOL,
        in_shape=(1, size, size), out_shape=(1, out_size, out_size),
        in_format=in_fmt, out_format=in_fmt,
        attrs={"kernel_size": kernel, "stride": kernel,
               "padding": padding, "average": False})
    cert = certify_plan(plan)
    assert not cert.wrap_possible
    codes = data.draw(code_arrays(in_fmt, (2, 1, size, size)))
    out, dtype = run_op(plan, codes)
    assert_dtype_follows_bounds(cert, dtype)
    padded = np.pad(codes, ((0, 0), (0, 0), (padding,) * 2,
                            (padding,) * 2),
                    constant_values=lowest_code(in_fmt))
    expected = np.empty((2, 1, out_size, out_size), dtype=np.int64)
    for n, i, j in np.ndindex(2, out_size, out_size):
        window = padded[n, 0, i * kernel:(i + 1) * kernel,
                        j * kernel:(j + 1) * kernel]
        expected[n, 0, i, j] = max(int(v) for v in window.flat)
        assert cert.accum_lo <= expected[n, 0, i, j] <= cert.accum_hi
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Average pooling: k**2-term sums
# ----------------------------------------------------------------------
@SETTINGS
@given(out_fmt=formats(max_bits=63), data=st.data())
def test_average_pool_bounds_are_sound(out_fmt, data):
    in_fmt = wide_format(data)
    plan = LayerPlan(
        name="pool", kind=KIND_POOL,
        in_shape=(1, 4, 4), out_shape=(1, 2, 2),
        in_format=in_fmt, out_format=out_fmt,
        attrs={"kernel_size": 2, "stride": 2, "padding": 0,
               "average": True})
    cert = certify_plan(plan)
    assert_wrap_is_real(cert)
    codes = data.draw(code_arrays(in_fmt, (1, 1, 4, 4)))

    windows = [codes[0, 0, i:i + 2, j:j + 2]
               for i in (0, 2) for j in (0, 2)]
    for window in windows:
        acc = sum(int(v) for v in window.flat)
        assert cert.accum_lo <= acc <= cert.accum_hi
        assert abs(acc) <= cert.magnitude_bound

    if cert.wrap_possible:
        return
    out, _ = run_op(plan, codes)
    assert out.shape == (1, 1, 2, 2)
    lo, hi = format_interval(out_fmt).lo, format_interval(out_fmt).hi
    assert lo <= out.min() and out.max() <= hi


# ----------------------------------------------------------------------
# Exact values on both sides of 2**53: batch-norm, pooling, LeakyReLU
# ----------------------------------------------------------------------
def side_bits(data, side, float_bits, int_bits):
    """A width from ``float_bits`` or ``int_bits`` (inclusive ranges):
    the ranges that put the op's bound below 2**53 or at/above it."""
    return data.draw(st.integers(*(float_bits if side == "float64"
                                   else int_bits)))


@SETTINGS
@given(side=st.sampled_from(SIDES), out_fmt=formats(max_bits=63),
       kernel=st.sampled_from([2, 3]), data=st.data())
def test_average_pool_exact(side, out_fmt, kernel, data):
    # k**2 terms of up-to-63-bit codes: 52+ bits reach 2**53 (and from
    # 60 bits on, 4 or 9 terms can pass int64), 50 bits stay below it
    # (9 * 2**49 < 2**53).
    bits = side_bits(data, side, (8, 50), (52, 63))
    in_fmt = FixedPointFormat(bits, data.draw(st.integers(0, bits - 1)))
    size = 2 * kernel
    plan = LayerPlan(
        name="pool", kind=KIND_POOL,
        in_shape=(1, size, size), out_shape=(1, 2, 2),
        in_format=in_fmt, out_format=out_fmt,
        attrs={"kernel_size": kernel, "stride": kernel, "padding": 0,
               "average": True})
    cert = certify_plan(plan)
    assert_wrap_is_real(cert)
    if cert.wrap_possible:
        return
    codes = data.draw(code_arrays(in_fmt, (2, 1, size, size)))
    out, dtype = run_op(plan, codes)
    assert dtype is getattr(np, side)
    lo, hi = format_interval(out_fmt).lo, format_interval(out_fmt).hi
    expected = np.empty((2, 1, 2, 2), dtype=np.int64)
    for n, i, j in np.ndindex(2, 2, 2):
        window = codes[n, 0, i * kernel:(i + 1) * kernel,
                       j * kernel:(j + 1) * kernel]
        mean = exact_rhe(sum(int(v) for v in window.flat), kernel ** 2)
        expected[n, 0, i, j] = min(max(mean, lo), hi)
    np.testing.assert_array_equal(out, expected)


@SETTINGS
@given(side=st.sampled_from(SIDES), out_fmt=formats(max_bits=63),
       data=st.data())
def test_global_pool_exact(side, out_fmt, data):
    # H*W terms: 6 or 16 terms of 52+-bit codes reach 2**53 (and of
    # 59+-bit codes can pass int64), 16 terms of 49-bit codes stay
    # below it.
    bits = side_bits(data, side, (8, 49), (52, 63))
    in_fmt = FixedPointFormat(bits, data.draw(st.integers(0, bits - 1)))
    spatial = data.draw(st.sampled_from(
        [(1, 1), (2, 3), (4, 4)] if side == "float64"
        else [(2, 3), (4, 4)]))
    shape = (2,) + spatial
    plan = LayerPlan(
        name="gap", kind=KIND_GPOOL, in_shape=shape, out_shape=(2,),
        in_format=in_fmt, out_format=out_fmt)
    cert = certify_plan(plan)
    assert_wrap_is_real(cert)
    if cert.wrap_possible:
        return
    codes = data.draw(code_arrays(in_fmt, (2,) + shape))
    out, dtype = run_op(plan, codes)
    assert dtype is getattr(np, side)
    lo, hi = format_interval(out_fmt).lo, format_interval(out_fmt).hi
    terms = spatial[0] * spatial[1]
    expected = [[min(max(exact_rhe(sum(int(v) for v in codes[n, c].flat),
                                   terms), lo), hi)
                 for c in range(2)] for n in range(2)]
    np.testing.assert_array_equal(out, np.array(expected, dtype=np.int64))


@SETTINGS
@given(side=st.sampled_from(SIDES), out_fmt=formats(max_bits=40),
       data=st.data())
def test_batch_norm_exact(side, out_fmt, data):
    # One scale pinned to its extreme: |scale| * |x| reaches
    # 2**(in + w - 2), up to 2**52 (plus a 40-bit shift) below 2**53,
    # or from 2**53 up to 2**64 and past int64 on the other side.
    in_bits = side_bits(data, side, (8, 24), (24, 63))
    w_bits = side_bits(data, side, (8, 54 - in_bits),
                       (max(2, 55 - in_bits), max(2, 66 - in_bits)))
    in_fmt = FixedPointFormat(in_bits,
                              data.draw(st.integers(0, in_bits - 1)))
    w_fmt = FixedPointFormat(w_bits, data.draw(st.integers(0, w_bits - 1)))
    channels = 2
    scale = data.draw(code_arrays(w_fmt, (channels,)))
    scale[0] = lowest_code(w_fmt)
    shift = data.draw(code_arrays(FixedPointFormat(40, 0), (channels,)))
    plan = LayerPlan(
        name="bn", kind=KIND_BN, in_shape=(channels, 2, 2),
        out_shape=(channels, 2, 2), in_format=in_fmt, out_format=out_fmt,
        weight_format=w_fmt, tensors={"scale": scale, "shift": shift})
    cert = certify_plan(plan)
    assert (cert.magnitude_bound < FLOAT64_EXACT) == (side == "float64")
    assert_wrap_is_real(cert)
    codes = data.draw(code_arrays(in_fmt, (2, channels, 2, 2)))
    accs = np.empty(codes.shape, dtype=object)
    for n, c, i, j in np.ndindex(codes.shape):
        accs[n, c, i, j] = int(codes[n, c, i, j]) * int(scale[c]) \
            + int(shift[c])
        assert cert.accum_lo <= accs[n, c, i, j] <= cert.accum_hi
    if cert.wrap_possible:
        return
    out, dtype = run_op(plan, codes)
    assert_dtype_follows_bounds(cert, dtype)
    expected = np.vectorize(
        lambda acc: exact_requantize(acc, plan.accum_fraction, out_fmt),
        otypes=[np.int64])(accs)
    np.testing.assert_array_equal(out, expected)


@SETTINGS
@given(side=st.sampled_from(SIDES), data=st.data())
def test_leaky_relu_exact(side, data):
    # Activations re-emit their input format.  |x| * |slope| is at most
    # 2**(in + w - 2): up to 2**52 on the float64 side; the int64 side
    # pins the slope to its extreme, so it reaches 2**53.
    in_bits = side_bits(data, side, (8, 30), (33, 40))
    w_bits = side_bits(data, side, (8, min(24, 54 - in_bits)),
                       (55 - in_bits, 24))
    in_fmt = FixedPointFormat(in_bits,
                              data.draw(st.integers(0, in_bits - 1)))
    w_fmt = FixedPointFormat(w_bits, data.draw(st.integers(0, w_bits - 1)))
    slope = (data.draw(code_arrays(w_fmt, ())) if side == "float64"
             else np.int64(lowest_code(w_fmt)))
    plan = LayerPlan(
        name="lrelu", kind=KIND_ACT, in_shape=(6,), out_shape=(6,),
        in_format=in_fmt, out_format=in_fmt, weight_format=w_fmt,
        tensors={"slope": np.asarray(slope, dtype=np.int64)})
    cert = certify_plan(plan)
    assert not cert.wrap_possible
    codes = data.draw(code_arrays(in_fmt, (2, 6)))
    out, dtype = run_op(plan, codes)
    assert dtype is getattr(np, side)
    expected = [[int(x) if x > 0
                 else exact_requantize(int(x) * int(slope),
                                       plan.accum_fraction, in_fmt)
                 for x in row] for row in codes]
    np.testing.assert_array_equal(out, np.array(expected, dtype=np.int64))


# ----------------------------------------------------------------------
# Residual add: operands aligned into the add's input format
# ----------------------------------------------------------------------
@SETTINGS
@given(out_fmt=formats(max_bits=63), data=st.data())
def test_add_bounds_are_sound(out_fmt, data):
    a_fmt, b_fmt = wide_format(data), wide_format(data)
    in_fmt = aligned_format([a_fmt, b_fmt])
    plan = LayerPlan(name="add", kind=KIND_ADD, in_shape=(5,),
                     out_shape=(5,), in_format=in_fmt, out_format=out_fmt)
    cert = certify_plan(plan)
    assert_wrap_is_real(cert)
    a = data.draw(code_arrays(a_fmt, (2, 5)))
    b = data.draw(code_arrays(b_fmt, (2, 5)))
    frac = in_fmt.fraction_bits
    exact = [(int(x) << (frac - a_fmt.fraction_bits))
             + (int(y) << (frac - b_fmt.fraction_bits))
             for x, y in zip(a.flat.copy(), b.flat.copy())]
    for acc in exact:
        assert cert.accum_lo <= acc <= cert.accum_hi
        assert abs(acc) <= cert.magnitude_bound
    if cert.wrap_possible:
        return
    # Alignment is an exact left shift: recoding loses nothing.
    aligned = [recode(codes, fmt, in_fmt) for codes, fmt in
               ((a, a_fmt), (b, b_fmt))]
    out, dtype = run_op(plan, *aligned)
    assert_dtype_follows_bounds(cert, dtype)
    expected = np.array([exact_requantize(acc, frac, out_fmt)
                         for acc in exact], dtype=np.int64).reshape(2, 5)
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Chained plans: each stage re-saturates, so per-layer analysis holds
# ----------------------------------------------------------------------
@SETTINGS
@given(data=st.data())
def test_chained_layers_stay_within_certified_ranges(data):
    in_fmt = data.draw(formats(max_bits=16))
    mid_fmt = data.draw(formats(max_bits=16))
    out_fmt = data.draw(formats(max_bits=16))
    w1 = data.draw(code_arrays(FixedPointFormat(12, 6), (3, 4)))
    w2 = data.draw(code_arrays(FixedPointFormat(12, 6), (2, 3)))
    fc1 = LayerPlan(name="fc1", kind=KIND_LINEAR, in_shape=(4,),
                    out_shape=(3,), in_format=in_fmt, out_format=mid_fmt,
                    weight_format=FixedPointFormat(12, 6),
                    tensors={"weight": w1})
    fc2 = LayerPlan(name="fc2", kind=KIND_LINEAR, in_shape=(3,),
                    out_shape=(2,), in_format=mid_fmt, out_format=out_fmt,
                    weight_format=FixedPointFormat(12, 6),
                    tensors={"weight": w2})
    certs = {p.name: certify_plan(p) for p in (fc1, fc2)}
    assert not any(c.wrap_possible for c in certs.values())

    codes = data.draw(code_arrays(in_fmt, (2, 4)))
    for plan in (fc1, fc2):
        codes, _ = run_op(plan, codes)
        # Layer output is saturated into its out_format, which is the
        # next layer's analysis starting point: the interval the next
        # certificate assumed really does contain the live values.
        interval = format_interval(plan.out_format)
        assert int(codes.min()) >= interval.lo
        assert int(codes.max()) <= interval.hi


@SETTINGS
@given(side=st.sampled_from(SIDES),
       shift=st.one_of(st.integers(-8, 0), st.integers(1, 40)),
       data=st.data())
def test_shifted_magnitude_bounds_round_shift(side, shift, data):
    # The certificate's post-shift bound: a rescale rounds half to
    # even, so a positive shift can carry one past ``m >> shift``.
    # Codes run on float64 below 2**53 and on int64 up to the word,
    # where a left shift must not leave it.
    top = (FLOAT64_EXACT - 1 if side == "float64"
           else INT64_MAX >> max(0, -shift))
    magnitude = data.draw(st.one_of(st.integers(0, 64),
                                    st.integers(0, top)))
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([magnitude, -magnitude]),
                  st.integers(-magnitude, magnitude)),
        min_size=1, max_size=8))
    codes = np.array(values, dtype=np.int64).astype(side)
    bound = shifted_magnitude(magnitude, shift)
    for value in round_shift(codes, shift):
        assert abs(int(value)) <= bound


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
