"""Property tests: the interval analysis is *sound* on the real ops.

For randomized small layer plans and inputs pinned to the format
extremes, three facts must hold:

* the exact (arbitrary-precision) accumulator of the real reduction
  lies inside the certificate's ``[accum_lo, accum_hi]``;
* every partial sum, in a *randomized* reduction order, stays within
  ``magnitude_bound`` — the bound the certificate claims holds for any
  BLAS blocking / im2col tiling;
* whenever the certificate says ``saturation-only``, the kernel's real
  int64 op (``CompiledKernel._fixed_op``) produces bit-identical
  results to an arbitrary-precision reference — i.e. no wrap actually
  happened where none was predicted.

The ops run unmodified: ``CompiledKernel(None, plans)`` never touches
its deployment during ``_fixed_op`` dispatch, and dropout masks inject
through the kernel's ``_pass_masks`` exactly as ``predict`` does.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_plan
from repro.analysis.intervals import format_interval
from repro.hw.compile.kernel import CompiledKernel, LayerPlan
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import KIND_DROPOUT, KIND_LINEAR, KIND_POOL

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


@st.composite
def linear_cases(draw):
    # Inputs stay <= 20 bits (exact on the float32 carrier); weights
    # reach 40 bits, so magnitude bounds fall on both sides of 2**53
    # and the op runs both its float64 and its int64 GEMM path.
    in_fmt = draw(formats())
    out_fmt = draw(formats())
    w_fmt = draw(formats(min_bits=8, max_bits=40))
    out_features = draw(st.integers(1, 4))
    in_features = draw(st.integers(1, 8))
    weight = draw(code_arrays(w_fmt, (out_features, in_features)))
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
    return plan, codes, order


# ----------------------------------------------------------------------
# Exact references (Python ints — cannot wrap)
# ----------------------------------------------------------------------
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
    plan, codes, order = case
    cert = certify_plan(plan)
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
        forward = CompiledKernel(None, [plan])._fixed_op(plan, None)
        out = plan.out_format.to_fixed(
            forward(plan.in_format.from_fixed(codes)))
        expected = np.array(
            [[exact_requantize(acc, plan.accum_fraction, plan.out_format)
              for acc in out_row] for out_row in exact], dtype=np.int64)
        np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Dropout: per-pass quantized mask product at the format extremes
# ----------------------------------------------------------------------
@SETTINGS
@given(in_fmt=formats(), out_fmt=formats(), mask_fmt=formats(max_bits=16),
       data=st.data())
def test_dropout_bounds_are_sound(in_fmt, out_fmt, mask_fmt, data):
    shape = (2, 3)
    plan = LayerPlan(
        name="slot", kind=KIND_DROPOUT,
        in_shape=(shape[1],), out_shape=(shape[1],),
        in_format=in_fmt, out_format=out_fmt, mask_format=mask_fmt,
        slot_name="slot")
    cert = certify_plan(plan)
    codes = data.draw(code_arrays(in_fmt, shape))
    mask = data.draw(code_arrays(mask_fmt, shape))

    exact = [int(x) * int(m)
             for x, m in zip(codes.flat.copy(), mask.flat.copy())]
    for acc in exact:
        assert cert.accum_lo <= acc <= cert.accum_hi
        assert abs(acc) <= cert.magnitude_bound

    assert not cert.wrap_possible  # 20+16 bit products are int64-safe
    kernel = CompiledKernel(None, [plan])
    forward = kernel._fixed_op(plan, None)
    kernel._pass_masks = {"slot": mask}
    out = out_fmt.to_fixed(forward(in_fmt.from_fixed(codes)))
    expected = np.array(
        [exact_requantize(acc, plan.accum_fraction, out_fmt)
         for acc in exact], dtype=np.int64).reshape(shape)
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Average pooling: k**2-term sums
# ----------------------------------------------------------------------
@SETTINGS
@given(in_fmt=formats(), out_fmt=formats(), data=st.data())
def test_average_pool_bounds_are_sound(in_fmt, out_fmt, data):
    plan = LayerPlan(
        name="pool", kind=KIND_POOL,
        in_shape=(1, 4, 4), out_shape=(1, 2, 2),
        in_format=in_fmt, out_format=out_fmt,
        attrs={"kernel_size": 2, "stride": 2, "padding": 0,
               "average": True})
    cert = certify_plan(plan)
    codes = data.draw(code_arrays(in_fmt, (1, 1, 4, 4)))

    windows = [codes[0, 0, i:i + 2, j:j + 2]
               for i in (0, 2) for j in (0, 2)]
    for window in windows:
        acc = sum(int(v) for v in window.flat)
        assert cert.accum_lo <= acc <= cert.accum_hi
        assert abs(acc) <= cert.magnitude_bound

    assert not cert.wrap_possible
    forward = CompiledKernel(None, [plan])._fixed_op(plan, None)
    out = forward(in_fmt.from_fixed(codes))
    assert out.shape == (1, 1, 2, 2)
    assert float(np.abs(out).max()) <= abs(out_fmt.min_value)


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
    kernel = CompiledKernel(None, [fc1, fc2])
    certs = {p.name: certify_plan(p) for p in (fc1, fc2)}
    assert not any(c.wrap_possible for c in certs.values())

    codes = data.draw(code_arrays(in_fmt, (2, 4)))
    x = in_fmt.from_fixed(codes)
    for plan in (fc1, fc2):
        x = kernel._fixed_op(plan, None)(x)
        # Layer output is saturated into its out_format, which is the
        # next layer's analysis starting point: the interval the next
        # certificate assumed really does contain the live values.
        produced = plan.out_format.to_fixed(x)
        interval = format_interval(plan.out_format)
        assert int(produced.min()) >= interval.lo
        assert int(produced.max()) <= interval.hi


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
