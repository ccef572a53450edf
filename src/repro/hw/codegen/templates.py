"""HLS C++ templates in the hls4ml style (paper Sec. 3.5.2).

The paper extends hls4ml with HLS implementations of the four dropout
designs so heterogeneous dropout networks can be synthesized.  These
templates mirror that structure: one ``nnet_*`` header per layer family
plus ``nnet_dropout.h`` carrying the four dropout units:

* ``bernoulli_dropout`` — a 16-bit Fibonacci LFSR word per element and
  one threshold comparator, fully pipelined (II=1);
* ``random_dropout`` — an extra mode LFSR selects point or channel
  granularity per forward pass;
* ``block_dropout`` — seed bits dilated by a ``BxB`` window through a
  line buffer (the expensive dynamic design);
* ``masksembles_dropout`` — a mask ROM indexed by the Monte-Carlo
  sample counter; no RNG, no comparators.

The emitted code is a faithful phase-4 artifact; synthesis itself is
simulated by :mod:`repro.hw.perf` (see DESIGN.md).
"""

DEFINES_H = """\
#ifndef DEFINES_H_
#define DEFINES_H_

#include <ap_fixed.h>
#include <ap_int.h>

// The first layer's input format and the last layer's output format.
typedef {input_t} input_t;
typedef {output_t} output_t;
typedef ap_uint<16> lfsr_state_t;

#define MC_SAMPLES {mc_samples}
#define N_INPUT {n_input}
#define N_OUTPUT {n_output}

#endif
"""

NNET_COMMON_H = """\
#ifndef NNET_COMMON_H_
#define NNET_COMMON_H_

#include "ap_fixed.h"

namespace nnet {

struct common_config {
    static const unsigned reuse_factor = 1;
};

// 16-bit Fibonacci LFSR (taps 16,15,13,4) shared by all dynamic
// dropout units.  One step yields one pseudo-random word.
inline lfsr_state_t lfsr_step(lfsr_state_t state) {
    #pragma HLS INLINE
    ap_uint<1> bit = state[15] ^ state[14] ^ state[12] ^ state[3];
    return (state << 1) | bit;
}

} // namespace nnet

#endif
"""

NNET_DENSE_H = """\
#ifndef NNET_DENSE_H_
#define NNET_DENSE_H_

#include "nnet_common.h"

namespace nnet {

template<class data_T, class res_T, typename CONFIG_T>
void dense(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_out],
    const typename CONFIG_T::weight_t weights[CONFIG_T::n_in * CONFIG_T::n_out],
    const typename CONFIG_T::bias_t   biases[CONFIG_T::n_out])
{
    #pragma HLS PIPELINE II=CONFIG_T::reuse_factor
    typename CONFIG_T::accum_t acc[CONFIG_T::n_out];
    #pragma HLS ARRAY_PARTITION variable=acc complete

InitAccum:
    for (unsigned j = 0; j < CONFIG_T::n_out; j++) {
        acc[j] = (typename CONFIG_T::accum_t) biases[j];
    }
Product:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        for (unsigned j = 0; j < CONFIG_T::n_out; j++) {
            acc[j] += data[i] * weights[i * CONFIG_T::n_out + j];
        }
    }
Result:
    for (unsigned j = 0; j < CONFIG_T::n_out; j++) {
        res[j] = (res_T) acc[j];
    }
}

} // namespace nnet

#endif
"""

NNET_CONV2D_H = """\
#ifndef NNET_CONV2D_H_
#define NNET_CONV2D_H_

#include "nnet_common.h"

namespace nnet {

// Direct 2-D convolution on channels-last data; weights are indexed
// (kh, kw, c, f).
template<class data_T, class res_T, typename CONFIG_T>
void conv_2d(
    data_T data[CONFIG_T::in_height * CONFIG_T::in_width * CONFIG_T::n_chan],
    res_T  res[CONFIG_T::out_height * CONFIG_T::out_width * CONFIG_T::n_filt],
    const typename CONFIG_T::weight_t weights[CONFIG_T::filt_height * CONFIG_T::filt_width
                                              * CONFIG_T::n_chan * CONFIG_T::n_filt],
    const typename CONFIG_T::bias_t   biases[CONFIG_T::n_filt])
{
ConvOutRow:
    for (unsigned oh = 0; oh < CONFIG_T::out_height; oh++) {
    ConvOutCol:
        for (unsigned ow = 0; ow < CONFIG_T::out_width; ow++) {
            #pragma HLS PIPELINE II=CONFIG_T::reuse_factor
        ConvFilt:
            for (unsigned ff = 0; ff < CONFIG_T::n_filt; ff++) {
                typename CONFIG_T::accum_t acc = biases[ff];
            ConvChan:
                for (unsigned cc = 0; cc < CONFIG_T::n_chan; cc++) {
                ConvKernel:
                    for (unsigned kh = 0; kh < CONFIG_T::filt_height; kh++) {
                        for (unsigned kw = 0; kw < CONFIG_T::filt_width; kw++) {
                            // Unsigned wrap-around makes padded taps out of range.
                            unsigned ih = oh * CONFIG_T::stride + kh - CONFIG_T::pad;
                            unsigned iw = ow * CONFIG_T::stride + kw - CONFIG_T::pad;
                            if (ih < CONFIG_T::in_height && iw < CONFIG_T::in_width) {
                                acc += data[(ih * CONFIG_T::in_width + iw) * CONFIG_T::n_chan + cc]
                                     * weights[((kh * CONFIG_T::filt_width + kw) * CONFIG_T::n_chan + cc)
                                               * CONFIG_T::n_filt + ff];
                            }
                        }
                    }
                }
                res[(oh * CONFIG_T::out_width + ow) * CONFIG_T::n_filt + ff] = (res_T) acc;
            }
        }
    }
}

} // namespace nnet

#endif
"""

NNET_POOLING_H = """\
#ifndef NNET_POOLING_H_
#define NNET_POOLING_H_

#include "nnet_common.h"

namespace nnet {

// Max pooling on channels-last data.  Padded taps are skipped: padding
// with the format's most negative value never wins a window.
template<class data_T, class res_T, typename CONFIG_T>
void max_pool_2d(
    data_T data[CONFIG_T::in_height * CONFIG_T::in_width * CONFIG_T::n_chan],
    res_T  res[CONFIG_T::out_height * CONFIG_T::out_width * CONFIG_T::n_chan])
{
PoolRow:
    for (unsigned oh = 0; oh < CONFIG_T::out_height; oh++) {
    PoolCol:
        for (unsigned ow = 0; ow < CONFIG_T::out_width; ow++) {
            #pragma HLS PIPELINE
        PoolChan:
            for (unsigned cc = 0; cc < CONFIG_T::n_chan; cc++) {
                bool seen = false;
                data_T best = 0;
                for (unsigned ph = 0; ph < CONFIG_T::pool_size; ph++) {
                    for (unsigned pw = 0; pw < CONFIG_T::pool_size; pw++) {
                        unsigned ih = oh * CONFIG_T::stride + ph - CONFIG_T::pad;
                        unsigned iw = ow * CONFIG_T::stride + pw - CONFIG_T::pad;
                        if (ih < CONFIG_T::in_height && iw < CONFIG_T::in_width) {
                            data_T v = data[(ih * CONFIG_T::in_width + iw) * CONFIG_T::n_chan + cc];
                            if (!seen || v > best) best = v;
                            seen = true;
                        }
                    }
                }
                res[(oh * CONFIG_T::out_width + ow) * CONFIG_T::n_chan + cc] = (res_T) best;
            }
        }
    }
}

template<class data_T, class res_T, typename CONFIG_T>
void global_avg_pool_2d(
    data_T data[CONFIG_T::in_height * CONFIG_T::in_width * CONFIG_T::n_chan],
    res_T  res[CONFIG_T::n_chan])
{
GapChan:
    for (unsigned cc = 0; cc < CONFIG_T::n_chan; cc++) {
        #pragma HLS PIPELINE
        typename CONFIG_T::accum_t acc = 0;
        for (unsigned i = 0; i < CONFIG_T::in_height * CONFIG_T::in_width; i++) {
            acc += data[i * CONFIG_T::n_chan + cc];
        }
        res[cc] = (res_T)(acc / (CONFIG_T::in_height * CONFIG_T::in_width));
    }
}

} // namespace nnet

#endif
"""

NNET_BATCHNORM_H = """\
#ifndef NNET_BATCHNORM_H_
#define NNET_BATCHNORM_H_

#include "nnet_common.h"

namespace nnet {

// Inference-time batch norm folded to one scale and one shift per
// channel: y = x * scale[c] + shift[c], on channels-last data.
template<class data_T, class res_T, typename CONFIG_T>
void normalize(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_in],
    const typename CONFIG_T::scale_t scale[CONFIG_T::n_chan],
    const typename CONFIG_T::bias_t  shift[CONFIG_T::n_chan])
{
Normalize:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE
        unsigned c = i % CONFIG_T::n_chan;
        typename CONFIG_T::accum_t acc = data[i] * scale[c];
        acc += shift[c];
        res[i] = (res_T) acc;
    }
}

} // namespace nnet

#endif
"""

NNET_ACTIVATION_H = """\
#ifndef NNET_ACTIVATION_H_
#define NNET_ACTIVATION_H_

#include "nnet_common.h"

namespace nnet {

template<class data_T, class res_T, typename CONFIG_T>
void relu(data_T data[CONFIG_T::n_in], res_T res[CONFIG_T::n_in]) {
ReLU:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE
        res[i] = data[i] > (data_T) 0 ? (res_T) data[i] : (res_T) 0;
    }
}

} // namespace nnet

#endif
"""

NNET_DROPOUT_H = """\
#ifndef NNET_DROPOUT_H_
#define NNET_DROPOUT_H_

#include "nnet_common.h"

// ---------------------------------------------------------------------
// FPGA implementations of the four dropout designs (paper contribution
// 3): Bernoulli, Random, Block and Masksembles.  All units operate on
// the flattened channels-last activation stream of the preceding layer
// and are inverted-dropout scaled so no extra normalization is needed.
// Mask values are mask_t codes, as in the compiled kernel.
// ---------------------------------------------------------------------

namespace nnet {

// ---------------------------------------------------------------------
// Bernoulli dropout: one LFSR word + one comparator per element.  The
// comparison threshold encodes the keep probability in 16-bit fixed
// point; mask generation overlaps the activation stream (II=1), adding
// no stall cycles (paper Table 1: matches Masksembles latency).
// ---------------------------------------------------------------------
template<class data_T, class res_T, typename CONFIG_T>
void bernoulli_dropout(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_in],
    lfsr_state_t &state)
{
    const ap_uint<16> threshold = CONFIG_T::keep_threshold;  // keep_prob * 65535
    const typename CONFIG_T::mask_t inv_keep = CONFIG_T::inv_keep;
Bernoulli:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE II=1
        state = lfsr_step(state);
        bool keep = (ap_uint<16>) state < threshold;
        res[i] = keep ? (res_T)(data[i] * inv_keep) : (res_T) 0;
    }
}

// ---------------------------------------------------------------------
// Random dropout: a per-pass mode bit selects point or channel
// granularity.  The channel path needs a second comparator level and a
// per-channel mask register, which breaks the stream fusion and stalls
// roughly one cycle per element.
// ---------------------------------------------------------------------
template<class data_T, class res_T, typename CONFIG_T>
void random_dropout(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_in],
    lfsr_state_t &state,
    lfsr_state_t &mode_state)
{
    mode_state = lfsr_step(mode_state);
    const bool channel_mode = mode_state[0];
    const ap_uint<16> threshold = CONFIG_T::keep_threshold;
    const typename CONFIG_T::mask_t inv_keep = CONFIG_T::inv_keep;

    ap_uint<1> chan_mask[CONFIG_T::n_chan];
ChannelMask:
    for (unsigned c = 0; c < CONFIG_T::n_chan; c++) {
        #pragma HLS PIPELINE II=1
        state = lfsr_step(state);
        chan_mask[c] = ((ap_uint<16>) state < threshold) ? 1 : 0;
    }
Random:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE II=2
        state = lfsr_step(state);
        bool keep;
        if (channel_mode) {
            keep = chan_mask[i % CONFIG_T::n_chan];
        } else {
            keep = (ap_uint<16>) state < threshold;
        }
        res[i] = keep ? (res_T)(data[i] * inv_keep) : (res_T) 0;
    }
}

// ---------------------------------------------------------------------
// Block dropout (DropBlock): seed bits are drawn at gamma-adjusted
// rate and dilated by a block_size x block_size window through a line
// buffer, dropping contiguous patches of every feature map.
// ---------------------------------------------------------------------
template<class data_T, class res_T, typename CONFIG_T>
void block_dropout(
    data_T data[CONFIG_T::in_height * CONFIG_T::in_width * CONFIG_T::n_chan],
    res_T  res[CONFIG_T::in_height * CONFIG_T::in_width * CONFIG_T::n_chan],
    lfsr_state_t &state)
{
    const ap_uint<16> gamma_threshold = CONFIG_T::gamma_threshold;
    const typename CONFIG_T::mask_t inv_keep = CONFIG_T::inv_keep;

    static ap_uint<1> seed_buf[CONFIG_T::in_height * CONFIG_T::in_width];
    #pragma HLS ARRAY_PARTITION variable=seed_buf cyclic factor=CONFIG_T::block_size

BlockChan:
    for (unsigned c = 0; c < CONFIG_T::n_chan; c++) {
    SeedGen:
        for (unsigned i = 0; i < CONFIG_T::in_height * CONFIG_T::in_width; i++) {
            #pragma HLS PIPELINE II=1
            state = lfsr_step(state);
            seed_buf[i] = ((ap_uint<16>) state < gamma_threshold) ? 1 : 0;
        }
    Dilate:
        for (unsigned h = 0; h < CONFIG_T::in_height; h++) {
            for (unsigned w = 0; w < CONFIG_T::in_width; w++) {
                #pragma HLS PIPELINE II=2
                ap_uint<1> drop = 0;
            Window:
                for (unsigned bh = 0; bh < CONFIG_T::block_size && bh <= h; bh++) {
                    for (unsigned bw = 0; bw < CONFIG_T::block_size && bw <= w; bw++) {
                        drop |= seed_buf[(h - bh) * CONFIG_T::in_width + (w - bw)];
                    }
                }
                unsigned idx = (h * CONFIG_T::in_width + w) * CONFIG_T::n_chan + c;
                res[idx] = drop ? (res_T) 0 : (res_T)(data[idx] * inv_keep);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Gaussian dropout (extension design, see repro.dropout.gaussian):
// multiplicative N(1, sigma^2) noise.  The Gaussian generator sums
// four LFSR words (central-limit approximation, as in VIBNN's RNG) and
// multiplies the activation — no comparator on the datapath.
// ---------------------------------------------------------------------
template<class data_T, class res_T, typename CONFIG_T>
void gaussian_dropout(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_in],
    lfsr_state_t &state)
{
Gaussian:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE II=1
        ap_int<18> acc = 0;
    CLT:
        for (unsigned k = 0; k < 4; k++) {
            state = lfsr_step(state);
            acc += (ap_int<18>)(ap_int<16>) state;
        }
        // acc/4 approximates N(0, sigma_lfsr); scale to the configured
        // sigma and shift to mean 1.0 in fixed point.
        typename CONFIG_T::mask_t noise =
            (typename CONFIG_T::mask_t) 1.0
            + (typename CONFIG_T::mask_t)(acc >> 2)
              * (typename CONFIG_T::mask_t) CONFIG_T::sigma_lsb;
        res[i] = (res_T)(data[i] * noise);
    }
}

// ---------------------------------------------------------------------
// Masksembles: masks generated OFFLINE and stored in a BRAM ROM; the
// Monte-Carlo sample counter selects the active mask.  No RNG and no
// comparators on the datapath — one multiply by the ROM word per
// element (paper Fig. 1: static / mask generated offline).
// ---------------------------------------------------------------------
template<class data_T, class res_T, typename CONFIG_T>
void masksembles_dropout(
    data_T data[CONFIG_T::n_in],
    res_T  res[CONFIG_T::n_in],
    const typename CONFIG_T::mask_t mask_rom[CONFIG_T::num_masks * CONFIG_T::n_chan],
    unsigned sample_index)
{
    const unsigned m = sample_index % CONFIG_T::num_masks;
Masksembles:
    for (unsigned i = 0; i < CONFIG_T::n_in; i++) {
        #pragma HLS PIPELINE II=1
        unsigned c = i % CONFIG_T::n_chan;
        res[i] = (res_T)(data[i] * mask_rom[m * CONFIG_T::n_chan + c]);
    }
}

} // namespace nnet

#endif
"""

TOP_CPP = """\
#include "{project}.h"
{weight_includes}

// Auto-generated top level: {design_name} [{dropout_config}]
// {num_layers} layers, MC_SAMPLES Monte-Carlo passes per inference.

void {project}(
    input_t input[N_INPUT],
    output_t output[MC_SAMPLES][N_OUTPUT])
{{
    #pragma HLS INTERFACE ap_memory port=input
    #pragma HLS INTERFACE ap_memory port=output
    #pragma HLS DATAFLOW

    static lfsr_state_t lfsr_state = 0xACE1;
    static lfsr_state_t mode_state = 0xBEEF;

MCSample:
    for (unsigned t = 0; t < MC_SAMPLES; t++) {{
{body}
    }}
}}
"""

TOP_H = """\
#ifndef {guard}_H_
#define {guard}_H_

#include "defines.h"
#include "nnet_utils/nnet_common.h"
#include "nnet_utils/nnet_dense.h"
#include "nnet_utils/nnet_conv2d.h"
#include "nnet_utils/nnet_pooling.h"
#include "nnet_utils/nnet_batchnorm.h"
#include "nnet_utils/nnet_activation.h"
#include "nnet_utils/nnet_dropout.h"
#include "parameters.h"

void {project}(
    input_t input[N_INPUT],
    output_t output[MC_SAMPLES][N_OUTPUT]);

#endif
"""

TESTBENCH_CPP = """\
#include <cstdio>
#include "../firmware/{project}.h"

// Drives the accelerator with a single input frame and prints the
// Monte-Carlo output samples; softmax averaging happens host-side.
int main() {{
    static input_t input[N_INPUT];
    static output_t output[MC_SAMPLES][N_OUTPUT];

    for (unsigned i = 0; i < N_INPUT; i++) {{
        input[i] = (input_t)((i % 17) * 0.0625);
    }}

    {project}(input, output);

    for (unsigned t = 0; t < MC_SAMPLES; t++) {{
        printf("sample %u:", t);
        for (unsigned j = 0; j < N_OUTPUT; j++) {{
            printf(" %f", (double) output[t][j]);
        }}
        printf("\\n");
    }}
    return 0;
}}
"""

BUILD_TCL = """\
# Auto-generated Vivado-HLS build script for {project}
open_project {project}_prj
set_top {project}
add_files firmware/{project}.cpp
add_files -tb tb/{project}_test.cpp
open_solution "solution1"
set_part {{{part}}}
create_clock -period {period_ns} -name default
csim_design
csynth_design
export_design -format ip_catalog
exit
"""
