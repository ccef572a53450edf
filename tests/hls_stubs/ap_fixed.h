// Declarations-only stand-in for the vendor ap_fixed.h.
//
// Enough for `g++ -std=c++14 -fsyntax-only` on an emitted HLS project:
// the quantization and overflow modes, the five template parameters
// and the operations the nnet templates use resolve, but nothing is
// defined and nothing computes.  Arithmetic and comparisons go through
// the conversion to double; distinct formats stay distinct types, so a
// buffer or weight array of the wrong format is still an error.
#ifndef AP_FIXED_H_
#define AP_FIXED_H_

#include "ap_int.h"

enum ap_q_mode {
    AP_RND, AP_RND_ZERO, AP_RND_MIN_INF, AP_RND_INF, AP_RND_CONV,
    AP_TRN, AP_TRN_ZERO
};
enum ap_o_mode { AP_SAT, AP_SAT_ZERO, AP_SAT_SYM, AP_WRAP, AP_WRAP_SM };

template<int W, int I, ap_q_mode Q = AP_TRN, ap_o_mode O = AP_WRAP,
         int N = 0>
struct ap_fixed {
    ap_fixed();
    template<class T> ap_fixed(const T &value);
    template<class T> ap_fixed &operator+=(const T &value);
    operator double() const;
};

#endif
