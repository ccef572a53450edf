// Declarations-only stand-in for the vendor ap_int.h.
//
// Enough for `g++ -std=c++14 -fsyntax-only` on an emitted HLS project:
// the types, their template parameters and the operations the nnet
// templates use resolve, but nothing is defined and nothing computes.
// Integer arithmetic goes through the built-in conversions.
#ifndef AP_INT_H_
#define AP_INT_H_

template<int W>
struct ap_int {
    ap_int();
    template<class T> ap_int(const T &value);
    template<class T> ap_int &operator+=(const T &value);
    operator long long() const;
};

template<int W>
struct ap_uint {
    ap_uint();
    template<class T> ap_uint(const T &value);
    template<class T> ap_uint &operator|=(const T &value);
    bool operator[](int bit) const;
    operator unsigned long long() const;
};

#endif
