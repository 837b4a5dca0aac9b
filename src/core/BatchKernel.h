//===- core/BatchKernel.h - SoA batch kernel primitive ----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted kernel's min-sum recompute (core/FastKernels.h) as a
/// contiguous sweep over packed per-site count lanes. The primitive has
/// an AVX2 body, chosen once per process when the CPU supports it, and a
/// scalar loop that compiles everywhere.
///
/// Bit-identity: batchMinSum computes sum_i min(cw_i*NTW, tw_i*NCW), an
/// integer sum of non-negative terms, so evaluation order cannot perturb
/// the result. The AVX2 body runs only when both window totals fit 32
/// bits: then every product fits 64 bits exactly (32x32->64 widening
/// multiplies) and the full sum is bounded by NCW*NTW < 2^64, so the
/// per-lane partial sums (each a subset of the terms) cannot wrap.
/// Totals of 2^32 or more take the scalar loop, which wraps mod 2^64
/// exactly as the reference kernel's scalar arithmetic does. Every input
/// therefore gets the same bits on every host.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_BATCHKERNEL_H
#define OPD_CORE_BATCHKERNEL_H

#include <cstddef>
#include <cstdint>

namespace opd {

/// sum over i < N of min(Pairs[2i]*NTW, Pairs[2i+1]*NCW), mod 2^64 —
/// the weighted kernel's MinSum recompute over a packed roster whose
/// per-site CW/TW counts are stored as adjacent (cw, tw) uint32 pairs.
/// The interleaved layout is what makes the AVX2 sweep cheap: one
/// 256-bit load delivers four whole pairs with the cw counts already in
/// the even 32-bit lanes and the tw counts in the odd lanes, which is
/// exactly the operand form the 32x32->64 lane multiply consumes — no
/// widening shuffles per block. The AVX2 sweep runs only when the CPU
/// has AVX2 and both totals fit 32 bits (exactness guard, see file
/// comment), so the result equals the scalar loop's for every input.
uint64_t batchMinSum(const uint32_t *Pairs, size_t N, uint64_t NCW,
                     uint64_t NTW);

} // namespace opd

#endif // OPD_CORE_BATCHKERNEL_H
