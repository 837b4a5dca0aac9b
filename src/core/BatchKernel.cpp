//===- core/BatchKernel.cpp - SoA batch kernel primitive ---------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The AVX2 body is compiled per-function with
// __attribute__((target("avx2"))) and chosen once per process from
// __builtin_cpu_supports, so one binary carries both paths and non-AVX2
// hosts never execute a VEX instruction. Other targets and compilers
// compile only the scalar loop.
//
// Exactness of the AVX2 sweep: batchMinSum takes it only when
// NCW < 2^32 and NTW < 2^32. Each roster count is a uint32_t, so every
// product cw_i*NTW and tw_i*NCW is an exact 32x32->64 widening multiply
// (_mm256_mul_epu32 of an interleaved-pair lane by a <2^32 total), and
// the whole sum is bounded by sum_i cw_i*NTW = NCW*NTW < 2^64 — every
// per-lane partial sum is a subset of those non-negative terms, so no
// addition wraps and lane order cannot matter. Totals at or above 2^32
// take the scalar loop, which wraps mod 2^64 in exactly the reference
// kernel's order-invariant way.
//
//===----------------------------------------------------------------------===//

#include "core/BatchKernel.h"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPD_BATCH_AVX2 1
#include <immintrin.h>
#else
#define OPD_BATCH_AVX2 0
#endif

using namespace opd;

namespace {

uint64_t minSumScalar(const uint32_t *Pairs, size_t N, uint64_t NCW,
                      uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
}

#if OPD_BATCH_AVX2

__attribute__((target("avx2"))) uint64_t
minSumAVX2(const uint32_t *Pairs, size_t N, uint64_t NCW, uint64_t NTW) {
  // One 256-bit load covers four interleaved (cw, tw) pairs: the cw
  // counts sit in the even 32-bit lanes — the operand form
  // _mm256_mul_epu32 consumes directly — and a 32-bit lane shift brings
  // the tw counts down for the mirror product. Both totals are < 2^32
  // (batchMinSum guard), so the lane products are exact.
  const __m256i VNTW = _mm256_set1_epi64x(static_cast<long long>(NTW));
  const __m256i VNCW = _mm256_set1_epi64x(static_cast<long long>(NCW));
  __m256i Acc0 = _mm256_setzero_si256();
  __m256i Acc1 = _mm256_setzero_si256();
  size_t I = 0;
  if ((NCW * NTW) >> 63 == 0) {
    // Every product is at most NCW*NTW < 2^63, so the signed 64-bit lane
    // compare already orders them correctly — no sign-flip needed. This
    // is the common case (any window with NCW*NTW < 2^63); two
    // accumulators split the loop-carried add dependency.
    for (; I + 8 <= N; I += 8) {
      __m256i V0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i V1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I + 8));
      __m256i A0 = _mm256_mul_epu32(V0, VNTW);
      __m256i B0 = _mm256_mul_epu32(_mm256_srli_epi64(V0, 32), VNCW);
      __m256i A1 = _mm256_mul_epu32(V1, VNTW);
      __m256i B1 = _mm256_mul_epu32(_mm256_srli_epi64(V1, 32), VNCW);
      Acc0 = _mm256_add_epi64(
          Acc0, _mm256_blendv_epi8(A0, B0, _mm256_cmpgt_epi64(A0, B0)));
      Acc1 = _mm256_add_epi64(
          Acc1, _mm256_blendv_epi8(A1, B1, _mm256_cmpgt_epi64(A1, B1)));
    }
  } else {
    // Products may reach [2^63, 2^64): XORing both compare operands with
    // the sign bit maps unsigned order onto the signed lane compare.
    const __m256i SignFlip =
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
    for (; I + 4 <= N; I += 4) {
      __m256i V = _mm256_loadu_si256(
          reinterpret_cast<const __m256i *>(Pairs + 2 * I));
      __m256i A = _mm256_mul_epu32(V, VNTW);
      __m256i B = _mm256_mul_epu32(_mm256_srli_epi64(V, 32), VNCW);
      __m256i AGtB = _mm256_cmpgt_epi64(_mm256_xor_si256(A, SignFlip),
                                        _mm256_xor_si256(B, SignFlip));
      Acc0 = _mm256_add_epi64(Acc0, _mm256_blendv_epi8(A, B, AGtB));
    }
  }
  __m256i Acc = _mm256_add_epi64(Acc0, Acc1);
  __m128i Fold = _mm_add_epi64(_mm256_castsi256_si128(Acc),
                               _mm256_extracti128_si256(Acc, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(Fold)) +
         static_cast<uint64_t>(_mm_extract_epi64(Fold, 1)) +
         minSumScalar(Pairs + 2 * I, N - I, NCW, NTW);
}

bool cpuHasAVX2() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return Has;
}

#endif // OPD_BATCH_AVX2

} // namespace

uint64_t opd::batchMinSum(const uint32_t *Pairs, size_t N, uint64_t NCW,
                          uint64_t NTW) {
#if OPD_BATCH_AVX2
  if ((NCW >> 32) == 0 && (NTW >> 32) == 0 && cpuHasAVX2())
    return minSumAVX2(Pairs, N, NCW, NTW);
#endif
  return minSumScalar(Pairs, N, NCW, NTW);
}
