// Checker canary: AVX2 intrinsics outside src/haar/simd_avx2.cc, where
// they would run unguarded on CPUs without the feature. NOT compiled —
// consumed by tools/vecube_check.py --canaries.
//
// vecube-check-as: src/haar/fused.cc
// vecube-check-expect: simd-dispatch

#include <immintrin.h>  // BUG: intrinsics header outside simd_avx2.cc

namespace vecube {

void AddPairs(const double* a, const double* b, double* out) {
  const __m256d x = _mm256_loadu_pd(a);  // BUG: unguarded AVX2
  const __m256d y = _mm256_loadu_pd(b);
  _mm256_storeu_pd(out, _mm256_add_pd(x, y));
}

}  // namespace vecube
