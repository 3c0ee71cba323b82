#include "haar/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace vecube {

namespace {

void AddRowsScalar(const double* a, const double* b, double* dst,
                   uint64_t n) {
  for (uint64_t j = 0; j < n; ++j) dst[j] = a[j] + b[j];
}

void SubRowsScalar(const double* a, const double* b, double* dst,
                   uint64_t n) {
  for (uint64_t j = 0; j < n; ++j) dst[j] = a[j] - b[j];
}

void AddSubRowsScalar(const double* a, const double* b, double* sum,
                      double* diff, uint64_t n) {
  for (uint64_t j = 0; j < n; ++j) {
    const double x = a[j];
    const double y = b[j];
    sum[j] = x + y;
    diff[j] = x - y;
  }
}

void SynthRowsScalar(const double* p, const double* r, double* even,
                     double* odd, uint64_t n) {
  for (uint64_t j = 0; j < n; ++j) {
    const double x = p[j];
    const double y = r[j];
    even[j] = 0.5 * (x + y);
    odd[j] = 0.5 * (x - y);
  }
}

void PairSumScalar(const double* in, double* sum, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) sum[i] = in[2 * i] + in[2 * i + 1];
}

void PairDiffScalar(const double* in, double* diff, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) diff[i] = in[2 * i] - in[2 * i + 1];
}

void PairBothScalar(const double* in, double* sum, double* diff,
                    uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    const double x = in[2 * i];
    const double y = in[2 * i + 1];
    sum[i] = x + y;
    diff[i] = x - y;
  }
}

void PairSynthScalar(const double* p, const double* r, double* out,
                     uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    const double x = p[i];
    const double y = r[i];
    out[2 * i] = 0.5 * (x + y);
    out[2 * i + 1] = 0.5 * (x - y);
  }
}

constexpr HaarVecOps kScalarOps = {
    AddRowsScalar, SubRowsScalar, AddSubRowsScalar, SynthRowsScalar,
    PairSumScalar, PairDiffScalar, PairBothScalar,  PairSynthScalar,
    "scalar",
};

const HaarVecOps* SelectAtStartup() {
  // The hook is consulted exactly once; both tables are bit-identical, so
  // this toggles scheduling, never results — determinism is preserved.
  if (internal::ParseDisableAvx2(
          std::getenv("VECUBE_DISABLE_AVX2"))) {  // vecube-check: disable=no-nondeterminism
    return &kScalarOps;
  }
  if (const HaarVecOps* avx2 = internal::Avx2VecOpsOrNull()) return avx2;
  return &kScalarOps;
}

std::atomic<const HaarVecOps*> g_ops{nullptr};

}  // namespace

const HaarVecOps& VecOps() {
  // order: acquire — pairs with the release side of the CAS below so a
  // thread that observes the published pointer also sees the selected
  // ops table fully initialized.
  const HaarVecOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = SelectAtStartup();
    const HaarVecOps* expected = nullptr;
    // First selector wins; the selection is deterministic anyway.
    // order: acq_rel — release publishes the selected table; acquire on
    // the failure path makes the winner's table visible through
    // `expected` before we dereference it.
    if (!g_ops.compare_exchange_strong(expected, ops,
                                       std::memory_order_acq_rel)) {
      ops = expected;
    }
  }
  return *ops;
}

bool VecOpsAreAvx2() { return std::strcmp(VecOps().name, "avx2") == 0; }

namespace internal {

const HaarVecOps& ScalarVecOps() { return kScalarOps; }

bool ParseDisableAvx2(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

void OverrideVecOpsForTesting(const HaarVecOps* ops) {
  // order: release — publishes the override table to subsequent VecOps()
  // acquire loads; tests install overrides before spawning readers.
  g_ops.store(ops, std::memory_order_release);
}

}  // namespace internal

}  // namespace vecube
