// Checker canary: library code printing to stdout instead of going
// through util/ logging. NOT compiled — consumed by
// tools/vecube_check.py --canaries.
//
// vecube-check-as: src/core/report.cc
// vecube-check-expect: no-stdio

#include <cstdio>

namespace vecube {

void ReportPlanCost(unsigned long cost) {
  std::printf("plan cost %lu\n", cost);  // BUG: stdio in library code
}

}  // namespace vecube
