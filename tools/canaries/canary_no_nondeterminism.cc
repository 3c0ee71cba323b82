// Checker canary: wall-clock seeded randomness in a directory whose
// results must be bit-reproducible. NOT compiled — consumed by
// tools/vecube_check.py --canaries.
//
// vecube-check-as: src/serve/jitter.cc
// vecube-check-expect: no-nondeterminism

#include <cstdlib>
#include <ctime>

namespace vecube {

int EvictionJitter() {
  std::srand(static_cast<unsigned>(time(nullptr)));  // BUG: wall clock seed
  return std::rand() % 8;  // BUG: global RNG
}

}  // namespace vecube
