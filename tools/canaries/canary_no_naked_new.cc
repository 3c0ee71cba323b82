// Checker canary: an owning raw pointer from a naked new, released by a
// delete expression. NOT compiled — consumed by tools/vecube_check.py
// --canaries.
//
// vecube-check-as: src/core/scratch_pool.cc
// vecube-check-expect: no-naked-new

namespace vecube {

struct Block {
  double cells[64];
};

double SumFresh() {
  Block* block = new Block();  // BUG: naked new
  const double sum = block->cells[0];
  delete block;  // BUG: delete expression
  return sum;
}

}  // namespace vecube
