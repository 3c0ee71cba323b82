#include "cube/tensor.h"

#include <cmath>
#include <limits>
#include <memory>

#include "util/logging.h"

namespace vecube {

namespace {

Result<uint64_t> CheckedProduct(const std::vector<uint32_t>& extents) {
  if (extents.empty()) {
    return Status::InvalidArgument("tensor must have at least one dimension");
  }
  uint64_t n = 1;
  for (uint32_t e : extents) {
    if (e == 0) return Status::InvalidArgument("tensor extent must be >= 1");
    if (n > std::numeric_limits<uint64_t>::max() / e) {
      return Status::InvalidArgument("tensor volume overflows 64 bits");
    }
    n *= e;
  }
  if (n > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("tensor volume exceeds 2^40 cells");
  }
  return n;
}

}  // namespace

// Constant-initialized, so a Tensor default-constructed during another
// translation unit's static initialization already sees it.
constinit Tensor::Payload Tensor::empty_;

Tensor::Tensor(const Tensor& other)
    : payload_(other.payload_ == &empty_
                   ? &empty_
                   : std::make_unique<Payload>(*other.payload_).release()) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) *this = Tensor(other);
  return *this;
}

void Tensor::Detach() {
  std::unique_ptr<Payload> copy = std::make_unique<Payload>(*payload_);
  Release();
  payload_ = copy.release();
}

void Tensor::Drop() noexcept {
  // order: acq_rel — release: this owner's reads of the cells happen-
  // before a surviving owner's in-place write (OwnsAlone's acquire) or
  // the free below; acquire: the last owner frees only after every other
  // owner is done with the payload.
  if (payload_->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::unique_ptr<Payload> last(payload_);
  }
  payload_ = &empty_;
}

Tensor Tensor::Adopt(std::vector<uint32_t> extents, TensorBuffer cells) {
  auto payload = std::make_unique<Payload>();
  payload->strides.resize(extents.size());
  uint64_t stride = 1;
  for (size_t i = extents.size(); i-- > 0;) {
    payload->strides[i] = stride;
    stride *= extents[i];
  }
  payload->extents = std::move(extents);
  payload->cells = std::move(cells);
  return Tensor(payload.release());
}

Result<Tensor> Tensor::Zeros(std::vector<uint32_t> extents) {
  uint64_t n;
  VECUBE_ASSIGN_OR_RETURN(n, CheckedProduct(extents));
  return Adopt(std::move(extents), TensorBuffer(n, 0.0));
}

Result<Tensor> Tensor::Uninitialized(std::vector<uint32_t> extents) {
  uint64_t n;
  VECUBE_ASSIGN_OR_RETURN(n, CheckedProduct(extents));
  // TensorAllocator's default construction is a no-op, so this allocates
  // without touching the payload.
  return Adopt(std::move(extents), TensorBuffer(n));
}

Result<Tensor> Tensor::FromData(std::vector<uint32_t> extents,
                                std::vector<double> data) {
  uint64_t n;
  VECUBE_ASSIGN_OR_RETURN(n, CheckedProduct(extents));
  if (n != data.size()) {
    return Status::InvalidArgument(
        "data size " + std::to_string(data.size()) +
        " does not match extents product " + std::to_string(n));
  }
  return Adopt(std::move(extents), TensorBuffer(data.begin(), data.end()));
}

Result<Tensor> Tensor::FromBuffer(std::vector<uint32_t> extents,
                                  TensorBuffer data) {
  uint64_t n;
  VECUBE_ASSIGN_OR_RETURN(n, CheckedProduct(extents));
  if (n != data.size()) {
    return Status::InvalidArgument(
        "data size " + std::to_string(data.size()) +
        " does not match extents product " + std::to_string(n));
  }
  return Adopt(std::move(extents), std::move(data));
}

uint64_t Tensor::FlatIndex(const std::vector<uint32_t>& coords) const {
  const std::vector<uint32_t>& extents = payload_->extents;
  VECUBE_DCHECK(coords.size() == extents.size());
  uint64_t flat = 0;
  for (size_t i = 0; i < coords.size(); ++i) {
    VECUBE_DCHECK(coords[i] < extents[i]);
    flat += coords[i] * payload_->strides[i];
  }
  return flat;
}

double Tensor::At(const std::vector<uint32_t>& coords) const {
  return payload_->cells[FlatIndex(coords)];
}

void Tensor::Set(const std::vector<uint32_t>& coords, double value) {
  const uint64_t flat = FlatIndex(coords);
  Mutable().cells[flat] = value;
}

double Tensor::Total() const {
  double total = 0.0;
  for (double v : payload_->cells) total += v;
  return total;
}

bool Tensor::ApproxEquals(const Tensor& other, double tol) const {
  if (extents() != other.extents()) return false;
  const TensorBuffer& mine = payload_->cells;
  const TensorBuffer& theirs = other.payload_->cells;
  for (size_t i = 0; i < mine.size(); ++i) {
    if (std::fabs(mine[i] - theirs[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ShapeString() const {
  const std::vector<uint32_t>& extents = payload_->extents;
  std::string out = "[";
  for (size_t i = 0; i < extents.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(extents[i]);
  }
  out += "]";
  return out;
}

}  // namespace vecube
