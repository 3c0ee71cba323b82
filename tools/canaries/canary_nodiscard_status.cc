// Checker canary: Status declared without the class-level [[nodiscard]]
// that makes every Status-returning call discard-checked. NOT compiled —
// consumed by tools/vecube_check.py --canaries.
//
// vecube-check-as: src/util/status.h
// vecube-check-expect: nodiscard-status

#ifndef VECUBE_UTIL_STATUS_H_
#define VECUBE_UTIL_STATUS_H_

namespace vecube {

class Status {  // BUG: missing [[nodiscard]]
 public:
  bool ok() const { return code_ == 0; }

 private:
  int code_ = 0;
};

}  // namespace vecube

#endif  // VECUBE_UTIL_STATUS_H_
