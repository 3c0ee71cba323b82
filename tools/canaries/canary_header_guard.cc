// Checker canary: a src/ header whose include guard does not follow the
// VECUBE_<DIR>_<FILE>_H_ convention. NOT compiled — consumed by
// tools/vecube_check.py --canaries.
//
// vecube-check-as: src/core/widget.h
// vecube-check-expect: header-guard

#ifndef WIDGET_H  // BUG: expected VECUBE_CORE_WIDGET_H_
#define WIDGET_H

namespace vecube {

int WidgetCount();

}  // namespace vecube

#endif  // WIDGET_H
