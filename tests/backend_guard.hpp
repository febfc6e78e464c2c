// Scoped GEMM backend override for tests: sets PlanOptions::backend and
// restores the previous planner options when the scope ends.
#pragma once

#include "nn/plan.hpp"

namespace apt::nn {

class BackendGuard {
 public:
  explicit BackendGuard(GemmBackend b) : prev_(plan_options()) {
    PlanOptions opts = prev_;
    opts.backend = b;
    set_plan_options(opts);
  }
  ~BackendGuard() { set_plan_options(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  PlanOptions prev_;
};

}  // namespace apt::nn
