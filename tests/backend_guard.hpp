// Dispatch knobs for tests: a scoped GEMM backend override that sets
// PlanOptions::backend and restores the previous planner options when
// the scope ends, and the SIMD levels a SimdCapScope can pick here.
#pragma once

#include <vector>

#include "base/cpu.hpp"
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

/// Every SIMD level this process can run, narrowest first: the levels a
/// cross-level differential test runs under SimdCapScope.
inline std::vector<SimdLevel> host_simd_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (level <= simd_level()) levels.push_back(level);
  return levels;
}

}  // namespace apt::nn
