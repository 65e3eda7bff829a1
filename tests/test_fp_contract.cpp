// The build contracts no floating-point expression: a * b + c stays a
// rounded product and a rounded sum even in code compiled for a target
// with FMA.  The mobility streams are pinned in those bits
// (*StepStreamIsPinned), so a fused multiply-add moves an agent by an ulp
// and breaks every pin on an FMA build (-march=native, aarch64).

#include <gtest/gtest.h>

#include <cmath>

namespace {

// Compiled for FMA whatever the build's -march: with contraction on, GCC
// emits one vfmadd here.
__attribute__((target("fma"))) double multiply_add(double a, double b,
                                                   double c) {
  return a * b + c;
}

TEST(FpContract, MultiplyAddIsNotFusedOnAnFmaTarget) {
  if (!__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "this CPU has no FMA";
  }
  // a * b = 1 - 2^-60 exactly, which rounds to 1: unfused the sum is 0,
  // fused it is -2^-60.
  volatile double a = 1.0 + std::ldexp(1.0, -30);
  volatile double b = 1.0 - std::ldexp(1.0, -30);
  volatile double c = -1.0;
  EXPECT_EQ(multiply_add(a, b, c), 0.0);
  EXPECT_NE(std::fma(a, b, c), 0.0);  // the inputs tell the two apart
}

}  // namespace
