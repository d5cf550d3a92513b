// Tests for the named op counters.

#include <gtest/gtest.h>

#include "sim/counters.hpp"

namespace gaurast::sim {
namespace {

TEST(CounterSet, IncrementAndGet) {
  CounterSet c;
  c.increment("fp32.add");
  c.increment("fp32.add", 4);
  EXPECT_EQ(c.get("fp32.add"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
}

}  // namespace
}  // namespace gaurast::sim
