// Tests for the bump-allocator scratch arena (util/workspace.h):
// alignment, mark/rewind scoping, growth accounting, and the
// steady-state zero-allocation contract the DSP/NN hot paths rely on.
#include "util/workspace.h"

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <numeric>

namespace {

using emoleak::util::Workspace;
using emoleak::util::thread_workspace;

TEST(WorkspaceTest, TakeReturnsDistinctAlignedSpans) {
  Workspace ws;
  const std::span<std::uint8_t> a = ws.take<std::uint8_t>(3);
  const std::span<double> b = ws.take<double>(5);
  const std::span<std::complex<double>> c = ws.take<std::complex<double>>(2);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 5u);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) %
                alignof(std::complex<double>),
            0u);
  // Spans must not overlap: writing one leaves the others intact.
  std::fill(a.begin(), a.end(), std::uint8_t{0xAB});
  std::fill(b.begin(), b.end(), 1.5);
  c[0] = {2.0, -3.0};
  c[1] = {4.0, 5.0};
  for (const std::uint8_t v : a) EXPECT_EQ(v, 0xAB);
  for (const double v : b) EXPECT_EQ(v, 1.5);
  EXPECT_EQ(c[0], (std::complex<double>{2.0, -3.0}));
}

TEST(WorkspaceTest, ScopeRewindsAndStorageIsReused) {
  Workspace ws;
  const double* first = nullptr;
  {
    const Workspace::Scope scope{ws};
    first = ws.take<double>(64).data();
  }
  // After the scope unwinds, the same storage is handed out again.
  const Workspace::Scope scope{ws};
  EXPECT_EQ(ws.take<double>(64).data(), first);
}

TEST(WorkspaceTest, NestedScopesComposeLikeAStack) {
  Workspace ws;
  const Workspace::Scope outer{ws};
  (void)ws.take<double>(8);
  const std::size_t used_outer = ws.used_bytes();
  {
    const Workspace::Scope inner{ws};
    (void)ws.take<double>(100);
    EXPECT_GT(ws.used_bytes(), used_outer);
  }
  EXPECT_EQ(ws.used_bytes(), used_outer);
}

TEST(WorkspaceTest, GrowCountStabilizesAfterWarmup) {
  Workspace ws;
  for (int iter = 0; iter < 3; ++iter) {
    const Workspace::Scope scope{ws};
    (void)ws.take<double>(300);
    (void)ws.take<float>(1000);
  }
  const std::size_t warm = ws.grow_count();
  EXPECT_GT(warm, 0u);
  for (int iter = 0; iter < 10; ++iter) {
    const Workspace::Scope scope{ws};
    (void)ws.take<double>(300);
    (void)ws.take<float>(1000);
  }
  EXPECT_EQ(ws.grow_count(), warm);  // steady state: zero heap allocations
}

TEST(WorkspaceTest, ResetCoalescesIntoOneBlock) {
  Workspace ws;
  // Force several block acquisitions by exceeding the first block.
  for (int iter = 0; iter < 4; ++iter) (void)ws.take<double>(2048);
  const std::size_t cap = ws.capacity_bytes();
  ws.reset();
  EXPECT_EQ(ws.used_bytes(), 0u);
  EXPECT_GE(ws.capacity_bytes(), cap);
  // A request the size of everything previously taken now fits without
  // growing again.
  const std::size_t grows = ws.grow_count();
  (void)ws.take<double>(4 * 2048);
  EXPECT_EQ(ws.grow_count(), grows);
}

TEST(WorkspaceTest, ReleaseFreesEveryBlockAndRegrowsOnDemand) {
  Workspace ws;
  for (int iter = 0; iter < 4; ++iter) (void)ws.take<double>(2048);
  ASSERT_GT(ws.capacity_bytes(), 0u);
  ws.release();
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  EXPECT_EQ(ws.used_bytes(), 0u);
  const std::size_t grows = ws.grow_count();
  const std::span<double> again = ws.take<double>(16);
  ASSERT_EQ(again.size(), 16u);
  std::fill(again.begin(), again.end(), 1.0);
  EXPECT_EQ(ws.grow_count(), grows + 1);
  EXPECT_GT(ws.capacity_bytes(), 0u);
}

TEST(WorkspaceTest, ZeroCountTakeIsValid) {
  Workspace ws;
  const std::span<double> empty = ws.take<double>(0);
  EXPECT_TRUE(empty.empty());
}

TEST(WorkspaceTest, ThreadWorkspaceIsStablePerThread) {
  Workspace& a = thread_workspace();
  Workspace& b = thread_workspace();
  EXPECT_EQ(&a, &b);
}

}  // namespace
