// Tests for the tensor type (nn/tensor.h).
#include "nn/tensor.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace {

using emoleak::nn::shape_size;
using emoleak::nn::Tensor;

TEST(TensorTest, ShapeSizeProduct) {
  EXPECT_EQ(shape_size({2, 3, 4}), 24u);
  EXPECT_EQ(shape_size({7}), 7u);
  EXPECT_EQ(shape_size({}), 0u);
}

TEST(TensorTest, ConstructZeroInitialized) {
  const Tensor t{{2, 3}};
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  const Tensor t{{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f}};
  EXPECT_EQ(t.at2(1, 0), 3.0f);
  EXPECT_EQ(t.at2(0, 1), 2.0f);
}

TEST(TensorTest, DataSizeMismatchThrows) {
  EXPECT_THROW((Tensor{{2, 2}, {1.0f}}), emoleak::util::DataError);
}

TEST(TensorTest, At4IndexingIsNhwc) {
  Tensor t{{2, 3, 4, 5}};
  t.at4(1, 2, 3, 4) = 42.0f;
  // Linear index: ((1*3 + 2)*4 + 3)*5 + 4 = 119.
  EXPECT_EQ(t[119], 42.0f);
}

TEST(TensorTest, DimAccessorsAndBounds) {
  const Tensor t{{4, 5}};
  EXPECT_EQ(t.dim(0), 4u);
  EXPECT_EQ(t.dim(1), 5u);
  EXPECT_THROW((void)t.dim(2), emoleak::util::DataError);
}

TEST(TensorTest, FillSetsAll) {
  Tensor t{{3, 3}};
  t.fill(2.5f);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE((Tensor{{2, 3}}.same_shape(Tensor{{2, 3}})));
  EXPECT_FALSE((Tensor{{2, 3}}.same_shape(Tensor{{3, 2}})));
}

}  // namespace
