#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/loss.h"
#include "util/rng.h"

namespace deepsz::nn {
namespace {

Tensor random_tensor(std::vector<std::int64_t> shape, util::Pcg32& rng,
                     double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return t;
}

/// Finite-difference gradient check: perturbs every input element and
/// compares d(sum of outputs * weights)/dx against layer.backward.
void check_input_gradient(Layer& layer, const Tensor& x, double tol = 2e-2) {
  util::Pcg32 rng(99);
  Tensor y = layer.forward(x, /*train=*/true);
  // Random linear functional L = sum_i w_i y_i so dL/dy = w.
  Tensor dy(y.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dy[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  Tensor dx = layer.backward(dy);
  ASSERT_EQ(dx.shape(), x.shape());

  const float eps = 1e-3f;
  int checked = 0;
  for (std::int64_t i = 0; i < x.numel() && checked < 40; i += 1 + x.numel() / 37, ++checked) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    Tensor yp = layer.forward(xp, false);
    Tensor ym = layer.forward(xm, false);
    double lp = 0, lm = 0;
    for (std::int64_t j = 0; j < yp.numel(); ++j) {
      lp += yp[j] * dy[j];
      lm += ym[j] * dy[j];
    }
    double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "input element " << i;
  }
}

/// Same, for the layer's parameters.
void check_param_gradient(Layer& layer, const Tensor& x, double tol = 2e-2) {
  util::Pcg32 rng(123);
  Tensor y = layer.forward(x, true);
  Tensor dy(y.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dy[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  layer.backward(dy);
  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());

  const float eps = 1e-3f;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& w = *params[pi];
    Tensor& g = *grads[pi];
    int checked = 0;
    for (std::int64_t i = 0; i < w.numel() && checked < 25;
         i += 1 + w.numel() / 23, ++checked) {
      float orig = w[i];
      w[i] = orig + eps;
      Tensor yp = layer.forward(x, false);
      w[i] = orig - eps;
      Tensor ym = layer.forward(x, false);
      w[i] = orig;
      double lp = 0, lm = 0;
      for (std::int64_t j = 0; j < yp.numel(); ++j) {
        lp += yp[j] * dy[j];
        lm += ym[j] * dy[j];
      }
      double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(g[i], numeric, tol * std::max(1.0, std::abs(numeric)))
          << "param " << pi << " element " << i;
    }
  }
}

TEST(DenseLayer, ForwardMatchesManual) {
  Dense d(3, 2);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5].
  float wvals[] = {1, 2, 3, 4, 5, 6};
  std::copy(wvals, wvals + 6, d.weight().data());
  d.bias()[0] = 0.5f;
  d.bias()[1] = -0.5f;
  auto x = Tensor::from({1, 3}, {1, 1, 1});
  auto y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 6.5f);
  EXPECT_FLOAT_EQ(y[1], 14.5f);
}

TEST(DenseLayer, GradientsMatchFiniteDifferences) {
  util::Pcg32 rng(1);
  Dense d(7, 5);
  for (std::int64_t i = 0; i < d.weight().numel(); ++i) {
    d.weight()[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  auto x = random_tensor({4, 7}, rng);
  check_input_gradient(d, x);
  check_param_gradient(d, x);
}

TEST(DenseLayer, MaskZeroesWeightsAndFreezesGradients) {
  util::Pcg32 rng(2);
  Dense d(4, 3);
  for (std::int64_t i = 0; i < d.weight().numel(); ++i) {
    d.weight()[i] = 1.0f;
  }
  std::vector<float> mask(12, 0.0f);
  mask[0] = mask[5] = mask[11] = 1.0f;
  d.set_mask(mask);
  // Masked-out weights are zeroed.
  EXPECT_FLOAT_EQ(d.weight()[1], 0.0f);
  EXPECT_FLOAT_EQ(d.weight()[0], 1.0f);
  // Gradients of masked-out weights are zero.
  auto x = random_tensor({2, 4}, rng);
  d.forward(x, true);
  Tensor dy = random_tensor({2, 3}, rng);
  d.backward(dy);
  EXPECT_FLOAT_EQ((*d.grads()[0])[1], 0.0f);
  EXPECT_FLOAT_EQ((*d.grads()[0])[2], 0.0f);
}

TEST(DenseLayer, BadInputShapeThrows) {
  Dense d(4, 2);
  Tensor x({2, 5});
  EXPECT_THROW(d.forward(x, false), std::invalid_argument);
}

TEST(Conv2DLayer, ForwardKnownValues) {
  // 1x1 kernel with weight 2, bias 1: y = 2x + 1.
  Conv2D c(1, 1, 1);
  c.weight()[0] = 2.0f;
  (*c.params()[1])[0] = 1.0f;
  auto x = Tensor::from({1, 1, 2, 2}, {1, 2, 3, 4});
  auto y = c.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
}

TEST(Conv2DLayer, GradientsMatchFiniteDifferences) {
  util::Pcg32 rng(3);
  Conv2D c(2, 3, 3, 1, 1);
  for (std::int64_t i = 0; i < c.weight().numel(); ++i) {
    c.weight()[i] = static_cast<float>(rng.uniform(-0.3, 0.3));
  }
  auto x = random_tensor({2, 2, 5, 5}, rng);
  check_input_gradient(c, x);
  check_param_gradient(c, x);
}

TEST(Conv2DLayer, StrideAndPaddingShapes) {
  Conv2D c(1, 4, 3, 2, 1);
  Tensor x({2, 1, 8, 8});
  auto y = c.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 4, 4, 4}));
}

TEST(MaxPoolLayer, ForwardPicksMaxima) {
  MaxPool2D p(2, 2);
  auto x = Tensor::from({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 1, 7});
  auto y = p.forward(x, false);
  EXPECT_EQ(y.numel(), 2);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax) {
  MaxPool2D p(2, 2);
  auto x = Tensor::from({1, 1, 2, 2}, {1, 9, 2, 3});
  p.forward(x, true);
  auto dy = Tensor::from({1, 1, 1, 1}, {5});
  auto dx = p.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

TEST(ReLULayer, ForwardAndBackward) {
  ReLU r;
  auto x = Tensor::from({1, 4}, {-1, 2, 0, 3});
  auto y = r.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  auto dy = Tensor::from({1, 4}, {10, 10, 10, 10});
  auto dx = r.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 10.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 10.0f);
}

TEST(FlattenLayer, RoundTripShapes) {
  Flatten f;
  Tensor x({3, 2, 4, 4});
  auto y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{3, 32}));
  auto dx = f.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(DropoutLayer, EvalIsIdentityTrainScales) {
  util::Pcg32 rng(5);
  Dropout drop(0.5);
  auto x = random_tensor({16, 64}, rng);
  auto y_eval = drop.forward(x, false);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_FLOAT_EQ(y_eval[i], x[i]);
  }
  auto y_train = drop.forward(x, true);
  // Survivors are scaled by 2, the rest are zero.
  int zeros = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (y_train[i] == 0.0f) {
      ++zeros;
    } else {
      ASSERT_NEAR(y_train[i], 2.0f * x[i], 1e-5);
    }
  }
  double frac = static_cast<double>(zeros) / x.numel();
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(LrnLayer, ForwardMatchesFormula) {
  LRN lrn(3, 0.5, 0.75, 2.0);
  auto x = Tensor::from({1, 3, 1, 1}, {1, 2, 3});
  auto y = lrn.forward(x, false);
  // Channel 1 window = {1, 2, 3}: den = 2 + 0.5/3 * 14.
  double den = 2.0 + 0.5 / 3.0 * 14.0;
  EXPECT_NEAR(y[1], 2.0 * std::pow(den, -0.75), 1e-5);
}

TEST(LrnLayer, GradientsMatchFiniteDifferences) {
  util::Pcg32 rng(7);
  LRN lrn(5, 1e-2, 0.75, 1.0);
  auto x = random_tensor({2, 6, 3, 3}, rng);
  check_input_gradient(lrn, x, 3e-2);
}

}  // namespace
}  // namespace deepsz::nn
