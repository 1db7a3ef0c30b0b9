#include "src/apps/ycsb.h"

#include <cmath>

#include "src/base/logging.h"

namespace apps {
namespace {

// Bytes in every row's value.
constexpr size_t kYcsbValueBytes = 100;

}  // namespace

YcsbConfig YcsbA() {
  YcsbConfig c;
  c.read_fraction = 0.5;
  return c;
}

YcsbConfig YcsbB() {
  YcsbConfig c;
  c.read_fraction = 0.95;
  return c;
}

YcsbConfig YcsbC() {
  YcsbConfig c;
  c.read_fraction = 1.0;
  return c;
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta, sb::Rng* rng)
    : n_(n), theta_(theta), rng_(rng) {
  SB_CHECK(n > 0);
  zetan_ = Zeta(n, theta);
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

uint64_t ZipfianGenerator::Next() {
  const double u = rng_->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double v =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  const uint64_t k = static_cast<uint64_t>(v);
  return k >= n_ ? n_ - 1 : k;
}

YcsbWorkload::YcsbWorkload(const YcsbConfig& config)
    : config_(config),
      rng_(config.seed),
      zipf_(config.record_count, config.zipfian_theta, &rng_) {}

YcsbOp YcsbWorkload::NextOp() {
  YcsbOp op;
  op.key = zipf_.Next();
  op.type = rng_.NextDouble() < config_.read_fraction ? YcsbOpType::kRead : YcsbOpType::kUpdate;
  return op;
}

std::vector<uint8_t> YcsbWorkload::ValueFor(uint64_t key) const {
  std::vector<uint8_t> value(kYcsbValueBytes);
  sb::Rng value_rng(key * 0x9e3779b97f4a7c15ULL + config_.seed);
  for (auto& byte : value) {
    byte = static_cast<uint8_t>(value_rng.Next());
  }
  return value;
}

}  // namespace apps
