// YCSB workload generator (Zipfian request distribution, workloads A/B/C).

#ifndef SRC_APPS_YCSB_H_
#define SRC_APPS_YCSB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"

namespace apps {

enum class YcsbOpType : uint8_t { kRead, kUpdate, kInsert };

struct YcsbOp {
  YcsbOpType type;
  uint64_t key;
};

struct YcsbConfig {
  uint64_t record_count = 10000;  // Paper: "a table with 10,000 records".
  double read_fraction = 0.5;     // A: 0.5, B: 0.95, C: 1.0.
  double zipfian_theta = 0.99;
  uint64_t seed = 42;
};

YcsbConfig YcsbA();
YcsbConfig YcsbB();
YcsbConfig YcsbC();

// Gray et al.'s Zipfian generator over [0, n).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta, sb::Rng* rng);
  uint64_t Next();

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  sb::Rng* rng_;
};

class YcsbWorkload {
 public:
  explicit YcsbWorkload(const YcsbConfig& config);

  const YcsbConfig& config() const { return config_; }
  YcsbOp NextOp();
  // Deterministic value payload for a key.
  std::vector<uint8_t> ValueFor(uint64_t key) const;

 private:
  YcsbConfig config_;
  sb::Rng rng_;
  ZipfianGenerator zipf_;
};

}  // namespace apps

#endif  // SRC_APPS_YCSB_H_
