#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/units.h"

namespace bench {

World MakeWorld(mk::KernelProfile profile, bool rootkernel, bool skybridge, int cores) {
  World world;
  hw::MachineConfig mc;
  mc.num_cores = cores;
  mc.ram_bytes = 4 * sb::kGiB;
  world.machine = std::make_unique<hw::Machine>(mc);
  mk::KernelOptions options;
  options.boot_rootkernel = rootkernel;
  world.kernel = std::make_unique<mk::Kernel>(*world.machine, std::move(profile), options);
  SB_CHECK(world.kernel->Boot().ok());
  if (skybridge) {
    SB_CHECK(rootkernel);
    world.sky = std::make_unique<skybridge::SkyBridge>(*world.kernel);
  }
  return world;
}

KvWorld MakeKvWorld(apps::KvWiring wiring, mk::KernelProfile profile) {
  KvWorld kv;
  const bool needs_sky = wiring == apps::KvWiring::kSkyBridge;
  kv.world = MakeWorld(std::move(profile), needs_sky, needs_sky);
  kv.pipeline =
      std::make_unique<apps::KvPipeline>(*kv.world.kernel, kv.world.sky.get(), wiring);
  SB_CHECK(kv.pipeline->Setup().ok());
  return kv;
}

uint64_t RunKvOps(apps::KvPipeline& pipeline, int ops, size_t kv_len, uint64_t seed,
                  bool warmup) {
  sb::Rng rng(seed);
  const std::string value(kv_len, 'v');
  auto key_for = [&](int i) {
    std::string key = "key-" + std::to_string(i % 128);
    key.resize(kv_len, 'k');
    return key;
  };
  if (warmup) {
    for (int i = 0; i < 64; ++i) {
      SB_CHECK(pipeline.Insert(key_for(i), value).ok());
    }
  }
  hw::Core& core = pipeline.client_core();
  const uint64_t start = core.cycles();
  for (int i = 0; i < ops; ++i) {
    if (rng.OneIn(2)) {
      SB_CHECK(pipeline.Insert(key_for(static_cast<int>(rng.Below(128))), value).ok());
    } else {
      (void)pipeline.Query(key_for(static_cast<int>(rng.Below(128))));
    }
  }
  return (core.cycles() - start) / static_cast<uint64_t>(ops);
}

double OpsPerSecond(double cycles_per_op) {
  return hw::DefaultCosts().cycles_per_second / cycles_per_op;
}

std::string Humanize(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

JsonReporter::JsonReporter(std::string bench_name, int argc, char** argv)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      path_ = argv[i + 1];
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      // Arm fault points for this bench run, e.g.
      //   --faults=seed=42,skybridge.handler.crash:p=0.01
      const sb::Status armed = sb::fault::ArmFromSpec(argv[i] + 9);
      SB_CHECK(armed.ok()) << "bad --faults spec: " << armed.ToString();
    } else if (i + 1 < argc && std::strcmp(argv[i], "--faults") == 0) {
      const sb::Status armed = sb::fault::ArmFromSpec(argv[i + 1]);
      SB_CHECK(armed.ok()) << "bad --faults spec: " << armed.ToString();
    }
  }
}

JsonReporter::~JsonReporter() { Write(); }

void JsonReporter::Add(const std::string& name, double value) {
  metrics_.emplace_back(name, sb::telemetry::JsonNumber(value));
}

void JsonReporter::Add(const std::string& name, uint64_t value) {
  metrics_.emplace_back(name, std::to_string(value));
}

void JsonReporter::Stamp(const std::string& key, const std::string& json_literal) {
  stamps_.emplace_back(key, json_literal);
}

void JsonReporter::AddRegistry(const sb::telemetry::Registry& registry) {
  registry_json_ = registry.SnapshotJson();
}

void JsonReporter::AddRegistryJson(std::string registry_json) {
  registry_json_ = std::move(registry_json);
}

void JsonReporter::Write() {
  if (path_.empty() || written_) {
    return;
  }
  written_ = true;
  std::ofstream out(path_);
  if (!out) {
    SB_LOG(kError) << "cannot write bench JSON to " << path_;
    return;
  }
  out << "{\"bench\":\"" << bench_name_ << "\",";
  for (const auto& [key, literal] : stamps_) {
    out << "\"" << key << "\":" << literal << ",";
  }
  out << "\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "\"" << metrics_[i].first << "\":" << metrics_[i].second;
  }
  out << "}";
  if (!registry_json_.empty()) {
    out << ",\"registry\":" << registry_json_;
  }
  out << "}\n";
}

}  // namespace bench
