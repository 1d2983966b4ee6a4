// jitise_perfbench — runs one benchmark workload against the unmodified
// libraries and prints one JSON object on stdout (perfbench/run.py turns it
// into the benchmark's result line).
//
//   jitise_perfbench --workload cold_specialize|warm_serve|drift_vm
//                    --seed N --seconds S [--count N] [--setups N]
//                    [--trace] [--spans PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void usage() {
  std::fprintf(stderr,
               "usage: jitise_perfbench --workload NAME --seed N --seconds S\n"
               "                        [--count N] [--setups N] [--trace]\n"
               "                        [--spans PATH]\n"
               "  NAME: cold_specialize | warm_serve | drift_vm\n"
               "  --count N   schedule size override (cold passes / warm\n"
               "              requests per tenant / drift rotation cycles)\n"
               "              instead of the one --seconds implies\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (!f) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() && (model.back() == '\n' || model.back() == ' '))
          model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], v)) {
      opt.seed = v;
      ++i;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        usage();
        return 2;
      }
    } else if (arg == "--count" && has_value && parse_u64(argv[i + 1], v)) {
      opt.count = v;
      ++i;
    } else if (arg == "--setups" && has_value && parse_u64(argv[i + 1], v) &&
               v > 0) {
      opt.setups = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "jitise_perfbench: refusing to measure an unoptimised build "
                 "(build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::Report rep;
  try {
    if (opt.workload == "cold_specialize") {
      rep = perfbench::run_cold_specialize(opt);
    } else if (opt.workload == "warm_serve") {
      rep = perfbench::run_warm_serve(opt);
    } else if (opt.workload == "drift_vm") {
      rep = perfbench::run_drift_vm(opt);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jitise_perfbench: %s\n", e.what());
    return 1;
  }
  rep.metric("peak_rss_mb", rep.peak_rss_mb, "MB");
  rep.metric("failed_ratio",
             rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted)
                               : 1.0,
             "fraction");

  std::string out = "{\"workload\":" + json_string(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"provenance\":{\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + json_string(cpu_model());
  out += ",\"compiler\":" + json_string(__VERSION__);
  out += ",\"setups\":" + std::to_string(opt.setups);
  for (const auto& [k, v] : rep.config) out += "," + json_string(k) + ":" + v;
  out += "},\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i)
    out += (i ? "," : "") + json_string(rep.errors[i]);
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    out += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
           json_number(m.first) + ",\"unit\":" + json_string(m.second) + "}";
    first = false;
  }
  out += "},\"layers\":{";
  first = true;
  for (const auto& [name, v] : rep.layers) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_number(v);
    first = false;
  }
  out += "},\"per_app_ms\":{";
  first = true;
  for (const auto& [name, v] : rep.per_app_ms) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_number(v);
    first = false;
  }
  out += "},\"exact\":{";
  first = true;
  for (const auto& [name, v] : rep.exact) {
    out += (first ? "" : ",") + json_string(name) + ":" + std::to_string(v);
    first = false;
  }
  out += "},\"schedule_digest\":" + hex(rep.schedule_digest);
  out += ",\"result_digest\":" + hex(rep.result_digest) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
