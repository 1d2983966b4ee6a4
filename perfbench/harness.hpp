// Shared machinery of the end-to-end benchmark client: run options, sample
// statistics, the report every workload fills, result fingerprints, and the
// traced run's span log plus the observers it installs through the
// libraries' public hooks (ServerConfig::pipeline_observer and
// SpecializationServer::add_observer). Nothing here changes library code.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "jit/observer.hpp"
#include "server/observer.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace apps = jitise::apps;
namespace cad = jitise::cad;
namespace ir = jitise::ir;
namespace jit = jitise::jit;
namespace server = jitise::server;
namespace support = jitise::support;
namespace vm = jitise::vm;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Overrides the schedule size derived from `seconds` (self-test runs).
  std::size_t count = 0;
  /// Setup repetitions whose median is `setup_s` (the last one is kept).
  unsigned setups = 3;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_path;
};

/// Latency samples with the interpolated percentile the libraries use.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// What a workload hands back to main(): every number, plus the exact
/// counters the self-test compares and the correctness tally.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // rejected/failed/expired/cancelled/wrong
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, std::pair<double, std::string>> metrics;  // e2e
  std::map<std::string, double> layers;                           // traced
  std::map<std::string, double> per_app_ms;  // median latency per app
  std::map<std::string, std::uint64_t> exact;  // must repeat per seed
  std::uint64_t schedule_digest = 0;
  std::uint64_t result_digest = 0;
  /// VmHWM at the end of the measured phase (before result checking).
  double peak_rss_mb = 0.0;
  std::map<std::string, std::string> config;  // client/server shape

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why);
};

/// The parts of a specialization result the correctness gate compares:
/// selected candidate signatures, their hardware cycles, the predicted
/// speedup and the modeled CAD seconds spent on bitstream-cache misses.
struct Fingerprint {
  std::vector<std::uint64_t> signatures;
  std::vector<std::uint32_t> hw_cycles;
  double predicted_speedup = 0.0;
  double miss_cad_s = 0.0;

  bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] Fingerprint fingerprint(const jit::SpecializationResult& r);

/// Checks a resolved ticket: Done with a fingerprint equal to `expected`.
/// Returns the empty string on success, else a description of the failure.
[[nodiscard]] std::string check_outcome(const server::RequestOutcome& out,
                                        const Fingerprint& expected);

/// Wall time and dynamic IR instructions spent inside vm::Machine::run.
struct VmTally {
  Samples run_ms;
  double total_ms = 0.0;
  std::uint64_t instructions = 0;
  void add(double ms, std::uint64_t steps) {
    run_ms.add(ms);
    total_ms += ms;
    instructions += steps;
  }
  [[nodiscard]] double minstr_per_s() const {
    return total_ms > 0.0 ? static_cast<double>(instructions) / total_ms / 1e3
                          : 0.0;
  }
};

/// One prebuilt request payload: an app's module and its train profile.
struct Payload {
  std::string app;
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const vm::Profile> profile;
};

/// Builds `app` and profiles it on its train data set.
[[nodiscard]] Payload build_payload(const std::string& app, VmTally& vm);

/// The plain library path: a serial jit::specialize of each payload with a
/// private bitstream cache, no server, pool or shared memo tables. Payloads
/// are spread over `threads` threads.
[[nodiscard]] std::vector<Fingerprint> plain_references(
    const std::vector<Payload>& payloads, unsigned threads);

/// Runs fn(0..n-1) on `threads` threads (the caller's included), joins them
/// all, then rethrows the first failure.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// `passes` back-to-back seeded shuffles of 0..classes-1, so every run with
/// a given seed and size does the identical multiset of work. With
/// `fixed_first` the first pass keeps the canonical order, so one-time
/// costs (estimate-cache misses, allocator growth) fall on the same requests
/// whatever the seed.
[[nodiscard]] std::vector<std::size_t> shuffled_passes(
    std::size_t classes, std::size_t passes, support::Xoshiro256& rng,
    bool fixed_first);

/// FNV-1a over a sequence of integers (schedule and result digests).
template <typename Seq>
[[nodiscard]] std::uint64_t digest_of(const Seq& seq) {
  support::Fnv1a h;
  for (const auto& v : seq) h.update_value(static_cast<std::uint64_t>(v));
  return h.digest();
}

/// Peak resident set (VmHWM) of this process in MB, 0 when unavailable.
[[nodiscard]] double peak_rss_mb();

/// Median of a small sample (setup repetitions, per-repetition rates).
[[nodiscard]] double median_of(std::vector<double> xs);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written once at exit.

struct Span {
  const char* name = "";
  double begin_us = 0.0;  // since the log's origin
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = top level
  std::uint64_t request = 0;  // client-side request number, 0 = none
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Records a closed span; returns its id.
  std::uint64_t add(const char* name, Clock::time_point begin,
                    Clock::time_point end, std::uint64_t request,
                    std::uint64_t parent = 0);
  /// Opens a span whose end is filled in later by close().
  std::uint64_t open(const char* name, Clock::time_point begin,
                     std::uint64_t request, std::uint64_t parent = 0);
  void close(std::uint64_t id, Clock::time_point end);
  /// Writes Chrome trace-event JSON; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  static std::uint32_t thread_number();

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

/// Per-layer probe installed on the server in traced runs. Pipeline phase
/// events and ServerObserver::on_started/on_finished all fire on the
/// session's coordinator thread, so phase spans are attributed to a request
/// by thread. CAD stage events come from pool workers: they are attributed
/// to a request only while exactly one is in flight, and otherwise summed.
class LayerProbe final : public jit::PipelineObserver,
                         public server::ServerObserver {
 public:
  explicit LayerProbe(SpanLog* spans) : spans_(spans) {}

  /// Names the client request a tenant's next session belongs to. Every
  /// workload keeps at most one request per tenant outstanding, so the
  /// tenant passed to on_started identifies it.
  void bind(const std::string& tenant, std::uint64_t request,
            std::uint64_t request_span);
  /// Starts or stops recording (setup traffic is not recorded).
  void set_recording(bool on);

  // jit::PipelineObserver
  void on_phase_enter(jit::PipelinePhase phase) override;
  void on_phase_exit(jit::PipelinePhase phase, double real_ms) override;
  void on_candidate_dispatched(std::uint64_t signature,
                               bool speculative) override;
  void on_candidate_implemented(const std::string& name,
                                std::uint64_t signature,
                                const cad::ImplementationResult& hw) override;
  void on_candidate_failed(const std::string& name,
                           std::uint64_t signature) override;

  // server::ServerObserver
  void on_admitted(std::uint64_t id, const std::string& tenant,
                   std::size_t queue_depth) override;
  void on_started(std::uint64_t id, const std::string& tenant) override;
  void on_finished(const server::RequestOutcome& outcome) override;

  /// Adds the jit.* / cad.* layer metrics to `out`.
  void report(std::map<std::string, double>& out) const;

 private:
  struct Running {
    std::uint64_t request = 0;
    std::uint64_t request_span = 0;
    std::uint64_t phase_span[3] = {0, 0, 0};
    std::set<std::uint64_t> speculative;
  };

  SpanLog* spans_;
  mutable std::mutex mu_;
  bool recording_ = false;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      bound_;  // tenant -> (request, request span)
  std::size_t queue_high_water_ = 0;
  std::map<std::thread::id, Running> running_;  // by coordinator thread
  std::unordered_map<std::uint64_t, double> cad_ms_;  // signature -> real ms
  Samples phase_ms_[3];
  double map_ms_ = 0.0, par_ms_ = 0.0, other_ms_ = 0.0;
  double hpwl_ = 0.0;
  std::uint64_t wirelength_ = 0;
  std::uint64_t cad_runs_ = 0, cad_failed_ = 0;
  std::uint64_t discarded_ = 0;
  double discarded_ms_ = 0.0;
};

/// The latency and throughput end-to-end metrics of a measured phase:
/// `class_medians` holds each app's (drift: kernel's) median latency.
void add_request_metrics(Report& rep, const std::vector<double>& setup_s,
                         const Samples& latency,
                         const std::vector<double>& class_medians,
                         double wall_s, double vm_minstr_per_s);

/// Records the server's pool width and session count in the report.
void record_server_shape(Report& rep, const server::ServerConfig& cfg);

/// Server counters over the measured phase (snapshot deltas).
void add_server_layers(const server::ServerStats& before,
                       const server::ServerStats& after,
                       std::map<std::string, double>& out);

/// Per-request client timings every workload records in traced runs.
struct ClientLayers {
  Samples submit_us;
  Samples queue_ms;
  Samples run_ms;
  void add(const server::RequestOutcome& out, double submit_us_value);
  void merge_into(ClientLayers& out) const {
    out.submit_us.append(submit_us);
    out.queue_ms.append(queue_ms);
    out.run_ms.append(run_ms);
  }
  void report(std::map<std::string, double>& out) const;
};

/// Traced runs: adds the probe's, the server's, the client's and the VM's
/// per-layer metrics (the VM share is taken of `vm_wall_s`), then writes
/// the spans.
void finish_trace(Report& rep, const Options& opt, const LayerProbe& probe,
                  const SpanLog& spans, const server::ServerStats& before,
                  const server::ServerStats& after, const ClientLayers& client,
                  const VmTally& vm, double vm_wall_s);

// ---------------------------------------------------------------------------
// Workloads (one translation unit each).

Report run_cold_specialize(const Options& opt);
Report run_warm_serve(const Options& opt);
Report run_drift_vm(const Options& opt);

}  // namespace perfbench
