#pragma once
/// \file harness.hpp
/// Measurement plumbing of the optiplet benchmark: host-time spans recorded
/// from outside the library, output checks, order statistics, the digest of
/// the deterministic serving metrics, and the JSON writers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serve/serving_report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample; 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

inline double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

inline double sum_of(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n), clamped to [1, n]; 0 when empty. Computed here rather than
/// through the library, so a wrong library quantile cannot pass the check
/// that compares against it.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Spans around calls into the library's layers, kept in memory and written
/// when the run ends. A disabled tracer records nothing, so the untimed
/// bookkeeping of a Scope is one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) {
        index_ = static_cast<int>(tracer_.spans_.size());
        tracer_.spans_.push_back(
            {name, tracer_.open_, seconds_since(tracer_.t0_), 0.0});
        tracer_.open_ = index_;
      }
    }
    ~Scope() {
      if (index_ >= 0) {
        Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
        span.end_s = seconds_since(tracer_.t0_);
        tracer_.open_ = span.parent;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Durations of every closed span of one name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back(span.end_s - span.start_s);
      }
    }
    return out;
  }

  struct SelfTime {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time direct children cover
  };

  /// Per span name: call count, total time, and self time. Children of one
  /// span never overlap (spans are opened and closed on one thread), so the
  /// covered part is the sum of the children's durations.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<std::size_t>(span.parent)] +=
            span.end_s - span.start_s;
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double duration = spans_[i].end_s - spans_[i].start_s;
      SelfTime& entry = out[spans_[i].name];
      entry.count += 1;
      entry.total_s += duration;
      entry.self_s += duration - child_s[i];
    }
    return out;
  }

  /// Chrome trace-event JSON through the library's own trace writer, one
  /// track, host seconds as the clock; each span carries its id and parent.
  [[nodiscard]] bool write_json(const std::string& path) const {
    optiplet::obs::TraceBuffer buffer;
    buffer.set_process_name(0, "perfbench");
    const std::uint64_t tid = buffer.track(0, "host");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::vector<optiplet::obs::TraceArg> args = {
          optiplet::obs::arg("id", static_cast<std::uint64_t>(i))};
      if (span.parent >= 0) {
        args.push_back(optiplet::obs::arg(
            "parent", static_cast<std::uint64_t>(span.parent)));
      }
      buffer.add_complete(span.name, "perfbench", span.start_s, span.end_s, 0,
                          tid, std::move(args));
    }
    return buffer.write_json(path);
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Output checks. error_rate = failed / run, where a library call that
/// threw counts as one failed check.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      fail(what);
    }
  }
  void threw(const std::string& what) {
    ++run_;
    fail("threw: " + what);
  }

  [[nodiscard]] std::uint64_t run() const { return run_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double error_rate() const {
    return run_ == 0 ? 0.0
                     : static_cast<double>(failed_) / static_cast<double>(run_);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 32) {
      failures_.push_back(what);
    }
  }

  std::uint64_t run_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// FNV-1a over the bit patterns of every ServingMetrics field. Every field
/// is a pure function of the simulated schedule, so two runs of one input
/// must agree bit for bit.
///
/// With `counters` false the digest leaves out the simulator's own work
/// counters (oracle cache hits and misses, events, event-queue peak): those
/// are what a speed-only change sets out to reduce, while every other field
/// is the simulated outcome it must keep. That narrower digest is the
/// invariant of a speed-only change.
inline std::uint64_t digest(const optiplet::serve::ServingMetrics& m,
                            bool counters,
                            std::uint64_t seed = 1469598103934665603ULL) {
  std::uint64_t h = seed;
  const auto mix = [&h](const auto value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (const unsigned char b : bytes) {
      h = (h ^ b) * 1099511628211ULL;
    }
  };
  mix(m.offered), mix(m.completed), mix(m.shed), mix(m.makespan_s);
  mix(m.throughput_rps), mix(m.goodput_rps), mix(m.mean_latency_s);
  mix(m.p50_s), mix(m.p95_s), mix(m.p99_s), mix(m.max_latency_s);
  mix(m.sla_violation_rate), mix(m.mean_batch), mix(m.utilization);
  mix(m.energy_j), mix(m.energy_per_request_j), mix(m.resipi_conflicts);
  mix(m.resipi_wait_s), mix(m.shared_handoffs), mix(m.handoff_resipi_s);
  mix(m.p99_hi_s), mix(m.p99_lo_s), mix(m.first_arrival_abs_s);
  mix(m.last_completion_abs_s), mix(m.ttft_p99_s), mix(m.decode_tps);
  mix(m.kv_peak_bytes), mix(m.abandoned), mix(m.retries);
  mix(m.repartitions), mix(m.repartition_resipi_s), mix(m.gate_events);
  mix(m.gated_idle_s), mix(m.faults_injected), mix(m.carbon_g);
  if (counters) {
    mix(m.service_cache_hits), mix(m.service_cache_misses);
    mix(m.sim_events), mix(m.sim_event_queue_peak);
  }
  return h;
}

/// One reported metric: value, unit, and the number of samples behind it
/// (0 marks a layer the workload never calls).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};
using MetricMap = std::map<std::string, Metric>;

/// Full-precision JSON number: runs are compared digit for digit.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// `{"name": {"value": v, "unit": "u"[, "n": n]}, ...}`.
inline std::string json_metrics(const MetricMap& metrics, bool with_n) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (with_n) {
      out += ", \"n\": " + std::to_string(metric.n);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace perfbench
