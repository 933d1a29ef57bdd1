#pragma once
// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around each call into a layer's public API (the
// library itself is not instrumented): name, start, end, parent span and
// the op they belong to. Nothing is written until the run ends, when the
// spans go out as Chrome trace-event JSON and are folded into self times.
//
// A disabled tracer records nothing and every Span is a no-op, so the
// untraced run pays one branch per would-be span.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vb {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< relative to the tracer's origin
  double end_us = 0.0;
  int parent = -1;  ///< index into spans(), -1 for a root
  int op = -1;      ///< schedule index of the op the span belongs to
  int tid = 0;      ///< small per-thread index for the trace viewer
};

/// Per-name aggregate of span self times (duration minus the part of the
/// span's interval that its children cover).
struct SelfTime {
  double total_ms = 0.0;
  std::size_t spans = 0;
  std::size_t ops = 0;  ///< distinct ops with at least one such span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index, or -1 when disabled.
  int begin(const std::string& name, int op, int parent = -1);
  void end(int index);
  /// Records an already-finished interval (used for intervals a layer
  /// reports about itself, such as a serve job's queue and run times).
  int record(const std::string& name, int op, int parent, Clock::time_point start,
             Clock::time_point end);

  /// Snapshot of every recorded span (thread-safe copy).
  std::vector<SpanRecord> spans() const;

  /// Self time per span name over all spans.
  std::map<std::string, SelfTime> self_times() const;
  /// Share of the roots named `root_name` not covered by their children:
  /// sum(root self time) / sum(root duration); 0 without such roots.
  double unaccounted_share(const std::string& root_name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  int tid_locked();
  double since_origin_us(Clock::time_point t) const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_ and tids_
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, int op, int parent = -1)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, op, parent) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace vb
