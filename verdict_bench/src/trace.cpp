#include "trace.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace vb {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_us(std::vector<std::pair<double, double>> intervals, double lo,
                  double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::vector<double> self_us(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                 s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_us - spans[i].start_us;
    self[i] = duration -
              covered_us(std::move(children[i]), spans[i].start_us, spans[i].end_us);
  }
  return self;
}

}  // namespace

double Tracer::since_origin_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::tid_locked() {
  const auto [it, inserted] = tids_.emplace(std::this_thread::get_id(),
                                            static_cast<int>(tids_.size()));
  return it->second;
}

int Tracer::begin(const std::string& name, int op, int parent) {
  if (!enabled_) return -1;
  const double now = since_origin_us(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, now, parent, op, tid_locked()});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  const double now = since_origin_us(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = now;
}

int Tracer::record(const std::string& name, int op, int parent,
                   Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, since_origin_us(start), since_origin_us(end), parent,
                    op, tid_locked()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  const std::vector<SpanRecord> spans = this->spans();
  const std::vector<double> self = self_us(spans);
  std::map<std::string, SelfTime> out;
  std::map<std::string, std::set<int>> ops;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    t.total_ms += self[i] / 1000.0;
    ++t.spans;
    ops[spans[i].name].insert(spans[i].op);
  }
  for (auto& [name, t] : out) t.ops = ops[name].size();
  return out;
}

double Tracer::unaccounted_share(const std::string& root_name) const {
  const std::vector<SpanRecord> spans = this->spans();
  const std::vector<double> self = self_us(spans);
  double uncovered = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || spans[i].name != root_name) continue;
    uncovered += self[i];
    total += spans[i].end_us - spans[i].start_us;
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> spans = this->spans();
  std::ostringstream os;
  os.precision(12);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

}  // namespace vb
