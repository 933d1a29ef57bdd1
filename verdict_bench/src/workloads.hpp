#pragma once
// The four closed-loop workloads. Each one materializes its whole op
// schedule at set-up from the seed (a fixed number of passes, each a fixed
// multiset of ops in a seeded order), so every run of one seed times the
// same ops and a percentile always ranks the same multiset.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace vb {

/// What the timed passes accumulate.
struct RunState {
  std::vector<double> op_ms;         ///< untraced per-op wall times
  std::vector<double> traced_op_ms;  ///< the same ops, traced (trace mode)
  std::vector<double> pass_seconds;  ///< wall time of each untraced pass
  std::vector<OpOutcome> outcomes;  ///< per-client buffer (serve_mix)
  Ledger ledger;         ///< judged outcomes of the untraced executions
  Ledger traced_ledger;  ///< the traced executions (trace mode only)
  /// Per-layer counters and samples gathered along the way (trace mode
  /// reports them; names as in BENCHMARK.json's per_layer list).
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Generates the corpus of every pass, round-trips it through the
  /// library's writers and readers, starts any service and preloads it,
  /// then runs one untimed warm-up pass.
  virtual void setup() = 0;
  virtual int passes() const = 0;
  virtual std::size_t ops_in_pass(int pass) const = 0;
  /// Runs every op of `pass` once. `traced` selects the instrumented
  /// execution (spans around each public call); its timings go to the
  /// traced figures and its outcomes to the traced ledger.
  virtual void run_pass(int pass, bool traced, RunState& state) = 0;
  /// Stops services. Not part of any timed interval.
  virtual void teardown() {}
};

struct WorkloadConfig {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;
  std::string scratch_dir;  ///< where the serve socket may live
};

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config);

}  // namespace vb
