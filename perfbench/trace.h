// Spans for the traced run.  The harness records one span around each call
// it makes into a layer (and, for work that cannot be timed in place, around
// a replay of the same input on a shadow copy of that layer).  Spans stay in
// memory while the run measures and are aggregated and written out once it
// ends.  Spans of one operation share its id.
#ifndef NERPA_PERFBENCH_TRACE_H_
#define NERPA_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace nerpa::perfbench {

enum Layer : uint8_t {
  kOp,             // one workload operation (transaction or packet)
  kController,     // Transact start until the controller's monitor returned
  kOvsdbTransact,  // shadow replay of the transaction (no monitors)
  kDlogCommit,     // shadow engine Insert/Delete/Commit of the same rows
  kP4Write,        // one RuntimeClient Write/SetMulticastGroup call
  kHaWal,          // monitors done until the WAL commit hook returned
  kP4Process,      // Switch::ProcessPacket
  kNerpaSync,      // Controller::SyncDataPlaneNotifications
  kLayerCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer name = kOp;
  Layer parent = kOp;  // kOp spans are roots; parent is then themselves
  int16_t device = -1;  // device index for kP4Write, else -1
};

/// Time per layer of one operation, summed over its spans (µs).
struct OpTimes {
  uint32_t op = 0;
  std::array<double, kLayerCount> us{};
  /// Write time summed over devices, and on the busiest device.
  double p4_busy_us = 0;
  double p4_critical_us = 0;
  /// Individual write call durations (µs).
  std::vector<double> writes_us;
};

class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  size_t size() const { return spans_.size(); }

  /// Calls `fn` once per operation with its spans summed.  The spans of
  /// one operation are contiguous: the harness adds them all before the
  /// next operation starts.
  void ForEachOp(const std::function<void(const OpTimes&)>& fn) const;

  /// Writes spans as TSV (op, name, parent, device, start_ns, end_ns),
  /// whole operations only, stopping after the one that reaches
  /// `max_spans`.
  Status WriteTsv(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace nerpa::perfbench

#endif  // NERPA_PERFBENCH_TRACE_H_
