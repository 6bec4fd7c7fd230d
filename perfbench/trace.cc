#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

namespace nerpa::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kOp: return "op";
    case kController: return "nerpa.controller";
    case kOvsdbTransact: return "ovsdb.transact";
    case kDlogCommit: return "dlog.commit";
    case kP4Write: return "p4.write";
    case kHaWal: return "ha.wal_append";
    case kP4Process: return "p4.process";
    case kNerpaSync: return "nerpa.sync";
    case kLayerCount: break;
  }
  return "?";
}

void SpanLog::ForEachOp(const std::function<void(const OpTimes&)>& fn) const {
  OpTimes times;
  std::map<int, double> device_us;  // write time per device
  auto flush = [&] {
    for (const auto& [device, us] : device_us) {
      times.p4_busy_us += us;
      times.p4_critical_us = std::max(times.p4_critical_us, us);
    }
    fn(times);
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i == 0 || span.op != times.op) {
      if (i > 0) flush();
      times = OpTimes{};
      times.op = span.op;
      device_us.clear();
    }
    double us = static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    times.us[span.name] += us;
    if (span.name == kP4Write) {
      times.writes_us.push_back(us);
      device_us[span.device] += us;
    }
  }
  if (!spans_.empty()) flush();
}

Status SpanLog::WriteTsv(const std::string& path, size_t max_spans) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (out == nullptr) return Internal("cannot write '" + path + "'");
  std::fprintf(out.get(), "op\tname\tparent\tdevice\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i >= max_spans && span.op != spans_[i - 1].op) break;
    std::fprintf(out.get(), "%llu\t%s\t%s\t%d\t%lld\t%lld\n",
                 static_cast<unsigned long long>(span.op),
                 LayerName(span.name), LayerName(span.parent), span.device,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return Status::Ok();
}

}  // namespace nerpa::perfbench
