// The full-stack benchmark harness: drives the snvs stack (§4.3) through
// one of three workloads and prints every metric by name and unit.
//
//   perfbench --workload <port_churn|bulk_config|mac_learning> --seed N
//             --seconds S --trace <0|1> [--workdir DIR] [--scale F]
//
// Every workload is a closed loop with one caller: the stack is synchronous,
// so Transact / ProcessPacket+SyncDataPlaneNotifications return only after
// every device write is done.  Set-up is timed in fresh child processes of
// this binary (so each sample starts cold) and reported as a median; the
// workload then warms up untimed and measures for S seconds.  Every run ends
// with a correctness check of the switch contents.  The end-to-end times
// are calibrated against a reference kernel timed beside them
// (calibrate.h), so a shared host's changing speed cancels out.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 measures S/2 seconds
// with spans around every call into a layer, between two untraced S/4
// quarters, and reports the per-layer split, how it reconciles with the
// untraced time, and the tracing overhead.  See perfbench/README.md for every metric.
//
// Flags for the benchmark's own tests: --scale F shrinks every size;
// --input-hash N prints a fingerprint of the first N generated inputs and
// exits; --plant-bad-entry writes one stray entry on device 0 before the
// correctness check (which must then fail).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "calibrate.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/strings.h"
#include "dlog/engine.h"
#include "generator.h"
#include "nerpa/bindings.h"
#include "snvs/snvs.h"
#include "trace.h"

namespace nerpa::perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Flags and workload shapes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string workdir = ".bench_build/run";
  bool plant_bad_entry = false;
  int64_t input_hash = 0;
  // Child-process modes (internal): "setup", "shadow-restore".
  std::string child;
  std::string dir;
};

enum class Kind { kConfig, kPackets };

struct Workload {
  std::string name;
  Kind kind = Kind::kConfig;
  int devices = 1;
  bool durable = false;  // WAL on; set-up is a warm restart
  ConfigShape config;
  StationShape stations;
  int preload_rows = 256;  // rows per preload transaction
  int wal_tail_txns = 0;   // churn transactions appended after checkpoint
  int setup_samples = 5;   // set-up samples per run (median reported)
  /// peak_rss_mb is read once the run has done this many operations, so it
  /// reflects a fixed amount of work (mac_learning's state grows with every
  /// learn) rather than how fast the host ran.
  uint64_t rss_ops = 0;
};

int Scaled(int n, double scale, int floor) {
  return std::max(floor, static_cast<int>(n * scale));
}

Result<Workload> MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  if (name == "port_churn") {
    w.config = {Scaled(2000, scale, 8), 32, Scaled(200, scale, 4),
                Scaled(20, scale, 2), 1};
    w.setup_samples = 15;
    w.rss_ops = 100000;
  } else if (name == "bulk_config") {
    w.devices = 4;
    w.durable = true;
    w.config = {Scaled(8000, scale, 16), 64, Scaled(800, scale, 4),
                Scaled(80, scale, 2), 64};
    w.preload_rows = 512;
    w.wal_tail_txns = 16;
    w.setup_samples = 11;
    w.rss_ops = 400;
  } else if (name == "mac_learning") {
    w.kind = Kind::kPackets;
    w.stations.stations = Scaled(16384, scale, 16);
    w.stations.warm_stations = w.stations.stations * 3 / 4;
    w.setup_samples = 25;
    w.rss_ops = 500000;
  } else {
    return InvalidArgument("unknown workload '" + name +
                           "' (port_churn, bulk_config, mac_learning)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (rounded), so the quartiles of two values are
/// their minimum and maximum.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  auto k = static_cast<size_t>(
      std::llround(q * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// The device decorator: counts (and, when tracing, times) every write the
// controller makes.  Each device's client is called by one dispatch worker
// at a time, and the controller joins its workers before Transact /
// SyncDataPlaneNotifications return, so the caller reads these fields only
// after the writes that set them.
// ---------------------------------------------------------------------------

class ProbeClient : public p4::RuntimeClient {
 public:
  ProbeClient(p4::Switch* sw, int device) : RuntimeClient(sw), device_(device) {}

  Status Write(const std::vector<p4::Update>& updates) override {
    int64_t start = tracing_ ? MonotonicNanos() : 0;
    Status status = RuntimeClient::Write(updates);
    updates_ += updates.size();
    if (tracing_) Record(start);
    return status;
  }

  Status SetMulticastGroup(uint32_t group,
                           std::vector<uint64_t> ports) override {
    int64_t start = tracing_ ? MonotonicNanos() : 0;
    members_ += ports.size();
    Status status = RuntimeClient::SetMulticastGroup(group, std::move(ports));
    ++updates_;
    if (tracing_) Record(start);
    return status;
  }

  /// Spans of the following writes belong to operation `op`, under `parent`.
  void TraceOp(bool on, uint32_t op, Layer parent) {
    tracing_ = on;
    op_ = op;
    parent_ = parent;
  }
  void DrainSpans(SpanLog& log) {
    for (const Span& span : spans_) log.Add(span);
    spans_.clear();
  }
  /// Summed write time since the last call (seconds), then reset.
  double TakeWriteSeconds() {
    double total = 0;
    for (const Span& span : spans_) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
    spans_.clear();
    return total;
  }

  uint64_t updates() const { return updates_; }
  uint64_t members() const { return members_; }

 private:
  void Record(int64_t start) {
    spans_.push_back(Span{op_, start, MonotonicNanos(), kP4Write, parent_,
                          static_cast<int16_t>(device_)});
  }

  int device_;
  bool tracing_ = false;
  uint32_t op_ = 0;
  Layer parent_ = kOp;
  std::vector<Span> spans_;
  uint64_t updates_ = 0;
  uint64_t members_ = 0;
};

/// Switches and decorated clients owned here, outliving the stack.
struct Deployment {
  std::vector<std::unique_ptr<p4::Switch>> switches;
  std::vector<std::unique_ptr<ProbeClient>> clients;
  std::unique_ptr<snvs::SnvsStack> stack;  // destroyed first

  ovsdb::Database& db() { return stack->db(); }
  Controller& controller() { return stack->controller(); }
  void TraceOp(bool on, uint32_t op, Layer parent) {
    for (auto& client : clients) client->TraceOp(on, op, parent);
  }
};

/// Builds a stack on `devices` fresh switches; with `trace_writes` the
/// decorators time every write from the start (a restart's resync).
Result<std::unique_ptr<Deployment>> Deploy(int devices,
                                           const std::string& ha_dir,
                                           bool trace_writes) {
  auto deployment = std::make_unique<Deployment>();
  snvs::SnvsOptions options;
  options.ha_dir = ha_dir;
  for (int i = 0; i < devices; ++i) {
    deployment->switches.push_back(
        std::make_unique<p4::Switch>(snvs::SnvsP4Program()));
    deployment->clients.push_back(
        std::make_unique<ProbeClient>(deployment->switches.back().get(), i));
    options.external_clients.push_back(deployment->clients.back().get());
  }
  deployment->TraceOp(trace_writes, 0, kOp);
  NERPA_ASSIGN_OR_RETURN(deployment->stack, snvs::BuildSnvsStack(options));
  return deployment;
}

Status Apply(Deployment& deployment, const Json& txn) {
  NERPA_RETURN_IF_ERROR(deployment.db().Transact(txn).status());
  return deployment.controller().last_error();
}

Json InsertOp(const std::string& table, Json::Object row) {
  Json::Object op;
  op["op"] = Json("insert");
  op["table"] = Json(table);
  op["row"] = Json(std::move(row));
  return Json(std::move(op));
}

/// Every management row of `db` as one insert transaction.
Json DumpInsertOps(const ovsdb::Database& db) {
  Json::Array ops;
  for (const auto& [table, schema] : db.schema().tables) {
    for (const ovsdb::Row* row : db.GetRows(table)) {
      Json::Object columns;
      for (const auto& [column, datum] : row->columns) {
        columns[column] = datum.ToJson();
      }
      ops.push_back(InsertOp(table, std::move(columns)));
    }
  }
  return Json(std::move(ops));
}

/// mac_learning's ports: access ports 1..ports on the generator's VLANs.
Json PortInserts(const FrameGenerator& gen, int ports) {
  Json::Array ops;
  for (int p = 1; p <= ports; ++p) {
    Json::Object row;
    row["name"] = Json(StrFormat("p%d", p));
    row["port"] = Json(int64_t{p});
    row["vlan_mode"] = Json("access");
    row["tag"] = Json(gen.PortVlan(p));
    row["trunks"] = ovsdb::Datum::Set({}).ToJson();
    ops.push_back(InsertOp("Port", std::move(row)));
  }
  return Json(std::move(ops));
}

/// The workload's set-up: stack build plus preload, or (durable) the warm
/// restart from `dir`.  Leaves `config_gen` positioned after everything the
/// stack already holds.
Result<std::unique_ptr<Deployment>> SetUp(const Workload& w,
                                          const std::string& dir,
                                          bool trace_writes,
                                          ConfigGenerator& config_gen,
                                          const FrameGenerator& frame_gen) {
  if (w.durable) return Deploy(w.devices, dir, trace_writes);
  NERPA_ASSIGN_OR_RETURN(auto deployment,
                         Deploy(w.devices, "", trace_writes));
  if (w.kind == Kind::kPackets) {
    NERPA_RETURN_IF_ERROR(
        Apply(*deployment, PortInserts(frame_gen, w.stations.ports)));
    return deployment;
  }
  for (;;) {
    Json txn = config_gen.NextPreload(w.preload_rows);
    if (txn.as_array().empty()) break;
    NERPA_RETURN_IF_ERROR(Apply(*deployment, txn));
  }
  return deployment;
}

// ---------------------------------------------------------------------------
// Correctness check
// ---------------------------------------------------------------------------

std::vector<std::string> Canonical(const std::vector<p4::TableEntry>& entries) {
  std::vector<std::string> out;
  for (const p4::TableEntry& entry : entries) out.push_back(entry.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Reports the first difference between two sorted entry lists.
bool SameEntries(const std::string& what, const std::vector<std::string>& got,
                 const std::vector<std::string>& want) {
  if (got == want) return true;
  std::vector<std::string> extra, missing;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::fprintf(stderr, "check: %s: %zu entries, want %zu (%zu extra%s%s, "
               "%zu missing%s%s)\n", what.c_str(), got.size(), want.size(),
               extra.size(), extra.empty() ? "" : ", e.g. ",
               extra.empty() ? "" : extra[0].c_str(), missing.size(),
               missing.empty() ? "" : ", e.g. ",
               missing.empty() ? "" : missing[0].c_str());
  return false;
}

/// Reads every device's tables and multicast groups back and compares them
/// with a fresh stack built from a dump of the final database.  With
/// `learned` set, SMac/Dmac are compared with the engine's BestLearn
/// relation and with the generator's own station placement instead.
bool CheckDevices(Deployment& deployment,
                  const std::map<std::pair<uint64_t, uint64_t>, uint64_t>*
                      learned) {
  auto fresh = snvs::BuildSnvsStack();
  if (!fresh.ok()) {
    std::fprintf(stderr, "check: %s\n", fresh.status().ToString().c_str());
    return false;
  }
  Status rebuilt = (*fresh)->db().Transact(DumpInsertOps(deployment.db()))
                       .status();
  if (rebuilt.ok()) rebuilt = (*fresh)->controller().last_error();
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "check: rebuild: %s\n", rebuilt.ToString().c_str());
    return false;
  }

  std::map<std::string, std::vector<std::string>> want;
  for (const p4::Table& table : snvs::SnvsP4Program()->tables) {
    auto entries = (*fresh)->runtime(0).ReadTable(table.name);
    if (!entries.ok()) return false;
    want[table.name] = Canonical(*entries);
  }
  if (learned != nullptr) {
    auto best = deployment.controller().engine().Dump("BestLearn");
    if (!best.ok()) return false;
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> derived;
    std::vector<p4::TableEntry> smac, dmac;
    for (const dlog::Row& row : *best) {
      uint64_t vlan = row[0].as_bit(), mac = row[1].as_bit(),
               port = row[2].as_bit();
      derived[{vlan, mac}] = port;
      smac.push_back(p4::TableEntry{
          "SMac",
          {p4::MatchField::Exact(vlan), p4::MatchField::Exact(mac),
           p4::MatchField::Exact(port)},
          0, "NoAction", {}});
      dmac.push_back(p4::TableEntry{
          "Dmac", {p4::MatchField::Exact(vlan), p4::MatchField::Exact(mac)},
          0, "Forward", {port}});
    }
    if (derived != *learned) {
      std::fprintf(stderr, "check: BestLearn holds %zu stations, the "
                   "generator placed %zu (or ports differ)\n",
                   derived.size(), learned->size());
      return false;
    }
    want["SMac"] = Canonical(smac);
    want["Dmac"] = Canonical(dmac);
  }
  auto want_groups = (*fresh)->runtime(0).ReadMulticastGroups();
  if (!want_groups.ok()) return false;

  bool ok = true;
  for (size_t d = 0; d < deployment.clients.size(); ++d) {
    const ProbeClient& client = *deployment.clients[d];
    for (const auto& [table, entries] : want) {
      auto got = client.ReadTable(table);
      ok = got.ok() &&
           SameEntries(StrFormat("sw%zu %s", d, table.c_str()),
                       Canonical(*got), entries) &&
           ok;
    }
    auto groups = client.ReadMulticastGroups();
    if (!groups.ok() || *groups != *want_groups) {
      std::fprintf(stderr, "check: sw%zu multicast groups differ\n", d);
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Durable state, and set-up timed cold in child processes
// ---------------------------------------------------------------------------

std::string SelfExe() {
  std::vector<char> buf(4096);
  ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  return n > 0 ? std::string(buf.data(), static_cast<size_t>(n)) : "";
}

std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Runs this binary in child mode `mode` and returns the numbers on the
/// last line of its standard output.
Result<std::vector<double>> RunChild(const Args& args, const std::string& mode,
                                     const std::string& dir) {
  std::string cmd = StrFormat(
      "%s --child %s --workload %s --seed %llu --trace %d --scale %.17g "
      "--dir %s",
      Quote(SelfExe()).c_str(), mode.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      args.scale, Quote(dir).c_str());
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Internal("cannot start child: " + cmd);
  std::string last;
  char line[512];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) last = line;
  int rc = pclose(pipe);
  if (rc != 0) return Internal(StrFormat("child %s exited %d", mode.c_str(), rc));
  std::vector<double> values;
  for (const std::string& field : Split(Trim(last), ' ')) {
    if (!field.empty()) values.push_back(std::strtod(field.c_str(), nullptr));
  }
  return values;
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Internal("copy " + from + " -> " + to + ": " + ec.message());
  return Status::Ok();
}

/// Builds bulk_config's durable state in `dir`: the preload, a checkpoint
/// (snapshot + engine sidecar), then a WAL tail of churn transactions.
///
/// This runs in the process that later restarts from the state and churns
/// on it.  Uuid::Generate is a per-process deterministic sequence, so a
/// fresh process that recovers this state and then inserts rows reissues
/// the uuids this process generated, and its inserts fail with "row uuid
/// already present".  The fresh-process set-up samples only restart.
Status PrepareDurable(const Workload& w, const std::string& dir,
                      ConfigGenerator& gen) {
  NERPA_ASSIGN_OR_RETURN(auto deployment, Deploy(1, dir, false));
  for (;;) {
    Json txn = gen.NextPreload(w.preload_rows);
    if (txn.as_array().empty()) break;
    NERPA_RETURN_IF_ERROR(Apply(*deployment, txn));
  }
  NERPA_RETURN_IF_ERROR(deployment->stack->Checkpoint());
  for (int i = 0; i < w.wal_tail_txns; ++i) {
    NERPA_RETURN_IF_ERROR(Apply(*deployment, gen.NextTxn()));
  }
  return Status::Ok();
}

/// Kernel runs on each side of a timed set-up (their median is used).
constexpr int kSetUpReferenceRuns = 5;

/// Child "setup": one cold set-up.  Prints its seconds, (traced) the write
/// seconds of the busiest device during it, and the reference time around
/// it: the mean of the kernel medians just before and just after.
Status TimeSetUp(const Workload& w, const Args& args) {
  ConfigGenerator config_gen(w.config, args.seed);
  FrameGenerator frame_gen(w.stations, args.seed);
  double before_us = ReferenceUs(kSetUpReferenceRuns);
  int64_t start = MonotonicNanos();
  NERPA_ASSIGN_OR_RETURN(
      auto deployment, SetUp(w, args.dir, args.trace, config_gen, frame_gen));
  double seconds = static_cast<double>(MonotonicNanos() - start) * 1e-9;
  double after_us = ReferenceUs(kSetUpReferenceRuns);
  double critical = 0;
  for (auto& client : deployment->clients) {
    critical = std::max(critical, client->TakeWriteSeconds());
  }
  std::printf("%.9f %.9f %.3f\n", seconds, critical,
              (before_us + after_us) / 2);
  return Status::Ok();
}

/// Child "shadow-restore": the two restore steps of a warm restart, each
/// timed on its own in a cold process: DurableStore::Open on `dir`, then
/// Engine::Restore on the engine checkpoint it holds.
Status TimeShadowRestore(const Args& args) {
  int64_t t0 = MonotonicNanos();
  NERPA_ASSIGN_OR_RETURN(auto store,
                         ha::DurableStore::Open(snvs::SnvsSchema(), args.dir));
  int64_t t1 = MonotonicNanos();
  NERPA_ASSIGN_OR_RETURN(std::string blob,
                         store->ReadEngineCheckpoint("controller"));
  NERPA_ASSIGN_OR_RETURN(
      Bindings bindings,
      GenerateBindings(store->db().schema(), *snvs::SnvsP4Program(),
                       BindingOptions{false, true}));
  NERPA_ASSIGN_OR_RETURN(
      auto program, dlog::Program::Parse(bindings.DeclsText() +
                                         snvs::SnvsRules()));
  int64_t t2 = MonotonicNanos();
  NERPA_ASSIGN_OR_RETURN(auto engine, dlog::Engine::Restore(program, blob));
  int64_t t3 = MonotonicNanos();
  std::printf("%.9f %.9f\n", static_cast<double>(t1 - t0) * 1e-9,
              static_cast<double>(t3 - t2) * 1e-9);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The measured run
// ---------------------------------------------------------------------------

/// A failed operation counts as missing every latency limit: it enters the
/// latency samples at this value.
constexpr double kFailedOpUs = 1e9;

/// The measurement is cut into slices of kSliceNanos, with a reference
/// kernel run at every slice boundary (calibrate.h).  The operations of a
/// slice are calibrated by the mean of the two kernel runs around it, so a
/// host that changes speed within a run is followed slice by slice.  The
/// kernel runs take about 4% of the measured time.  An operation longer
/// than kOwnSliceNanos (a bulk_config transaction) ends its slice: when
/// the host changes speed inside a slice, the operations of that slice are
/// scaled by a speed between the two, and with several long operations in
/// a slice enough of them would be mis-scaled to move a p99.
constexpr int64_t kSliceNanos = 25000000;
constexpr int64_t kOwnSliceNanos = 2000000;

/// What a measurement phase records.  Latencies of the open slice go into
/// buffers allocated and touched once; the whole phase keeps calibrated
/// latencies, which grow with the operation count only, so the harness's
/// own memory at Workload::rss_ops does not depend on the host's speed.
struct Measured {
  Measured() {
    slice_us.resize(size_t{1} << 16);
    slice_us.clear();
    slice_change.resize(size_t{1} << 16);
    slice_change.clear();
  }

  void Record(double us, bool change) {
    slice_us.push_back(us);
    slice_change.push_back(change);
    ++ops;
    changes += change ? 1 : 0;
  }
  /// Opens the first slice of a phase part; `reference_us` is the kernel
  /// run just before it.
  void OpenSlice(double reference_us) { last_reference_us = reference_us; }
  /// Closes the open slice; `reference_us` is the kernel run just after it.
  void CloseSlice(double reference_us) {
    double scale =
        CalibrationScale((last_reference_us + reference_us) / 2);
    for (size_t i = 0; i < slice_us.size(); ++i) {
      op_us.push_back(slice_us[i] * scale);
      if (slice_change[i]) change_us.push_back(slice_us[i] * scale);
    }
    cal_busy_s += slice_busy_s * scale;
    references_us.push_back(reference_us);
    last_reference_us = reference_us;
    slice_us.clear();
    slice_change.clear();
    slice_busy_s = 0;
  }
  /// Adds the time of one successful operation that applied `n` items.
  void Busy(double us, uint64_t n) {
    items += n;
    busy_s += us * 1e-6;
    slice_busy_s += us * 1e-6;
    ++ok_ops;
  }

  // Open slice, raw.
  std::vector<double> slice_us;
  std::vector<bool> slice_change;
  double slice_busy_s = 0;
  double last_reference_us = 0;
  // Whole phase, calibrated.
  std::vector<double> op_us;      // every operation
  std::vector<double> change_us;  // operations that changed device state
  double cal_busy_s = 0;
  std::vector<double> references_us;  // kernel runs at slice boundaries
  // Whole phase, raw.
  double busy_s = 0;  // time inside the stack, successful operations
  uint64_t ok_ops = 0, ops = 0, changes = 0;
  uint64_t items = 0;  // row changes or packets applied
  uint64_t attempted = 0, failed = 0;
  double rss_mb = 0;  // peak RSS once `ops` reached Workload::rss_ops
};

/// Counter readings at the edges of the traced phase.
struct Counters {
  uint64_t engine_txns = 0, firings = 0, probes = 0;
  uint64_t device_ops = 0, updates = 0, members = 0;
  uint64_t digests = 0, wal_bytes = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args)
      : w_(w), args_(args), config_gen_(w.config, args.seed),
        frame_gen_(w.stations, args.seed) {}

  Status Run();
  const std::vector<Metric>& metrics() const { return metrics_; }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  Status SetUpAll(const std::string& workdir);
  void Op(bool traced, Measured& m);
  void ConfigOp(bool traced, Measured& m);
  void PacketOp(bool traced, Measured& m);
  void Measure(double seconds, bool traced, Measured& m);
  void Fail(const Status& status, Measured& m);
  Status BeginTrace();
  void EndTrace();
  Counters Read();
  void Report(const Measured& m);
  void ReportLayers(const Measured& untraced);
  void Add(std::string name, double value, std::string unit, uint64_t n) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), n});
  }

  const Workload& w_;
  const Args& args_;
  ConfigGenerator config_gen_;
  FrameGenerator frame_gen_;
  std::unique_ptr<Deployment> dep_;
  std::string ha_dir_;
  // Set-up samples: (seconds, busiest-device write seconds, reference us),
  // and for the durable workload (traced) the shadow restores: (db seconds,
  // engine seconds).
  std::vector<std::vector<double>> setups_, restores_;
  uint32_t next_op_ = 1;
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = false;
  std::vector<Metric> metrics_;

  // --- traced phase ---
  SpanLog log_;
  std::unique_ptr<ovsdb::Database> shadow_db_;
  std::unique_ptr<dlog::Engine> shadow_engine_;
  uint64_t monitor_id_ = 0, hook_id_ = 0;
  bool capturing_ = false;
  ovsdb::TableUpdates captured_;
  int64_t mon_ns_ = 0, mon_end_ns_ = 0, hook_ns_ = 0;
  Counters begin_, end_;
  uint64_t traced_rows_ = 0;
};

void Runner::Fail(const Status& status, Measured& m) {
  if (m.failed++ == 0) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n",
                 status.ToString().c_str());
  }
}

void Runner::ConfigOp(bool traced, Measured& m) {
  Json txn = config_gen_.NextTxn();
  uint32_t op = next_op_++;
  if (traced) {
    dep_->TraceOp(true, op, kController);
    mon_ns_ = mon_end_ns_ = hook_ns_ = 0;
  }
  int64_t t0 = MonotonicNanos();
  Result<Json> result = dep_->db().Transact(txn);
  int64_t t1 = MonotonicNanos();
  Status status = result.ok() ? dep_->controller().last_error()
                              : result.status();
  size_t rows = txn.as_array().size();
  ++m.attempted;
  double us = static_cast<double>(t1 - t0) * 1e-3;
  if (!status.ok()) {
    Fail(status, m);
    us = kFailedOpUs;
  } else {
    m.Busy(us, rows);
  }
  m.Record(us, true);
  if (!traced) return;
  dep_->TraceOp(false, 0, kOp);
  log_.Add(Span{op, t0, t1, kOp, kOp, -1});
  if (mon_ns_ != 0) log_.Add(Span{op, t0, mon_ns_, kController, kOp, -1});
  if (hook_ns_ != 0) log_.Add(Span{op, mon_end_ns_, hook_ns_, kHaWal, kOp, -1});
  for (auto& client : dep_->clients) client->DrainSpans(log_);
  traced_rows_ += rows;

  // The same transaction on the monitor-less shadow database.
  int64_t s0 = MonotonicNanos();
  Status shadow = shadow_db_->Transact(txn).status();
  int64_t s1 = MonotonicNanos();
  log_.Add(Span{op, s0, s1, kOvsdbTransact, kController, -1});
  if (!shadow.ok()) Fail(shadow, m);

  // The rows the controller's monitor saw, on the shadow engine.
  std::vector<std::pair<const std::string*, std::pair<dlog::Row, bool>>> rows_in;
  for (const auto& [table, updates] : captured_) {
    const ovsdb::TableSchema* schema = dep_->db().schema().FindTable(table);
    for (const auto& [uuid, update] : updates) {
      for (const auto* row : {&update.old_row, &update.new_row}) {
        if (!row->has_value()) continue;
        Result<dlog::Row> converted = OvsdbRowToDlog(*schema, **row);
        if (!converted.ok()) {
          Fail(converted.status(), m);
          continue;
        }
        rows_in.push_back({&table, {std::move(converted).value(),
                                    row == &update.new_row}});
      }
    }
  }
  s0 = MonotonicNanos();
  for (auto& [table, change] : rows_in) {
    Status queued = change.second
                        ? shadow_engine_->Insert(*table, std::move(change.first))
                        : shadow_engine_->Delete(*table, std::move(change.first));
    if (!queued.ok()) Fail(queued, m);
  }
  Status committed = shadow_engine_->Commit().status();
  s1 = MonotonicNanos();
  log_.Add(Span{op, s0, s1, kDlogCommit, kController, -1});
  if (!committed.ok()) Fail(committed, m);
  captured_.clear();
}

void Runner::PacketOp(bool traced, Measured& m) {
  Frame frame = frame_gen_.Next();
  uint32_t op = next_op_++;
  p4::Switch& sw = *dep_->switches[0];
  uint64_t digests = sw.stats().digests;
  int64_t seq = dep_->controller().digest_seq();
  if (traced) dep_->TraceOp(true, op, kNerpaSync);
  int64_t t0 = MonotonicNanos();
  auto out = sw.ProcessPacket(p4::PacketIn{frame.port, frame.packet});
  int64_t t1 = MonotonicNanos();
  Status status = out.ok() ? dep_->controller().SyncDataPlaneNotifications()
                           : out.status();
  int64_t t2 = MonotonicNanos();
  if (status.ok()) status = dep_->controller().last_error();
  if (status.ok() && frame.expect_port != 0 &&
      (out->size() != 1 || (*out)[0].port != frame.expect_port)) {
    status = Internal(StrFormat("frame to port %llu left on %zu ports",
                                static_cast<unsigned long long>(
                                    frame.expect_port),
                                out->size()));
  }
  ++m.attempted;
  double us = static_cast<double>(t2 - t0) * 1e-3;
  if (!status.ok()) {
    Fail(status, m);
    us = kFailedOpUs;
  } else {
    m.Busy(us, 1);
  }
  m.Record(us, frame.learn);
  if (!traced) return;
  dep_->TraceOp(false, 0, kOp);
  log_.Add(Span{op, t0, t2, kOp, kOp, -1});
  log_.Add(Span{op, t0, t1, kP4Process, kOp, -1});
  log_.Add(Span{op, t1, t2, kNerpaSync, kOp, -1});
  for (auto& client : dep_->clients) client->DrainSpans(log_);
  if (sw.stats().digests == digests) return;
  // The digest the frame raised, as the controller turned it into a row.
  const DigestBinding* binding =
      dep_->stack->bindings().FindDigest("MacLearn");
  dlog::Row row = DigestToDlog(
      *binding, p4::DigestMessage{"MacLearn", {frame.port, frame.vlan,
                                               frame.src_mac}},
      "sw0", seq);
  if (!dep_->controller().engine().Contains("MacLearn", row)) {
    Fail(Internal("digest row not found in the controller's engine"), m);
  }
  int64_t s0 = MonotonicNanos();
  Status queued = shadow_engine_->Insert("MacLearn", std::move(row));
  Status committed = shadow_engine_->Commit().status();
  int64_t s1 = MonotonicNanos();
  log_.Add(Span{op, s0, s1, kDlogCommit, kNerpaSync, -1});
  if (!queued.ok()) Fail(queued, m);
  if (!committed.ok()) Fail(committed, m);
}

void Runner::Op(bool traced, Measured& m) {
  if (w_.kind == Kind::kConfig) {
    ConfigOp(traced, m);
  } else {
    PacketOp(traced, m);
  }
}

void Runner::Measure(double seconds, bool traced, Measured& m) {
  m.OpenSlice(ReferenceUs(1));
  int64_t now = MonotonicNanos();
  int64_t end = now + static_cast<int64_t>(seconds * 1e9);
  int64_t slice_start = now;
  while (now < end) {
    int64_t op_start = now;
    Op(traced, m);
    if (m.rss_mb == 0 && m.ops >= w_.rss_ops) m.rss_mb = PeakRssMiB();
    now = MonotonicNanos();
    if (now - slice_start >= kSliceNanos || now - op_start >= kOwnSliceNanos ||
        now >= end) {
      m.CloseSlice(ReferenceUs(1));
      now = slice_start = MonotonicNanos();
    }
  }
}

Counters Runner::Read() {
  Counters c;
  dlog::Engine::Stats engine = dep_->controller().engine().GetStats();
  c.engine_txns = engine.transactions;
  c.firings = engine.rule_firings;
  c.probes = engine.probes;
  Controller::Stats stats = dep_->controller().stats();
  c.device_ops =
      stats.entries_inserted + stats.entries_deleted + stats.multicast_updates;
  for (auto& client : dep_->clients) {
    c.updates += client->updates();
    c.members += client->members();
  }
  c.digests = dep_->switches[0]->stats().digests;
  if (w_.durable) {
    std::error_code ec;
    c.wal_bytes = fs::file_size(fs::path(ha_dir_) / "wal.jsonl", ec);
  }
  return c;
}

Status Runner::BeginTrace() {
  ovsdb::Database& db = dep_->db();
  if (w_.kind == Kind::kConfig) {
    shadow_db_ = std::make_unique<ovsdb::Database>(snvs::SnvsSchema());
    NERPA_RETURN_IF_ERROR(shadow_db_->Transact(DumpInsertOps(db)).status());
  }
  NERPA_ASSIGN_OR_RETURN(auto program,
                         dlog::Program::Parse(dep_->stack->program_text()));
  shadow_engine_ = std::make_unique<dlog::Engine>(program);
  for (const dlog::RelationDecl& input : dep_->stack->bindings().inputs) {
    NERPA_ASSIGN_OR_RETURN(std::vector<dlog::Row> rows,
                           dep_->controller().engine().Dump(input.name));
    for (dlog::Row& row : rows) {
      NERPA_RETURN_IF_ERROR(shadow_engine_->Insert(input.name, std::move(row)));
    }
  }
  NERPA_RETURN_IF_ERROR(shadow_engine_->Commit().status());
  // Registered after the controller's monitor (and the WAL's commit hook),
  // so each fires once the layer before it has finished.
  monitor_id_ = db.AddMonitor({}, [this](const ovsdb::TableUpdates& updates) {
    if (!capturing_) return;
    mon_ns_ = MonotonicNanos();
    captured_ = updates;
    mon_end_ns_ = MonotonicNanos();
  });
  if (w_.durable) {
    hook_id_ = db.AddCommitHook([this](const Json&) {
      hook_ns_ = MonotonicNanos();
    });
  }
  capturing_ = true;
  begin_ = Read();
  return Status::Ok();
}

void Runner::EndTrace() {
  end_ = Read();
  capturing_ = false;
  dep_->db().RemoveMonitor(monitor_id_);
  if (w_.durable) dep_->db().RemoveCommitHook(hook_id_);
}

Status Runner::SetUpAll(const std::string& workdir) {
  std::string prepared = workdir + "/prepared";
  if (w_.durable) {
    NERPA_RETURN_IF_ERROR(PrepareDurable(w_, prepared, config_gen_));
  }
  // Set-up samples come from fresh child processes, each as cold as a real
  // start.  Untraced runs take them for setup_s; traced runs only where
  // set-up is a restart, for its split.
  int children = args_.trace ? (w_.durable ? 3 : 0) : w_.setup_samples;
  for (int k = 0; k < children; ++k) {
    std::string dir;
    if (w_.durable) {
      dir = workdir + StrFormat("/setup%d", k);
      NERPA_RETURN_IF_ERROR(CopyDir(prepared, dir));
    }
    NERPA_ASSIGN_OR_RETURN(std::vector<double> sample,
                           RunChild(args_, "setup", dir));
    if (sample.size() != 3) return Internal("bad set-up sample");
    setups_.push_back(sample);
    if (w_.durable && args_.trace) {
      NERPA_RETURN_IF_ERROR(CopyDir(prepared, dir));
      NERPA_ASSIGN_OR_RETURN(sample, RunChild(args_, "shadow-restore", dir));
      if (sample.size() != 2) return Internal("bad restore sample");
      restores_.push_back(sample);
    }
    if (!dir.empty()) fs::remove_all(dir);
  }
  // This process's own set-up, which the workload then runs on.
  if (w_.durable) {
    ha_dir_ = workdir + "/stack";
    NERPA_RETURN_IF_ERROR(CopyDir(prepared, ha_dir_));
  }
  NERPA_ASSIGN_OR_RETURN(
      dep_, SetUp(w_, ha_dir_, false, config_gen_, frame_gen_));
  return Status::Ok();
}

Status Runner::Run() {
  std::string workdir =
      args_.workdir + StrFormat("/%s-%d", w_.name.c_str(), getpid());
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir, ec);
  if (ec) return Internal("cannot create " + workdir + ": " + ec.message());
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{workdir};

  NERPA_RETURN_IF_ERROR(SetUpAll(workdir));

  // Warm-up, untimed: learn the first stations, then a tenth of the run.
  Measured warm;
  if (w_.kind == Kind::kPackets) {
    for (const Frame& frame : frame_gen_.WarmUp()) {
      auto out = dep_->switches[0]->ProcessPacket(
          p4::PacketIn{frame.port, frame.packet});
      Status status = out.ok() ? dep_->controller().SyncDataPlaneNotifications()
                               : out.status();
      ++warm.attempted;
      if (!status.ok()) Fail(status, warm);
    }
  }
  Measure(std::min(1.0, args_.seconds / 10), false, warm);

  Measured m;
  if (!args_.trace) {
    Measure(args_.seconds, false, m);
  } else {
    // Untraced quarters on both sides of the traced half, so a host that
    // drifts steadily through the run biases neither side.
    Measure(args_.seconds / 4, false, m);
    NERPA_RETURN_IF_ERROR(BeginTrace());
    Measured traced;
    Measure(args_.seconds / 2, true, traced);
    EndTrace();
    Measure(args_.seconds / 4, false, m);
    m.attempted += traced.attempted;
    m.failed += traced.failed;
  }

  if (args_.plant_bad_entry) {
    p4::TableEntry stray{"Acl",
                         {p4::MatchField::Exact(4095),
                          p4::MatchField::Exact(0xbadbadbadULL)},
                         0, "AclDrop", {}};
    NERPA_RETURN_IF_ERROR(dep_->clients[0]->Write(
        {p4::Update{p4::UpdateType::kInsert, stray}}));
  }
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> placement;
  if (w_.kind == Kind::kPackets) placement = frame_gen_.Placement();
  correct_ = CheckDevices(*dep_, w_.kind == Kind::kPackets ? &placement
                                                           : nullptr);
  attempted_ = warm.attempted + m.attempted + 1;
  failed_ = warm.failed + m.failed + (correct_ ? 0 : 1);

  if (args_.trace) {
    ReportLayers(m);
    fs::path traces = fs::path(args_.workdir) / "traces";
    fs::create_directories(traces, ec);
    std::string path = (traces / StrFormat("%s-seed%llu.tsv", w_.name.c_str(),
                                           static_cast<unsigned long long>(
                                               args_.seed)))
                           .string();
    NERPA_RETURN_IF_ERROR(log_.WriteTsv(path, 100000));
    std::printf("spans: %zu recorded; the first 100000 are in %s\n",
                log_.size(), path.c_str());
  } else {
    Report(m);
  }
  return Status::Ok();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::vector<double> Column(const std::vector<std::vector<double>>& rows,
                           size_t i) {
  std::vector<double> out;
  for (const auto& row : rows) out.push_back(row.at(i));
  return out;
}

void Runner::Report(const Measured& m) {
  // Calibrated figures (calibrate.h), over every operation of the run.
  std::vector<double> setups;
  for (const auto& sample : setups_) {
    setups.push_back(sample[0] * CalibrationScale(sample[2]));
  }
  Add("op_p50_us", Percentile(m.op_us, 0.5), "us", m.ops);
  Add("op_p99_us", Percentile(m.op_us, 0.99), "us", m.ops);
  Add("change_p50_us", Percentile(m.change_us, 0.5), "us", m.changes);
  Add("items_per_s",
      m.cal_busy_s > 0 ? static_cast<double>(m.items) / m.cal_busy_s : 0,
      "1/s", m.items);
  Add("setup_s", Median(setups), "s", setups.size());
  if (m.rss_mb == 0) {
    std::fprintf(stderr, "perfbench: the run ended before %llu operations; "
                 "peak_rss_mb is taken at its end\n",
                 static_cast<unsigned long long>(w_.rss_ops));
  }
  Add("peak_rss_mb", m.rss_mb > 0 ? m.rss_mb : PeakRssMiB(), "MiB", m.ops);
  std::printf("reference kernel: median %.1f us over %zu slice boundaries "
              "(calibrated = raw x %.0f / reference); raw, uncalibrated: "
              "mean op %.3f us, %.1f items/s, median set-up %.4f s\n",
              Median(m.references_us), m.references_us.size(),
              kReferenceNominalUs,
              m.ok_ops > 0 ? m.busy_s * 1e6 / static_cast<double>(m.ok_ops)
                           : 0,
              m.busy_s > 0 ? static_cast<double>(m.items) / m.busy_s : 0,
              Median(Column(setups_, 0)));
}

void Runner::ReportLayers(const Measured& untraced) {
  bool packets = w_.kind == Kind::kPackets;
  // Per-operation values of each layer, over the operations it ran in.
  std::vector<double> ovsdb, dlog, wal, busy, critical, process, sync,
      residual, layer_sum, traced_op, writes;
  log_.ForEachOp([&](const OpTimes& op) {
    const auto& us = op.us;
    if (us[kOvsdbTransact] > 0) ovsdb.push_back(us[kOvsdbTransact]);
    if (us[kDlogCommit] > 0) dlog.push_back(us[kDlogCommit]);
    if (us[kHaWal] > 0) wal.push_back(us[kHaWal]);
    if (!op.writes_us.empty()) {
      busy.push_back(op.p4_busy_us);
      critical.push_back(op.p4_critical_us);
    }
    if (packets) {
      process.push_back(us[kP4Process]);
      sync.push_back(us[kNerpaSync]);
    }
    double window = us[kController] + us[kNerpaSync];
    residual.push_back(window - us[kOvsdbTransact] - us[kDlogCommit] -
                       op.p4_critical_us);
    layer_sum.push_back(window + us[kHaWal] + us[kP4Process]);
    traced_op.push_back(us[kOp]);
    writes.insert(writes.end(), op.writes_us.begin(), op.writes_us.end());
  });
  double txns = static_cast<double>(end_.engine_txns - begin_.engine_txns);
  auto per_txn = [&](uint64_t a, uint64_t b) {
    return txns > 0 ? static_cast<double>(b - a) / txns : 0.0;
  };
  uint64_t n_txn = end_.engine_txns - begin_.engine_txns;
  size_t n = traced_op.size();
  double n_ops = static_cast<double>(n);

  Add("ovsdb.transact_us", Mean(ovsdb), "us", ovsdb.size());
  Add("ovsdb.ops_per_txn",
      packets || n == 0 ? 0 : static_cast<double>(traced_rows_) / n_ops,
      "count", packets ? 0 : n);
  Add("dlog.commit_us", Mean(dlog), "us", dlog.size());
  Add("dlog.rule_firings_per_txn", per_txn(begin_.firings, end_.firings),
      "count", n_txn);
  Add("dlog.probes_per_txn", per_txn(begin_.probes, end_.probes), "count",
      n_txn);
  Add("dlog.restore_s", restores_.empty() ? 0 : Median(Column(restores_, 1)),
      "s", restores_.size());
  Add("ha.wal_append_us", Mean(wal), "us", wal.size());
  Add("ha.wal_bytes_per_row",
      traced_rows_ > 0 && w_.durable
          ? static_cast<double>(end_.wal_bytes - begin_.wal_bytes) /
                static_cast<double>(traced_rows_)
          : 0,
      "B", w_.durable ? traced_rows_ : 0);
  Add("ha.db_restore_s", restores_.empty() ? 0 : Median(Column(restores_, 0)),
      "s", restores_.size());
  Add("p4.write_us", Percentile(writes, 0.5), "us", writes.size());
  Add("p4.writes_per_txn", per_txn(begin_.updates, end_.updates), "count",
      n_txn);
  Add("p4.mcast_members_per_txn", per_txn(begin_.members, end_.members),
      "count", n_txn);
  Add("p4.dispatch_busy_us", Mean(busy), "us", busy.size());
  Add("p4.dispatch_critical_us", Mean(critical), "us", critical.size());
  Add("p4.process_us", Mean(process), "us", process.size());
  Add("p4.digests_per_packet",
      packets && n > 0
          ? static_cast<double>(end_.digests - begin_.digests) / n_ops
          : 0,
      "ratio", packets ? n : 0);
  Add("nerpa.sync_us", Mean(sync), "us", sync.size());
  Add("nerpa.device_ops_per_txn", per_txn(begin_.device_ops, end_.device_ops),
      "count", n_txn);
  Add("nerpa.residual_us", Mean(residual), "us", residual.size());
  double restart_residual = 0;
  if (!restores_.empty()) {
    restart_residual = Median(Column(setups_, 0)) -
                       Median(Column(restores_, 0)) -
                       Median(Column(restores_, 1)) -
                       Median(Column(setups_, 1));
  }
  Add("nerpa.restart_residual_s", restart_residual, "s", restores_.size());

  // Reconciliation: the layers of a traced operation against the untraced
  // mean, and the traced mean against the untraced one (tracing overhead).
  double untraced_mean =
      untraced.ok_ops > 0
          ? untraced.busy_s * 1e6 / static_cast<double>(untraced.ok_ops)
          : 0;
  double sum_mean = Mean(layer_sum);
  Add("trace.untraced_op_us", untraced_mean, "us", untraced.ok_ops);
  Add("trace.traced_op_us", Mean(traced_op), "us", traced_op.size());
  Add("trace.layer_sum_us", sum_mean, "us", layer_sum.size());
  Add("trace.gap_us", untraced_mean - sum_mean, "us", layer_sum.size());
  Add("trace.overhead_frac",
      untraced_mean > 0 ? Mean(traced_op) / untraced_mean - 1 : 0, "ratio",
      traced_op.size());
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Status ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    bool boolean = flag == "--plant-bad-entry";
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (!boolean) {
      if (i + 1 >= argc) return InvalidArgument(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--plant-bad-entry") {
      args.plant_bad_entry = true;
    } else if (flag == "--input-hash") {
      args.input_hash = std::strtoll(value.c_str(), nullptr, 10);
    } else if (flag == "--child") {
      args.child = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      return InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    return InvalidArgument("--seconds and --scale must be positive");
  }
  return Status::Ok();
}

/// Prints a fingerprint of the first `n` generated inputs after set-up.
void PrintInputHash(const Workload& w, const Args& args) {
  uint64_t hash = 0;
  if (w.kind == Kind::kConfig) {
    ConfigGenerator gen(w.config, args.seed);
    while (!gen.NextPreload(w.preload_rows).as_array().empty()) {
    }
    for (int64_t i = 0; i < args.input_hash; ++i) gen.NextTxn();
    hash = gen.hash().value();
  } else {
    FrameGenerator gen(w.stations, args.seed);
    gen.WarmUp();
    for (int64_t i = 0; i < args.input_hash; ++i) gen.Next();
    hash = gen.hash().value();
  }
  std::printf("%016llx\n", static_cast<unsigned long long>(hash));
}

int Main(int argc, char** argv) {
  Args args;
  Status parsed = ParseArgs(argc, argv, args);
  Result<Workload> w = parsed.ok() ? MakeWorkload(args.workload, args.scale)
                                   : Result<Workload>(parsed);
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", w.status().ToString().c_str());
    return 2;
  }
  if (args.input_hash > 0) {
    PrintInputHash(*w, args);
    return 0;
  }
  if (!args.child.empty()) {
    Status status = args.child == "setup" ? TimeSetUp(*w, args)
                    : args.child == "shadow-restore"
                        ? TimeShadowRestore(args)
                        : InvalidArgument("unknown child mode " + args.child);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench %s: %s\n", args.child.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  Runner runner(*w, args);
  Status status = runner.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const Metric& metric : runner.metrics()) {
    std::printf("  %-28s %14.6g %-6s n=%llu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  std::printf("  %-28s %14.6g %-6s (%llu of %llu)\n", "failed_frac",
              static_cast<double>(runner.failed()) /
                  static_cast<double>(runner.attempted()),
              "ratio", static_cast<unsigned long long>(runner.failed()),
              static_cast<unsigned long long>(runner.attempted()));
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      runner.correct() ? "true" : "false",
      static_cast<unsigned long long>(runner.attempted()),
      static_cast<unsigned long long>(runner.failed()));
  for (size_t i = 0; i < runner.metrics().size(); ++i) {
    const Metric& metric = runner.metrics()[i];
    json += StrFormat("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                      metric.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return runner.correct() ? 0 : 1;
}

}  // namespace
}  // namespace nerpa::perfbench

int main(int argc, char** argv) { return nerpa::perfbench::Main(argc, argv); }
