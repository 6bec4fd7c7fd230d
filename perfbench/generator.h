// Seeded input generators for the full-stack benchmark.  Every input the
// stack receives comes from here, as a pure function of the seed and the
// shape: the generators keep their own model of the configuration (and of
// where each station sits) and never read the stack back, so a fixed seed
// yields the same stream of transactions or frames on every run.
#ifndef NERPA_PERFBENCH_GENERATOR_H_
#define NERPA_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "net/packet.h"

namespace nerpa::perfbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// True with probability `p`.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// FNV-1a over generated input text: the determinism fingerprint.
class InputHash {
 public:
  void Add(std::string_view text);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Steady-state management-plane configuration the churn keeps around.
struct ConfigShape {
  int ports = 2000;
  int vlans = 32;
  int acls = 200;
  int mirrors = 20;
  /// Row changes per churn transaction.
  int rows_per_txn = 1;
};

/// Management-plane load: a preload that builds the configuration, then an
/// endless stream of transactions that keeps every table at its target
/// size.  Each row change is one of: port add/delete, access-tag change,
/// trunk-VLAN add/remove (a set mutate), ACL add/delete, mirror add/delete.
/// Rows are addressed by name or column value, never by uuid, so the same
/// JSON replays against any database holding the same rows.
class ConfigGenerator {
 public:
  ConfigGenerator(const ConfigShape& shape, uint64_t seed);

  /// The next preload transaction (inserts only, up to `max_rows` rows);
  /// an empty array once the configuration is complete.
  Json NextPreload(int max_rows);

  /// The next churn transaction of shape.rows_per_txn row changes.
  Json NextTxn();

  const InputHash& hash() const { return hash_; }

 private:
  struct Port {
    int64_t number = 0;
    bool trunk = false;
    int64_t tag = 0;
    std::vector<int64_t> trunks;
  };

  Json AddPort();
  Json DeletePort();
  Json ChangeTag();
  Json MutateTrunk();
  Json AddAcl();
  Json DeleteAcl();
  Json AddMirror();
  Json DeleteMirror();
  Json Record(Json op);

  int64_t RandomVlan() { return 1 + static_cast<int64_t>(rng_.Below(vlans_)); }
  /// A live port name picked uniformly, optionally among trunk or access
  /// ports only (-1 = any, 0 = access, 1 = trunk).
  const std::string& PickPort(int trunk);

  ConfigShape shape_;
  Rng rng_;
  InputHash hash_;
  uint64_t vlans_;
  int64_t next_port_id_ = 0;
  int64_t next_mirror_id_ = 0;
  // Live ports, with a name list for O(1) uniform picks.
  std::unordered_map<std::string, Port> ports_;
  std::vector<std::string> port_names_;
  std::unordered_map<std::string, size_t> port_slot_;
  size_t trunk_ports_ = 0;
  // Port numbers: free pool, plus numbers freed by the current transaction
  // (held back so no transaction deletes and re-inserts one unique key).
  std::vector<int64_t> free_numbers_;
  std::vector<int64_t> freed_in_txn_;
  // ACL rules keyed by (mac, vlan); mirrors by name -> source port.
  std::vector<std::pair<int64_t, int64_t>> acls_;
  std::set<std::pair<int64_t, int64_t>> acl_keys_;
  std::vector<std::string> mirror_names_;
  std::map<std::string, int64_t> mirror_src_;
  std::set<int64_t> mirrored_ports_;
  std::vector<int64_t> freed_mirror_src_;
};

/// Station shape for the MAC-learning workload: access ports spread over
/// a few VLANs and a bounded station pool.
struct StationShape {
  int ports = 64;
  int vlans = 4;
  int stations = 1024;
  /// Stations learned during warm-up; the rest are the "new station"
  /// reserve drawn on by learn events.
  int warm_stations = 768;
  /// Share of frames that are learn events (new station or station move).
  double learn_share = 0.05;
  /// Among learn events, the share that introduce a new station while the
  /// reserve lasts (the rest are moves).
  double new_share = 0.1;
};

/// One generated frame and what the pipeline must do with it.
struct Frame {
  uint64_t port = 0;
  net::Packet packet;
  /// The source sits at a port the data plane has not learned yet.
  bool learn = false;
  /// MacLearn digest fields the frame raises when `learn` is set.
  uint64_t vlan = 0;
  uint64_t src_mac = 0;
  /// The single output port the frame must leave on (its destination
  /// station's learned port).
  uint64_t expect_port = 0;
};

/// Data-plane load: frames between stations of one VLAN.  Warm-up frames
/// introduce the first `warm_stations` stations one by one; after that a
/// `learn_share` of frames come from a new or moved station and the rest
/// travel between stations already learned (SMac and Dmac hits).
class FrameGenerator {
 public:
  FrameGenerator(const StationShape& shape, uint64_t seed);

  /// Frames that learn the warm-up stations (one per station).
  std::vector<Frame> WarmUp();
  Frame Next();

  /// Current port of every learned station: (vlan, mac) -> port.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Placement() const;
  const InputHash& hash() const { return hash_; }

  /// VLAN of access port `port` (ports are numbered 1..shape.ports).
  int64_t PortVlan(int64_t port) const;

 private:
  struct Station {
    uint64_t mac = 0;
    int64_t vlan = 0;
    int64_t port = 0;
  };

  Frame Make(const Station& src, const Station& dst, bool learn);
  /// A learned station on `vlan` other than `not_index`.
  size_t PickPeer(int64_t vlan, size_t not_index);
  int64_t PortOnVlan(int64_t vlan);

  StationShape shape_;
  Rng rng_;
  InputHash hash_;
  std::vector<Station> stations_;
  size_t learned_ = 0;  // stations_[0, learned_) are known to the switch
  std::vector<std::vector<size_t>> by_vlan_;  // learned station indexes
};

}  // namespace nerpa::perfbench

#endif  // NERPA_PERFBENCH_GENERATOR_H_
