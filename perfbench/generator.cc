#include "generator.h"

#include <algorithm>

#include "common/strings.h"
#include "net/mac.h"
#include "ovsdb/datum.h"

namespace nerpa::perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void InputHash::Add(std::string_view text) {
  for (char c : text) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // record separator
  hash_ *= 0x100000001b3ULL;
}

namespace {

Json Where(const std::string& column, Json value) {
  return Json(Json::Array{
      Json(Json::Array{Json(column), Json("=="), std::move(value)})});
}

Json IntSet(const std::vector<int64_t>& values) {
  std::vector<ovsdb::Atom> atoms;
  for (int64_t v : values) atoms.emplace_back(v);
  return ovsdb::Datum::Set(std::move(atoms)).ToJson();
}

Json Op(const char* kind, const char* table) {
  Json::Object op;
  op["op"] = Json(kind);
  op["table"] = Json(table);
  return Json(std::move(op));
}

}  // namespace

// ---------------------------------------------------------------------------
// ConfigGenerator
// ---------------------------------------------------------------------------

ConfigGenerator::ConfigGenerator(const ConfigShape& shape, uint64_t seed)
    : shape_(shape), rng_(seed), vlans_(static_cast<uint64_t>(shape.vlans)) {
  // Twice as many port numbers as standing ports, so adds always find one.
  int64_t numbers = std::min<int64_t>(2 * int64_t{shape.ports} + 16, 65535);
  for (int64_t n = 1; n <= numbers; ++n) free_numbers_.push_back(n);
}

Json ConfigGenerator::Record(Json op) {
  hash_.Add(op.Dump());
  return op;
}

const std::string& ConfigGenerator::PickPort(int trunk) {
  // Rejection sampling: a quarter of the ports are trunks, so this ends
  // quickly for either kind.
  for (;;) {
    const std::string& name = port_names_[rng_.Below(port_names_.size())];
    if (trunk < 0 || ports_.at(name).trunk == (trunk == 1)) return name;
  }
}

Json ConfigGenerator::AddPort() {
  size_t pick = rng_.Below(free_numbers_.size());
  std::swap(free_numbers_[pick], free_numbers_.back());
  Port port;
  port.number = free_numbers_.back();
  free_numbers_.pop_back();
  port.trunk = rng_.Chance(0.25);
  if (port.trunk) {
    size_t count = 2 + rng_.Below(3);
    while (port.trunks.size() < count) {
      int64_t vlan = RandomVlan();
      if (std::find(port.trunks.begin(), port.trunks.end(), vlan) ==
          port.trunks.end()) {
        port.trunks.push_back(vlan);
      }
    }
    std::sort(port.trunks.begin(), port.trunks.end());
  } else {
    port.tag = RandomVlan();
  }
  std::string name = StrFormat("p%lld", static_cast<long long>(next_port_id_++));
  Json op = Op("insert", "Port");
  Json::Object row;
  row["name"] = Json(name);
  row["port"] = Json(port.number);
  row["vlan_mode"] = Json(port.trunk ? "trunk" : "access");
  row["tag"] = Json(port.tag);
  row["trunks"] = IntSet(port.trunks);
  op.as_object()["row"] = Json(std::move(row));
  port_slot_[name] = port_names_.size();
  port_names_.push_back(name);
  trunk_ports_ += port.trunk ? 1 : 0;
  ports_.emplace(std::move(name), std::move(port));
  return Record(std::move(op));
}

Json ConfigGenerator::DeletePort() {
  std::string name = PickPort(-1);
  size_t slot = port_slot_.at(name);
  port_slot_[port_names_.back()] = slot;
  std::swap(port_names_[slot], port_names_.back());
  port_names_.pop_back();
  port_slot_.erase(name);
  freed_in_txn_.push_back(ports_.at(name).number);
  trunk_ports_ -= ports_.at(name).trunk ? 1 : 0;
  ports_.erase(name);
  Json op = Op("delete", "Port");
  op.as_object()["where"] = Where("name", Json(name));
  return Record(std::move(op));
}

Json ConfigGenerator::ChangeTag() {
  const std::string& name = PickPort(0);
  Port& port = ports_.at(name);
  int64_t tag = port.tag;
  while (tag == port.tag) tag = RandomVlan();
  port.tag = tag;
  Json op = Op("update", "Port");
  op.as_object()["where"] = Where("name", Json(name));
  Json::Object row;
  row["tag"] = Json(tag);
  op.as_object()["row"] = Json(std::move(row));
  return Record(std::move(op));
}

Json ConfigGenerator::MutateTrunk() {
  const std::string& name = PickPort(1);
  Port& port = ports_.at(name);
  // Keep trunks between 1 and 4 VLANs: grow small sets, shrink large ones.
  bool add = port.trunks.size() <= 1 ||
             (port.trunks.size() < 4 && rng_.Chance(0.5));
  int64_t vlan = 0;
  if (add) {
    do {
      vlan = RandomVlan();
    } while (std::find(port.trunks.begin(), port.trunks.end(), vlan) !=
             port.trunks.end());
    port.trunks.push_back(vlan);
  } else {
    size_t pick = rng_.Below(port.trunks.size());
    vlan = port.trunks[pick];
    port.trunks.erase(port.trunks.begin() + static_cast<ptrdiff_t>(pick));
  }
  Json op = Op("mutate", "Port");
  op.as_object()["where"] = Where("name", Json(name));
  op.as_object()["mutations"] = Json(Json::Array{Json(Json::Array{
      Json("trunks"), Json(add ? "insert" : "delete"), IntSet({vlan})})});
  return Record(std::move(op));
}

Json ConfigGenerator::AddAcl() {
  std::pair<int64_t, int64_t> key;
  do {
    key = {static_cast<int64_t>(rng_.Next() & 0xFFFFFFFFFFFFULL), RandomVlan()};
  } while (acl_keys_.count(key) != 0);
  acl_keys_.insert(key);
  acls_.push_back(key);
  Json op = Op("insert", "AclRule");
  Json::Object row;
  row["mac"] = Json(key.first);
  row["vlan"] = Json(key.second);
  row["allow"] = Json(rng_.Chance(0.5));
  op.as_object()["row"] = Json(std::move(row));
  return Record(std::move(op));
}

Json ConfigGenerator::DeleteAcl() {
  size_t pick = rng_.Below(acls_.size());
  std::swap(acls_[pick], acls_.back());
  auto [mac, vlan] = acls_.back();
  acls_.pop_back();
  acl_keys_.erase({mac, vlan});
  Json op = Op("delete", "AclRule");
  op.as_object()["where"] = Json(Json::Array{
      Json(Json::Array{Json("mac"), Json("=="), Json(mac)}),
      Json(Json::Array{Json("vlan"), Json("=="), Json(vlan)})});
  return Record(std::move(op));
}

Json ConfigGenerator::AddMirror() {
  int64_t src = 0;
  do {
    src = ports_.at(PickPort(-1)).number;
  } while (mirrored_ports_.count(src) != 0);
  int64_t out = ports_.at(PickPort(-1)).number;
  std::string name =
      StrFormat("m%lld", static_cast<long long>(next_mirror_id_++));
  mirrored_ports_.insert(src);
  mirror_src_[name] = src;
  mirror_names_.push_back(name);
  Json op = Op("insert", "Mirror");
  Json::Object row;
  row["name"] = Json(name);
  row["src_port"] = Json(src);
  row["out_port"] = Json(out);
  op.as_object()["row"] = Json(std::move(row));
  return Record(std::move(op));
}

Json ConfigGenerator::DeleteMirror() {
  size_t pick = rng_.Below(mirror_names_.size());
  std::swap(mirror_names_[pick], mirror_names_.back());
  std::string name = mirror_names_.back();
  mirror_names_.pop_back();
  // The source port stays reserved until the transaction ends (see
  // freed_in_txn_), so no transaction deletes and re-adds one src_port.
  freed_mirror_src_.push_back(mirror_src_.at(name));
  mirror_src_.erase(name);
  Json op = Op("delete", "Mirror");
  op.as_object()["where"] = Where("name", Json(name));
  return Record(std::move(op));
}

Json ConfigGenerator::NextPreload(int max_rows) {
  Json::Array ops;
  while (static_cast<int>(ops.size()) < max_rows) {
    if (static_cast<int>(ports_.size()) < shape_.ports) {
      ops.push_back(AddPort());
    } else if (static_cast<int>(acls_.size()) < shape_.acls) {
      ops.push_back(AddAcl());
    } else if (static_cast<int>(mirror_names_.size()) < shape_.mirrors) {
      ops.push_back(AddMirror());
    } else {
      break;
    }
  }
  return Json(std::move(ops));
}

Json ConfigGenerator::NextTxn() {
  Json::Array ops;
  for (int i = 0; i < shape_.rows_per_txn; ++i) {
    // Mix: 30% port add/delete, 20% access-tag change, 20% trunk-VLAN
    // mutate, 20% ACL add/delete, 10% mirror add/delete.  Adds and deletes
    // alternate around each table's target size, so sizes stay steady.
    uint64_t draw = rng_.Below(100);
    // A tiny configuration may lack access or trunk ports for a moment;
    // those draws then add or delete a port instead.
    bool access = trunk_ports_ < ports_.size(), trunk = trunk_ports_ > 0;
    if (draw < 30 || (draw < 50 && !access) || (draw < 70 && !trunk)) {
      ops.push_back(static_cast<int>(ports_.size()) < shape_.ports
                        ? AddPort()
                        : DeletePort());
    } else if (draw < 50) {
      ops.push_back(ChangeTag());
    } else if (draw < 70) {
      ops.push_back(MutateTrunk());
    } else if (draw < 90) {
      ops.push_back(static_cast<int>(acls_.size()) < shape_.acls
                        ? AddAcl()
                        : DeleteAcl());
    } else {
      ops.push_back(static_cast<int>(mirror_names_.size()) < shape_.mirrors
                        ? AddMirror()
                        : DeleteMirror());
    }
  }
  free_numbers_.insert(free_numbers_.end(), freed_in_txn_.begin(),
                       freed_in_txn_.end());
  freed_in_txn_.clear();
  for (int64_t src : freed_mirror_src_) mirrored_ports_.erase(src);
  freed_mirror_src_.clear();
  return Json(std::move(ops));
}

// ---------------------------------------------------------------------------
// FrameGenerator
// ---------------------------------------------------------------------------

FrameGenerator::FrameGenerator(const StationShape& shape, uint64_t seed)
    : shape_(shape), rng_(seed), by_vlan_(static_cast<size_t>(shape.vlans) + 1) {
  // index * odd + offset is a bijection mod 2^40, so MACs never collide.
  uint64_t offset = rng_.Next();
  for (int i = 0; i < shape.stations; ++i) {
    Station station;
    station.mac = 0x020000000000ULL |
                  ((static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL + offset) &
                   0xFFFFFFFFFFULL);
    station.vlan = 1 + static_cast<int64_t>(rng_.Below(shape.vlans));
    station.port = PortOnVlan(station.vlan);
    stations_.push_back(station);
  }
}

int64_t FrameGenerator::PortVlan(int64_t port) const {
  return 1 + (port - 1) % shape_.vlans;
}

int64_t FrameGenerator::PortOnVlan(int64_t vlan) {
  int64_t per_vlan = shape_.ports / shape_.vlans;
  return vlan + shape_.vlans * static_cast<int64_t>(rng_.Below(per_vlan));
}

size_t FrameGenerator::PickPeer(int64_t vlan, size_t not_index) {
  const std::vector<size_t>& peers = by_vlan_[vlan];
  for (int attempt = 0; attempt < 8 && !peers.empty(); ++attempt) {
    size_t peer = peers[rng_.Below(peers.size())];
    if (peer != not_index &&
        stations_[peer].port != stations_[not_index].port) {
      return peer;
    }
  }
  return not_index;  // no usable peer: the frame floods, unchecked
}

Frame FrameGenerator::Make(const Station& src, const Station& dst,
                           bool learn) {
  Frame frame;
  frame.port = static_cast<uint64_t>(src.port);
  frame.learn = learn;
  frame.vlan = static_cast<uint64_t>(src.vlan);
  frame.src_mac = src.mac;
  bool unicast = &src != &dst;
  frame.expect_port = unicast ? static_cast<uint64_t>(dst.port) : 0;
  uint64_t dst_mac = unicast ? dst.mac : 0xFFFFFFFFFFFFULL;
  frame.packet = net::MakeEthernetFrame(net::Mac(dst_mac), net::Mac(src.mac),
                                        0x0800, {0x45, 0x00});
  hash_.Add(StrFormat("%llu %llx %llx",
                      static_cast<unsigned long long>(frame.port),
                      static_cast<unsigned long long>(src.mac),
                      static_cast<unsigned long long>(dst_mac)));
  return frame;
}

std::vector<Frame> FrameGenerator::WarmUp() {
  std::vector<Frame> frames;
  while (learned_ < static_cast<size_t>(shape_.warm_stations) &&
         learned_ < stations_.size()) {
    size_t index = learned_++;
    size_t peer = PickPeer(stations_[index].vlan, index);
    frames.push_back(Make(stations_[index], stations_[peer], true));
    by_vlan_[stations_[index].vlan].push_back(index);
  }
  return frames;
}

Frame FrameGenerator::Next() {
  size_t index = 0;
  bool learn = rng_.Chance(shape_.learn_share);
  if (learn && learned_ < stations_.size() && rng_.Chance(shape_.new_share)) {
    index = learned_++;
    by_vlan_[stations_[index].vlan].push_back(index);
  } else {
    index = rng_.Below(learned_);
    if (learn) {
      Station& station = stations_[index];
      int64_t port = station.port;
      while (port == station.port) port = PortOnVlan(station.vlan);
      station.port = port;
    }
  }
  size_t peer = PickPeer(stations_[index].vlan, index);
  return Make(stations_[index], stations_[peer], learn);
}

std::map<std::pair<uint64_t, uint64_t>, uint64_t> FrameGenerator::Placement()
    const {
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> placement;
  for (size_t i = 0; i < learned_; ++i) {
    placement[{static_cast<uint64_t>(stations_[i].vlan), stations_[i].mac}] =
        static_cast<uint64_t>(stations_[i].port);
  }
  return placement;
}

}  // namespace nerpa::perfbench
