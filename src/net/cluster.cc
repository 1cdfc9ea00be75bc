#include "net/cluster.h"

#include <algorithm>

#include "common/log.h"

namespace amoeba::net {

// ---------------------------------------------------------------- Endpoint

PortBinding::PortBinding(Machine& machine, Port port, PacketHandler handler)
    : machine_(machine), port_(port) {
  machine_.register_port(port_, std::move(handler));
}

PortBinding::~PortBinding() { machine_.unregister_port(port_); }

Endpoint::Endpoint(Machine& machine, Port port)
    : mailbox_(machine.sim()),
      binding_(machine, port,
               [this](Packet pkt) { mailbox_.send(std::move(pkt)); }) {}

// ---------------------------------------------------------------- Machine

Machine::Machine(Cluster& cluster, MachineId id, std::string name)
    : cluster_(cluster),
      id_(id),
      name_(std::move(name)),
      cpu_(cluster.sim(), name_ + ".cpu") {}

sim::Simulator& Machine::sim() { return cluster_.sim(); }
Network& Machine::net() { return cluster_.net(); }
obs::Metrics& Machine::metrics() { return cluster_.metrics(); }
obs::Trace& Machine::trace() { return cluster_.trace(); }
obs::Timeline& Machine::timeline() { return cluster_.timeline(); }
obs::HealthMonitor& Machine::health() { return cluster_.health(); }

void Machine::reap_finished() {
  std::erase_if(live_, [](sim::Process* p) { return p->finished(); });
}

sim::Process* Machine::spawn(const std::string& name,
                             std::function<void()> body) {
  assert(up_ && "cannot spawn a process on a down machine");
  reap_finished();
  sim::Process* p = sim().spawn(name_ + "/" + name, std::move(body));
  live_.push_back(p);
  return p;
}

void Machine::install_service(const std::string& name,
                              std::function<void(Machine&)> service_main) {
  services_.push_back({name, std::move(service_main)});
  if (up_) {
    const Service& svc = services_.back();
    spawn(svc.name, [this, main = svc.main] { main(*this); });
  }
}

void Machine::crash() {
  if (!up_) return;
  LOG_INFO << name_ << " CRASH";
  up_ = false;
  // Ports go away instantly; in-flight deliveries are dropped by the
  // up() check. Processes unwind (RAII) at their next blocking point,
  // which in simulated time is "now". Kill in reverse spawn order so worker
  // processes unwind before the owner that holds their shared state.
  ports_.clear();
  for (auto it = live_.rbegin(); it != live_.rend(); ++it) sim().kill(*it);
  live_.clear();
}

void Machine::restart() {
  if (up_) return;
  LOG_INFO << name_ << " RESTART (boot #" << boot_count_ + 1 << ")";
  up_ = true;
  ++boot_count_;
  for (const Service& svc : services_) {
    spawn(svc.name, [this, main = svc.main] { main(*this); });
  }
}

void Machine::register_port(Port port, PacketHandler handler) {
  assert(up_ && "cannot listen on a down machine");
  auto [it, inserted] = ports_.emplace(port.v, std::move(handler));
  (void)it;
  assert(inserted && "port already registered on this machine");
}

void Machine::unregister_port(Port port) {
  // Tolerate a cleared table: crash wipes ports before unwinding owners.
  ports_.erase(port.v);
}

const PacketHandler* Machine::handler_for(Port port) const {
  auto it = ports_.find(port.v);
  return it == ports_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- Cluster

Cluster::Cluster(sim::Simulator& sim, NetConfig cfg)
    : sim_(sim), net_(sim, *this, cfg, metrics_, &trace_) {
  // Ring overflow is silent at the Trace level; mirror it into a counter
  // so tools can warn before computing breakdowns from truncated trees.
  trace_.set_dropped_counter(&metrics_.counter("obs", "trace.dropped"));
}

Cluster::~Cluster() { sim_.shutdown(); }

Machine& Cluster::add_machine(const std::string& name) {
  auto id = MachineId{static_cast<std::uint16_t>(machines_.size())};
  machines_.push_back(std::make_unique<Machine>(*this, id, name));
  return *machines_.back();
}

Machine& Cluster::machine(MachineId id) {
  assert(id.v < machines_.size());
  return *machines_[id.v];
}

const Machine& Cluster::machine(MachineId id) const {
  assert(id.v < machines_.size());
  return *machines_[id.v];
}

std::vector<MachineId> Cluster::machine_ids() const {
  std::vector<MachineId> ids;
  ids.reserve(machines_.size());
  for (const auto& m : machines_) ids.push_back(m->id());
  return ids;
}

void traced_cpu(Machine& m, sim::Duration d, obs::TraceContext parent) {
  const sim::Time t0 = m.sim().now();
  m.cpu().use(d);
  if (parent.active()) {
    obs::Trace& tr = m.trace();
    tr.complete(t0, m.sim().now() - t0, "cpu", "use", m.id().v, 0,
                parent.trace, tr.new_span_id(), parent.span, obs::Leg::cpu);
  }
}

}  // namespace amoeba::net
