#include "fwd/service.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "fault/plan.hpp"
#include "fwd/rpc_endpoints.hpp"
#include "rpc/chaos.hpp"
#include "rpc/transport.hpp"

namespace iofa::fwd {

/// Framed-transport state: one transport + server pair per ION link
/// plus one for the mapping link. Null while the deployment runs
/// in-proc (the ports are then direct and no frame ever exists).
struct ForwardingService::RpcLinks {
  struct IonLink {
    std::unique_ptr<rpc::Transport> transport;  ///< chaos-wrapped
    std::unique_ptr<RpcIonServer> server;
  };
  std::vector<IonLink> ions;
  std::unique_ptr<rpc::Transport> mapping_transport;
  std::unique_ptr<RpcMappingServer> mapping_server;
};

void ForwardingService::build_ports() {
  if (transport_ == rpc::TransportKind::kInProc) {
    // Today's wiring: one virtual call per submit, zero frames, the
    // rpc.* fault sites are never checked - replays byte-identical.
    for (auto& d : daemons_) {
      ion_ports_.push_back(std::make_unique<DirectIonPort>(*d));
    }
    mapping_port_ = std::make_unique<DirectMappingPort>(mapping_store_);
    return;
  }
  rpc_ = std::make_unique<RpcLinks>();
  auto framed = [&](const std::string& req_site,
                    const std::string& rsp_site) {
    std::unique_ptr<rpc::Transport> t =
        rpc::make_transport(transport_);
    if (config_.injector) {
      // The chaos decorator is where rpc.<link>.drop/dup/reorder/
      // truncate/delay land; without an injector frames fly untouched.
      t = std::make_unique<rpc::ChaosTransport>(
          std::move(t), config_.injector, req_site, rsp_site);
    }
    return t;
  };
  for (int i = 0; i < ion_count(); ++i) {
    RpcLinks::IonLink link;
    link.transport =
        framed(fault::rpc_req_site(i), fault::rpc_rsp_site(i));
    // Server before stub: the server-side handler must be installed
    // before the first frame can be sent.
    link.server = std::make_unique<RpcIonServer>(*link.transport, *this, i,
                                                 config_.ion.registry);
    ion_ports_.push_back(std::make_unique<RpcIonClient>(
        *link.transport, i, config_.rpc,
        config_.rpc_seed ^ static_cast<std::uint64_t>(i),
        config_.ion.registry));
    rpc_->ions.push_back(std::move(link));
  }
  rpc_->mapping_transport =
      framed(fault::kRpcMappingReqSite, fault::kRpcMappingRspSite);
  rpc_->mapping_server = std::make_unique<RpcMappingServer>(
      *rpc_->mapping_transport, mapping_store_, config_.ion.registry);
  mapping_port_ = std::make_unique<RpcMappingClient>(
      *rpc_->mapping_transport, config_.rpc, config_.ion.registry);
}

ForwardingService::ForwardingService(ServiceConfig config)
    : config_(config), mapping_store_(config_.ion.registry) {
  rpc::validate_rpc_options(config_.rpc);
  transport_ = rpc::resolve_transport(config_.transport);
  if (config_.injector && !config_.pfs.injector) {
    config_.pfs.injector = config_.injector;
  }
  pfs_ = std::make_unique<EmulatedPfs>(config_.pfs);
  slab_pool_ = std::make_unique<SlabPool>(config_.slab);
  {
    // Pool events land in telemetry through hooks: common/ stays free
    // of a telemetry dependency, the counters still tick lock-free.
    auto& reg = config_.ion.registry ? *config_.ion.registry
                                     : telemetry::Registry::global();
    auto* acquired = &reg.counter("fwd.ion.slab.acquired");
    auto* released = &reg.counter("fwd.ion.slab.released");
    auto* exhausted = &reg.counter("fwd.ion.slab.exhausted");
    SlabPool::Hooks hooks;
    hooks.on_acquire = [acquired] { acquired->add(); };
    hooks.on_release = [released] { released->add(); };
    hooks.on_exhausted = [exhausted] { exhausted->add(); };
    slab_pool_->set_hooks(std::move(hooks));
  }
  {
    auto& reg = config_.ion.registry ? *config_.ion.registry
                                     : telemetry::Registry::global();
    if (config_.qos.enabled) {
      qos_ = std::make_unique<qos::QosRuntime>(
          config_.qos, config_.ion.ingest_bandwidth, config_.ion_count, reg);
      ledger_.emplace(qos_->metrics());
    } else {
      ledger_.emplace(reg);
    }
  }
  daemons_.reserve(static_cast<std::size_t>(config_.ion_count));
  for (int i = 0; i < config_.ion_count; ++i) {
    IonParams params = config_.ion;
    if (config_.injector && !params.injector) {
      params.injector = config_.injector;
    }
    if (qos_) params.qos = qos_->enforcer(i);
    params.ledger = &*ledger_;
    if (!params.slab_pool) params.slab_pool = slab_pool_.get();
    daemons_.push_back(std::make_unique<IonDaemon>(i, params, *pfs_));
  }
  mapping_store_.set_injector(config_.injector);
  build_ports();
  if (config_.fallback_bandwidth > 0.0) {
    // Deployment-wide degradation limiter, deliberately outside the
    // per-tenant hierarchy.  iofa-lint: allow(raw-token-bucket)
    fallback_limiter_ = std::make_unique<TokenBucket>(
        config_.fallback_bandwidth,
        std::max(config_.fallback_bandwidth * 0.05,
                 static_cast<double>(MiB)));
  }
}

ForwardingService::~ForwardingService() { shutdown(); }

void ForwardingService::apply_mapping(const core::Mapping& mapping) {
  // Through the port: in-proc this IS mapping_store_.publish; over a
  // framed transport the publish can now be lost at the message layer
  // (bounded attempts) - the dropped-mapping scenario the
  // HealthMonitor already self-heals.
  mapping_port_->publish(mapping);
}

void ForwardingService::drain() {
  for (auto& d : daemons_) d->drain();
}

void ForwardingService::shutdown() {
  if (!rpc_ || rpc_closed_) {
    for (auto& d : daemons_) d->shutdown();
    return;
  }
  rpc_closed_ = true;
  // Answers nobody waits for (abandoned calls, chaos dups) can fill a
  // client side until a daemon blocks sending more, so each ION link is
  // read until it closes. The daemons then run every continuation and
  // the last responses leave over a live transport; only then do the
  // transports close (after this no handler fires into a stub again).
  std::vector<std::thread> readers;  // iofa-lint: allow(raw-thread)
  for (auto& link : rpc_->ions) {
    readers.emplace_back([&t = *link.transport] {
      const Seconds forever = std::numeric_limits<Seconds>::infinity();
      rpc::Received r;
      while ((r = t.receive(rpc::kClientSide, forever)) !=
             rpc::Received::kClosed) {
        if (r == rpc::Received::kBusy) sleep_for_seconds(1e-3);  // a waiter
      }
    });
  }
  for (auto& d : daemons_) d->shutdown();
  for (auto& link : rpc_->ions) link.transport->close();
  rpc_->mapping_transport->close();
  for (auto& r : readers) r.join();
}

}  // namespace iofa::fwd
