// The client-request path the three directory services share. All of them
// speak one wire protocol (proto.h); they differ only in how an update is
// ordered and made durable. serve_loop owns everything around that: the
// malformed-request reply, the server-side op span, the CPU charge, the
// read/write counts and latency histograms, and the reply. A flavor
// supplies one handler for a well-formed op.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/buffer.h"
#include "dir/proto.h"
#include "net/cluster.h"
#include "rpc/rpc.h"
#include "sim/time.h"

namespace amoeba::dir {

/// A flavor's answer to one well-formed client op.
struct Handled {
  Buffer reply;
  const char* span;  // op span name: "read", "write" or "refused"
  bool served;       // counted as a read or write, with its latency
};

/// The flavor's own work on one op, called after the CPU charge. Spans it
/// records parent under `octx`, the op span (inactive when untraced).
using OpHandler = std::function<Handled(const rpc::IncomingRequest& req,
                                        DirOp op, obs::TraceContext octx)>;

/// Serve client requests on `server` until the process is killed. Per
/// request: answer an unparsable op with bad_request and nothing else;
/// otherwise open a `layer` op span, charge `cpu_read` or `cpu_write`, run
/// `handler`, count a served op in "<layer>.reads/writes/read_ms/write_ms",
/// close the span and reply.
void serve_loop(net::Machine& machine, rpc::RpcServer& server,
                const char* layer, sim::Duration cpu_read,
                sim::Duration cpu_write, const OpHandler& handler);

/// Position of `me` in a service's fixed server list, or -1.
int replica_index(const std::vector<net::MachineId>& servers,
                  net::MachineId me);

/// Admin port of the service's server `index`: `admin_port_base` plus the
/// server's machine id (group recovery RPCs, RPC-flavor intents).
template <typename Opts>
net::Port admin_port(const Opts& opts, int index) {
  return net::Port{opts.admin_port_base.v +
                   opts.dir_servers[static_cast<std::size_t>(index)].v};
}

}  // namespace amoeba::dir
