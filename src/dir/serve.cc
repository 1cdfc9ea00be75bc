#include "dir/serve.h"

namespace amoeba::dir {

void serve_loop(net::Machine& machine, rpc::RpcServer& server,
                const char* layer, sim::Duration cpu_read,
                sim::Duration cpu_write, const OpHandler& handler) {
  obs::Trace& tr = machine.trace();
  obs::Metrics& mx = machine.metrics();
  obs::Counter& mx_reads = mx.counter(layer, "reads");
  obs::Counter& mx_writes = mx.counter(layer, "writes");
  obs::Hist& mx_read_ms = mx.histogram(layer, "read_ms");
  obs::Hist& mx_write_ms = mx.histogram(layer, "write_ms");
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    const sim::Time t0 = machine.sim().now();
    auto op = peek_op(req.data);
    if (!op.is_ok()) {
      server.put_reply(req, reply_error(Errc::bad_request));
      continue;
    }
    // Server-side op span: parents under the request's wire span so the
    // whole server residence joins the client's tree; put_reply threads it
    // on to the reply wire span.
    const std::uint64_t sp = req.ctx.active() ? tr.new_span_id() : 0;
    const obs::TraceContext octx{req.ctx.trace, sp};
    const bool rd = is_read_op(*op);
    traced_cpu(machine, rd ? cpu_read : cpu_write, octx);
    Handled h = handler(req, *op, octx);
    const sim::Duration dur = machine.sim().now() - t0;
    if (h.served && rd) {
      ++mx_reads;
      mx_read_ms.push_back(sim::to_ms(dur));
    } else if (h.served) {
      ++mx_writes;
      mx_write_ms.push_back(sim::to_ms(dur));
    }
    if (sp != 0) {
      tr.complete(t0, dur, layer, h.span, machine.id().v, 0, octx.trace, sp,
                  req.ctx.span);
    }
    server.put_reply(req, std::move(h.reply), octx);
  }
}

int replica_index(const std::vector<net::MachineId>& servers,
                  net::MachineId me) {
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (servers[i] == me) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace amoeba::dir
