// The Sun-NFS-like baseline of the paper's Fig. 7: one server, one disk,
// synchronous directory metadata writes, no replication, no fault tolerance
// and no cache consistency. It speaks the same directory wire protocol, so
// the same client and workloads run against it, plus a bullet-protocol file
// endpoint for the tmp-file experiment (modelling a local /usr/tmp with
// write-behind data and synchronous metadata).
#pragma once

#include "net/cluster.h"

namespace amoeba::dir {

struct NfsDirOptions {
  net::Port dir_port{3000};
  net::Port file_port{3001};
};

/// Its counts live in the cluster's metrics registry under "dir.nfs.*".
void install_nfs_dir_server(net::Machine& machine, NfsDirOptions opts);

}  // namespace amoeba::dir
