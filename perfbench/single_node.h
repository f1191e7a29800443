// A single-node stack shared by point_read, corpus_eval and
// ingest_reserve: Database -> DatabaseService -> TracingHandler ->
// Server (2 workers) on loopback, reached through up to two Clients.
#ifndef PERFBENCH_SINGLE_NODE_H_
#define PERFBENCH_SINGLE_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/engine/database.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/term/universe.h"

namespace perfbench {

class SingleNode : public Workload {
 public:
  Result<Fingerprint> State() override;
  Result<ServerCounters> Counters() override;

 protected:
  /// Parses `facts` into the node's Universe, opens the database over
  /// them, starts the server and connects `clients` clients.
  Status Start(const std::string& facts,
               const seqdl::Database::OpenOptions& open,
               seqdl::ServiceOptions service, size_t clients);
  /// Shuts the server down and closes the clients.
  void Stop();

  // Declaration order is teardown order, reversed: clients close before
  // the server drains, the server before the service it fronts.
  std::unique_ptr<seqdl::Universe> u_;
  std::unique_ptr<seqdl::DatabaseService> service_;
  std::unique_ptr<seqdl::ServiceRequestHandler> handler_;
  std::unique_ptr<TracingHandler> traced_;
  std::unique_ptr<seqdl::Server> server_;
  std::vector<seqdl::Client> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SINGLE_NODE_H_
