#include "perfbench/single_node.h"

#include "src/engine/instance.h"
#include "src/view/view.h"

namespace perfbench {

Status SingleNode::Start(const std::string& facts,
                         const seqdl::Database::OpenOptions& open,
                         seqdl::ServiceOptions service, size_t clients) {
  u_ = std::make_unique<seqdl::Universe>();
  SEQDL_ASSIGN_OR_RETURN(seqdl::Instance edb, seqdl::ParseInstance(*u_, facts));
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                         seqdl::Database::Open(*u_, std::move(edb), open));
  service_ = std::make_unique<seqdl::DatabaseService>(*u_, std::move(db),
                                                      std::move(service));
  handler_ = std::make_unique<seqdl::ServiceRequestHandler>(*service_);
  traced_ = std::make_unique<TracingHandler>(*handler_, "server");
  seqdl::ServerOptions sopts;
  sopts.threads = kServerWorkers;
  SEQDL_ASSIGN_OR_RETURN(server_, seqdl::Server::Start(*traced_, sopts));
  for (size_t i = 0; i < clients; ++i) {
    SEQDL_ASSIGN_OR_RETURN(seqdl::Client c,
                           seqdl::Client::Connect("127.0.0.1", server_->port()));
    clients_.push_back(std::move(c));
  }
  return Status::OK();
}

void SingleNode::Stop() {
  clients_.clear();
  server_.reset();
}

Result<Fingerprint> SingleNode::State() {
  perfbench::Fingerprint f;
  const seqdl::Database& db = service_->db();
  f.facts = db.NumFacts();
  f.segments = db.NumSegments();
  f.paths = u_->num_paths();
  f.programs = service_->NumCachedPrograms();
  f.views = db.views().NumViews();
  return f;
}

Result<ServerCounters> SingleNode::Counters() {
  ServerCounters c;
  SEQDL_ASSIGN_OR_RETURN(c.stats, clients_[0].Stats());
  SEQDL_ASSIGN_OR_RETURN(c.info, clients_[0].Epoch());
  return c;
}

}  // namespace perfbench
