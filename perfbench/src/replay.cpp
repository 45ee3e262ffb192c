#include "replay.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "cluster/client.h"
#include "cluster/manager_node.h"
#include "core/optimized_detector.h"
#include "detect/accomplice_exchange.h"
#include "detect/pair_sweep.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "service/service.h"
#include "service/wal.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace svc = p2prep::service;
namespace rpc = p2prep::rpc;
using p2prep::core::DetectionReport;

// --- Mirror -----------------------------------------------------------------

Mirror::Mirror(std::size_t num_nodes, std::size_t shards,
               const p2prep::core::DetectorConfig& det)
    : map_(shards, num_nodes) {
  config_.num_nodes = num_nodes;
  config_.num_shards = shards;
  config_.epoch_scope = svc::EpochScope::kGlobal;
  config_.detector = "optimized";
  config_.detector_config = det;
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<svc::ServiceShard>(i, config_));
}

void Mirror::apply(const std::vector<Rating>& ratings, std::size_t begin,
                   std::size_t end) {
  ScopedSpan span("service.apply_rating");
  span.set_items(end - begin);
  for (std::size_t k = begin; k < end; ++k)
    shards_[map_.owner(ratings[k].ratee)]->apply_rating(ratings[k]);
}

EpochResult Mirror::global_epoch(std::uint64_t seq,
                                 p2prep::detect::Executor* executor,
                                 bool time_serial) {
  const auto& det = config_.detector_config;
  {
    ScopedSpan span("managers.update_reputations");
    for (auto& s : shards_) s->manager().update_reputations();
  }
  p2prep::detect::EpochSnapshot snap;
  for (auto& s : shards_) snap.matrices.push_back(&s->manager().matrix());
  if (shards_.size() > 1) snap.owners = map_.owners();

  EpochResult out;
  if (time_serial) {
    DetectionReport serial;
    {
      ScopedSpan span("detect.sweep_serial");
      serial = p2prep::detect::sweep_optimized(snap, det);
    }
    snap.executor = executor;
    {
      ScopedSpan span("detect.sweep");
      out.report = p2prep::detect::sweep_optimized(snap, det);
    }
    if (serial.pairs.size() != out.report.pairs.size() ||
        !(serial.cost == out.report.cost))
      throw std::runtime_error("parallel sweep differs from the serial sweep");
  } else {
    snap.executor = executor;
    ScopedSpan span(executor ? "detect.sweep" : "detect.sweep_serial");
    out.report = p2prep::detect::sweep_optimized(snap, det);
  }
  {
    ScopedSpan span("detect.accomplice");
    out.accomplice_rounds =
        p2prep::detect::propagate_accomplices(snap, det, out.report);
  }
  const std::vector<NodeId> flagged = out.report.colluders();
  {
    // kReset suppression, as the service applies it after a global sweep.
    ScopedSpan span("managers.suppress");
    if (!flagged.empty()) {
      for (NodeId id : flagged) {
        auto& owner = *shards_[map_.owner(id)];
        owner.manager().restore_detected({id});
        owner.engine().reset_reputation(id);
      }
      for (auto& s : shards_) s->manager().update_reputations();
    }
  }
  out.text = svc::format_epoch_report("global", seq, out.report);
  {
    ScopedSpan span("service.publish");
    for (auto& s : shards_) {
      std::vector<NodeId> owned;
      for (NodeId id : flagged)
        if (map_.owner(id) == s->index()) owned.push_back(id);
      s->finish_global_epoch(seq, owned, out.text);
    }
  }
  return out;
}

std::uint64_t Mirror::matrix_bytes() const {
  std::uint64_t b = 0;
  for (const auto& s : shards_) b += s->manager().matrix().approx_memory_bytes();
  return b;
}

Counts count_pass(const std::vector<Rating>& prefix, std::size_t num_nodes,
                  std::size_t shards,
                  const p2prep::core::DetectorConfig& det) {
  Mirror mirror(num_nodes, shards, det);
  mirror.apply(prefix, 0, prefix.size());
  const EpochResult e = mirror.global_epoch(1, nullptr, false);
  Counts c;
  c.ratings = prefix.size();
  c.pairs_flagged = e.report.pairs.size();
  c.cost_scans = e.report.cost.element_scans;
  c.cost_checks = e.report.cost.checks;
  c.matrix_bytes = mirror.matrix_bytes();
  std::string frames;
  for (const Rating& r : prefix)
    svc::append_wal_frame(frames, svc::WalRecord::make_rating(r));
  c.wal_bytes_per_rating = prefix.empty() ? 0.0
                                          : static_cast<double>(frames.size()) /
                                                static_cast<double>(prefix.size());
  c.report_text = e.text;
  return c;
}

// --- Layer replay -----------------------------------------------------------

namespace {

/// Binds and releases an ephemeral loopback port for a manager ring.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot reserve a loopback port");
  return ntohs(addr.sin_port);
}

constexpr std::size_t kReplayEpochs = 4;
constexpr std::size_t kReplayMaxRatings = 1000000;

void replay_codec(const std::vector<Rating>& stream, Metrics& out) {
  const std::size_t n = std::min<std::size_t>(stream.size(), 65536);
  std::uint64_t bytes = 0;
  std::uint64_t ratings = 0;
  for (std::size_t pos = 0; pos + 256 <= n; pos += 256) {
    ScopedSpan span("rpc.codec");
    span.set_items(256);
    rpc::SubmitBatchRequest req;
    req.ratings.assign(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                       stream.begin() + static_cast<std::ptrdiff_t>(pos + 256));
    std::string payload;
    rpc::encode_request_header(payload, rpc::MsgType::kSubmitBatch, pos + 1);
    req.encode(payload);
    const std::string frame = rpc::encode_frame(payload);
    std::string_view view;
    std::size_t consumed = 0;
    if (rpc::try_decode_frame(frame, rpc::kDefaultMaxFrameBytes, &view,
                              &consumed) != rpc::FrameResult::kFrame)
      throw std::runtime_error("codec replay: frame did not decode");
    rpc::Reader r(view);
    rpc::RequestHeader h;
    if (!rpc::decode_request_header(r, h)) throw std::runtime_error("codec");
    const auto back = rpc::SubmitBatchRequest::decode(r);
    if (!back || back->ratings != req.ratings)
      throw std::runtime_error("codec replay: batch did not round-trip");
    bytes += frame.size();
    ratings += 256;
  }
  out.set("rpc.bytes_in_per_rating",
          static_cast<double>(bytes) / static_cast<double>(ratings), "B");
}

void replay_matrix(const std::vector<Rating>& stream, std::size_t n,
                   const p2prep::core::DetectorConfig& det, Metrics& out) {
  p2prep::rating::RatingMatrix m(n, p2prep::rating::MatrixBackend::kSparse);
  m.set_frequency_threshold(det.frequency_min);
  {
    ScopedSpan span("rating.add");
    span.set_items(stream.size());
    for (const Rating& r : stream) m.add_rating(r.ratee, r.rater, r.score);
  }
  std::uint64_t cells = 0;
  std::uint64_t sum = 0;
  {
    ScopedSpan span("rating.row_visit");
    for (NodeId i = 0; i < m.size(); ++i) {
      m.for_each_cell(i, [&](NodeId, const auto& stats) {
        ++cells;
        sum += stats.total;
      });
    }
    span.set_items(cells);
  }
  if (sum != stream.size()) throw std::runtime_error("matrix lost ratings");
  out.set("rating.bytes_per_cell",
          static_cast<double>(m.approx_memory_bytes()) /
              static_cast<double>(std::max<std::uint64_t>(cells, 1)),
          "B");
}

void replay_durability(const ReplayInput& in, Mirror& mirror, Metrics& out) {
  const std::size_t n = std::min<std::size_t>(in.stream.size(), 50000);
  const std::string wal_path = in.scratch_dir + "/replay.wal";
  {
    auto writer = svc::WalWriter::create(wal_path, 1, 0, 1);
    {
      ScopedSpan span("service.wal_append");
      span.set_items(n);
      for (std::size_t k = 0; k < n; ++k)
        writer.append(svc::WalRecord::make_rating(in.stream[k]));
    }
    out.set("service.wal_bytes_per_rating",
            static_cast<double>(writer.bytes() - svc::kWalHeaderBytes) /
                static_cast<double>(std::max<std::size_t>(n, 1)),
            "B");
  }
  {
    ScopedSpan span("service.checkpoint");
    for (std::size_t i = 0; i < mirror.shards(); ++i) {
      const auto ckpt = mirror.shard(i).make_checkpoint();
      if (!ckpt || !svc::write_checkpoint(
                       in.scratch_dir + "/replay-" + std::to_string(i) + ".ckpt",
                       *ckpt))
        throw std::runtime_error("checkpoint replay failed");
    }
  }
  svc::ServiceConfig cfg;
  cfg.num_nodes = in.num_nodes;
  cfg.num_shards = mirror.shards();
  cfg.detector_config = in.detector;
  std::vector<std::unique_ptr<svc::ServiceShard>> fresh;
  {
    ScopedSpan span("service.checkpoint_load");
    for (std::size_t i = 0; i < mirror.shards(); ++i) {
      const auto ckpt = svc::read_checkpoint(in.scratch_dir + "/replay-" +
                                             std::to_string(i) + ".ckpt");
      if (!ckpt) throw std::runtime_error("checkpoint did not load");
      fresh.push_back(std::make_unique<svc::ServiceShard>(i, cfg));
      fresh.back()->restore(*ckpt);
    }
  }
  {
    ScopedSpan span("service.wal_replay");
    const auto wal = svc::read_wal(wal_path);
    if (!wal.found || wal.records.size() != n)
      throw std::runtime_error("WAL replay read the wrong record count");
    svc::ServiceShard shard(0, cfg);
    for (const auto& rec : wal.records) shard.apply_rating(rec.rating);
    span.set_items(n);
  }
}

void replay_service(const ReplayInput& in, std::size_t shards, Metrics& out) {
  svc::ServiceConfig cfg;
  cfg.num_nodes = in.num_nodes;
  cfg.num_shards = shards;
  cfg.queue_capacity = 16384;
  cfg.epoch_ratings = std::uint64_t{1} << 40;
  cfg.detector_config = in.detector;
  svc::ReputationService service(cfg);
  const std::size_t n = std::min<std::size_t>(in.stream.size(), 100000);
  {
    ScopedSpan span("service.ingest");
    span.set_items(n);
    for (std::size_t k = 0; k < n; ++k) service.ingest(in.stream[k]);
  }
  {
    ScopedSpan span("service.drain");
    service.drain();
  }
  p2prep::util::Rng rng(7);
  for (int k = 0; k < 512; ++k) {
    ScopedSpan span("service.snapshot");
    const auto snap = service.snapshot();
    (void)snap.reputation(static_cast<NodeId>(rng.next_below(in.num_nodes)));
  }

  // RPC loopback over the same service: single submits and reads.
  rpc::RpcServerConfig scfg;
  scfg.num_workers = 2;
  rpc::RpcServer server(service, scfg);
  rpc::RpcClientConfig ccfg;
  ccfg.port = server.port();
  rpc::RpcClient client(ccfg);
  if (!client.connect()) throw std::runtime_error("loopback connect failed");
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  for (std::size_t k = 0; k < 3000; ++k) {
    ScopedSpan span("rpc.submit");
    const auto r = client.submit_rating_with_retry(in.stream[k % n]);
    ++ops;
    if (!r.ok || r.status != rpc::Status::kOk) ++failures;
  }
  for (std::size_t k = 0; k < 1000; ++k) {
    ScopedSpan span("rpc.query");
    rpc::QueryReputationResponse resp;
    const auto r = client.query_reputation(
        static_cast<NodeId>(rng.next_below(in.num_nodes)), &resp);
    ++ops;
    if (!r.ok || r.status != rpc::Status::kOk) ++failures;
  }
  const auto st = server.stats();
  out.set("rpc.shed_frac",
          static_cast<double>(st.shed) /
              static_cast<double>(std::max<std::uint64_t>(st.requests, 1)),
          "frac");
  out.set("rpc.retries_per_kop",
          1000.0 * static_cast<double>(client.stats().retries) /
              static_cast<double>(ops),
          "1/kop");
  if (failures != 0) throw std::runtime_error("loopback RPC ops failed");
  client.close();
  server.shutdown();
  service.stop();
}

void replay_cluster(const ReplayInput& in, Metrics& out) {
  namespace cl = p2prep::cluster;
  constexpr std::size_t kRing = 3;
  std::vector<cl::ManagerEndpoint> ring;
  for (std::size_t i = 0; i < kRing; ++i)
    ring.push_back({"127.0.0.1", reserve_port()});
  std::vector<std::unique_ptr<cl::ManagerNode>> nodes;
  for (std::size_t i = 0; i < kRing; ++i) {
    cl::ManagerNodeConfig cfg;
    cfg.index = i;
    cfg.ring = ring;
    cfg.replication = 2;
    cfg.service.num_nodes = in.num_nodes;
    cfg.service.detector_config = in.detector;
    cfg.data_dir = in.scratch_dir + "/cluster-m" + std::to_string(i);
    fs::create_directories(cfg.data_dir);
    nodes.push_back(std::make_unique<cl::ManagerNode>(cfg));
    nodes.back()->start();
  }
  cl::ClusterClientConfig cc;
  cc.ring = ring;
  cc.replication = 2;
  cc.num_nodes = in.num_nodes;
  cc.source = 77;
  cl::ClusterClient client(cc);
  std::uint64_t failures = 0;
  const std::size_t n = std::min<std::size_t>(in.stream.size(), 3000);
  for (std::size_t k = 0; k < n; ++k) {
    ScopedSpan span("cluster.insert");
    if (!client.insert(in.stream[k])) ++failures;
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t r = 0; r < kRing; ++r) {
      ScopedSpan span("cluster.state_pull");
      if (!client.pull_state(r)) ++failures;
    }
    ScopedSpan span("cluster.push");
    if (!client.push_colluders(static_cast<std::uint64_t>(round + 1), {}))
      ++failures;
  }
  std::uint64_t lag = 0;
  for (std::size_t i = 0; i < kRing; ++i) {
    p2prep::service::ServiceMetrics m;
    if (client.get_metrics(i, &m)) lag += m.cluster_replica_lag;
  }
  out.set("cluster.forward_failures", static_cast<double>(failures), "count");
  out.set("cluster.replica_lag", static_cast<double>(lag), "count");
  for (auto& node : nodes) node->stop();
}

}  // namespace

void layer_replay(const ReplayInput& in, Metrics& out) {
  fs::remove_all(in.scratch_dir);
  fs::create_directories(in.scratch_dir);
  Tracer::get().set_phase(1);
  const bool was_enabled = Tracer::get().enabled();
  Tracer::get().set_enabled(true);

  std::vector<Rating> stream(
      in.stream.begin(),
      in.stream.begin() + static_cast<std::ptrdiff_t>(std::min(
                              in.stream.size(), kReplayMaxRatings)));
  replay_codec(stream, out);
  replay_matrix(stream, in.num_nodes, in.detector, out);

  // Mirror the service state epoch by epoch over the recorded stream.
  Mirror mirror(in.num_nodes, in.shards, in.detector);
  PoolExecutor executor(4);
  std::size_t pos = 0;
  std::uint64_t seq = 0;
  std::uint64_t rounds = 0;
  auto epoch = [&] {
    rounds += mirror.global_epoch(++seq, &executor, true).accomplice_rounds;
    // The single-matrix detector a per-shard epoch runs, over each shard
    // matrix with the reputations the epoch just refreshed.
    for (std::size_t i = 0; i < mirror.shards(); ++i) {
      ScopedSpan span("core.detect");
      const p2prep::core::OptimizedCollusionDetector detector(in.detector);
      (void)detector.detect(mirror.shard(i).manager().matrix());
    }
  };
  for (std::size_t end : in.epoch_ends) {
    if (end > stream.size() || seq >= kReplayEpochs) break;
    mirror.apply(stream, pos, end);
    pos = end;
    epoch();
  }
  if (seq == 0) {
    // No epoch fell inside the replay window: close one at its end.
    mirror.apply(stream, pos, stream.size());
    epoch();
  }
  out.set("detect.accomplice_rounds",
          static_cast<double>(rounds) / static_cast<double>(seq), "count");

  replay_durability(in, mirror, out);
  replay_service(in, in.shards, out);
  replay_cluster(in, out);

  Tracer::get().set_enabled(was_enabled);
  Tracer::get().set_phase(0);
}

}  // namespace perfbench
