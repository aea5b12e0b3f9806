// pipeline_bench — the end-to-end benchmark of the castream serving path.
//
// One process runs a loopback topology:
//
//   writer 0 ─ Writer → ShardedDriver(1 shard) → ShardPublisher ─┐
//   writer 1 ─ Writer → ShardedDriver(1 shard) → ShardPublisher ─┼─▶ RelayNode ─▶ root SnapshotReducer
//                                                                 query thread ── QueryServed ──┘
//
// Each writer thread mirrors `castream_served worker`: it inserts one
// publish tick of tuples, then Flush + WaitIdle, PublishSnapshots,
// SerializeShardSnapshot and Publish, all on the writer thread. The relay
// keeps the castream_served defaults (50 ms poll, no republish throttle).
// One open-loop query thread asks the root at a fixed rate, one connection
// at a time, and every query is timed from its scheduled send time.
//
// Inputs are generated through bench/workload.h before anything is timed;
// each worker gets the tuples whose x hashes to it and replays its slice
// cyclically for a fixed number of ticks, so one (workload, seed) pair is
// one exact input. After the drain the root's cutoff ladder must equal an
// in-process oracle built from the same per-worker inputs bit for bit;
// any mismatch exits non-zero.
//
//   pipeline_bench --workload W --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the pipeline
// once untraced and once with spans around every call into a layer, adds
// the post-run isolation probes, prints the per-layer metrics and writes
// the spans to --trace-out. The last stdout line is one JSON object.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "src/core/any_summary.h"
#include "src/core/exact_correlated.h"
#include "src/driver/hot_key_buffer.h"
#include "src/driver/merge_cache.h"
#include "src/driver/sharded_driver.h"
#include "src/hash/hash_family.h"
#include "src/io/decoder.h"
#include "src/service/client.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"
#include "src/service/relay.h"

#ifndef CASTREAM_PERFBENCH_BUILD_TYPE
#define CASTREAM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace castream;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kWorkers = 2;
constexpr uint32_t kRelayId = kWorkers;  // topology "0>2,1>2,2>3"
// Same worker split as castream_served, decorrelated from the driver's
// shard seed.
constexpr uint64_t kWorkerSplitSeed = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kSummarySeed = 42;
constexpr uint64_t kYRange = uint64_t{1} << 20;
constexpr uint64_t kXRange = 500000;
// Tuples per Writer::InsertBatch call; slices and ticks are multiples.
constexpr size_t kChunk = 4096;
// Tuples generated per run, split across the workers by x-hash.
constexpr size_t kStreamTuples = size_t{1} << 21;
// castream_served worker's driver batch, and bench_zipf_ingest's table.
constexpr size_t kDriverBatch = 512;
constexpr size_t kCoalesceSlots = 8192;
constexpr int kFinalPublishRounds = 16;
constexpr int kSetupTrials = 11;
constexpr auto kFinalVisibleTimeout = std::chrono::seconds(60);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* kind;
  SummaryOptions opts;
  size_t tick_tuples;        // per worker per publish tick
  double tuples_per_sec;     // per worker: sizing estimate (writers are closed loop)
  double queries_per_sec;
  std::function<std::vector<Tuple>(size_t, uint64_t)> generate;
};

SummaryOptions F2Options() {
  SummaryOptions o;
  o.eps = 0.2;
  o.delta = 0.1;
  o.y_max = kYRange - 1;
  o.f_max_hint = 1e12;
  o.x_domain = kXRange - 1;
  return o;
}

// Why each workload exists, and what it should and should not move, is in
// perfbench/README.md. The closed-loop rates only size the fixed work so a
// run lasts about --seconds on a 4-CPU x86 box; they are not checked.
std::vector<Workload> Workloads() {
  return {
      {"ingest_f2_uniform", "f2", F2Options(), 192 * 1024, 565e3, 100,
       [](size_t n, uint64_t seed) {
         return bench::MakeUniformStream(n, kXRange - 1, kYRange - 1, seed);
       }},
      {"publish_f2_zipf", "f2", F2Options(), 64 * 1024, 277e3, 100,
       [](size_t n, uint64_t seed) {
         return bench::MakeZipfStream(n, kXRange, 1.1, 64, kYRange, seed);
       }},
  };
}

uint32_t WorkerOf(uint64_t x) {
  return static_cast<uint32_t>(MixHash64(x, kWorkerSplitSeed) % kWorkers);
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max) {
  std::vector<uint64_t> cutoffs{0, 1};
  for (uint64_t c = 2; c < y_max; c *= 4) cutoffs.push_back(c - 1);
  cutoffs.push_back(y_max / 2);
  cutoffs.push_back(y_max);
  return cutoffs;
}

AnySummary NewSummary(const Workload& w) {
  return MakeSummary(w.kind, w.opts, kSummarySeed).value();
}

// One worker's input: its slice of the generated stream, replayed
// cyclically for `ticks` publish ticks.
struct WorkerInput {
  std::vector<Tuple> slice;
  size_t ticks = 0;
  size_t tick_tuples = 0;

  uint64_t total() const { return uint64_t{ticks} * tick_tuples; }
  // The chunk starting at absolute position `pos` (a multiple of kChunk).
  std::span<const Tuple> Chunk(uint64_t pos) const {
    return std::span<const Tuple>(slice).subspan(pos % slice.size(), kChunk);
  }
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; spans of one tick or query share an id.
// Each thread appends to its own log; logs are merged after the threads
// join and written out at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent;  // 0 = root span
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

Clock::time_point g_epoch = Clock::now();

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

class SpanLog {
 public:
  SpanLog(bool enabled, uint64_t log_id) : enabled_(enabled), base_(log_id << 40) {}

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return base_ | ++next_; }
  void Add(const SpanRecord& r) { spans_.push_back(r); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t base_;
  uint64_t next_ = 0;
  std::vector<SpanRecord> spans_;
};

// RAII span around one call into a layer; a no-op on a disabled log.
class Span {
 public:
  Span(SpanLog& log, const char* name, uint64_t trace_id, uint64_t parent = 0)
      : log_(log), name_(name), trace_id_(trace_id), parent_(parent) {
    if (log_.enabled()) {
      id_ = log_.NextId();
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (log_.enabled()) {
      log_.Add({trace_id_, id_, parent_, name_, Ns(start_), Ns(Clock::now())});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  uint64_t trace_id_;
  uint64_t parent_;
  uint64_t id_ = 0;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

// The guide's rule: a percentile is reported only with at least ten
// samples beyond it.
bool Supports(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) + 1e-9 >= 10.0;  // 100 * 0.1 < 10
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The topology
// ---------------------------------------------------------------------------

struct Worker {
  std::unique_ptr<ShardedDriver<AnySummary>> driver;
  std::unique_ptr<service::ShardPublisher> publisher;
};

struct Topology {
  std::unique_ptr<service::SnapshotReducer> root;
  std::unique_ptr<service::RelayNode> relay;
  Worker workers[kWorkers];

  // Stops in dependency order: the relay drains its downstream and
  // flushes its final table to the root, then the root drains.
  Status Shutdown() {
    Status relay_flush = relay ? relay->Shutdown() : Status::OK();
    for (Worker& w : workers) {
      w.publisher.reset();
      w.driver.reset();
    }
    relay.reset();
    if (root) root->Shutdown();
    root.reset();
    return relay_flush;
  }
  ~Topology() { (void)Shutdown(); }
};

// Builds root + relay + both drivers and publishers, and waits for the
// first root answer. What setup_s measures.
Result<std::unique_ptr<Topology>> StartTopology(const Workload& w) {
  auto topo = std::make_unique<Topology>();
  service::ReducerOptions root_opts;
  root_opts.kind = w.kind;
  root_opts.summary = w.opts;
  root_opts.summary_seed = kSummarySeed;
  CASTREAM_ASSIGN_OR_RETURN(topo->root,
                            service::SnapshotReducer::Start(root_opts));

  service::RelayOptions relay_opts;
  relay_opts.reducer = root_opts;
  relay_opts.upstream.port = topo->root->port();
  relay_opts.upstream.worker_id = kRelayId;
  relay_opts.upstream.connect_attempts = 4;  // as castream_served relay
  relay_opts.poll_interval = std::chrono::milliseconds(50);
  relay_opts.min_republish_interval = std::chrono::milliseconds(0);
  CASTREAM_ASSIGN_OR_RETURN(topo->relay, service::RelayNode::Start(relay_opts));

  ShardedDriverOptions dopts;
  dopts.shards = 1;
  dopts.batch_size = kDriverBatch;
  dopts.writer_coalesce_slots = kCoalesceSlots;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    topo->workers[i].driver = std::make_unique<ShardedDriver<AnySummary>>(
        dopts, [&w] { return NewSummary(w); });
    service::PublisherOptions popts;
    popts.port = topo->relay->port();
    popts.worker_id = i;
    popts.connect_attempts = 6;  // as castream_served worker
    topo->workers[i].publisher =
        std::make_unique<service::ShardPublisher>(popts);
  }
  CASTREAM_ASSIGN_OR_RETURN(
      service::ServedAnswer first,
      service::QueryServed("127.0.0.1", topo->root->port(), w.opts.y_max));
  if (!first.status.ok()) return first.status;
  return topo;
}

// ---------------------------------------------------------------------------
// One pipeline run
// ---------------------------------------------------------------------------

struct TickRecord {
  uint64_t epoch = 0;
  Clock::time_point last_tuple;  // the tick's last tuple handed to the Writer
  uint64_t blob_bytes = 0;
};

struct WorkerResult {
  std::vector<TickRecord> ticks;
  uint64_t final_epoch = 0;
  uint64_t publish_attempted = 0;
  uint64_t publish_failed = 0;
  uint64_t wire_bytes = 0;  // payload bytes of publishes that landed
  uint64_t coalesce_in = 0;
  uint64_t coalesce_out = 0;
  uint64_t processed = 0;
  uint64_t reconnects = 0;
  std::string final_blob;
  Clock::time_point first_insert;
  std::string error;
};

struct QueryRecord {
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point done;
  bool transport_ok = false;
  bool answer_ok = false;  // false on a FAIL-region answer
  uint64_t epoch[kWorkers] = {};
};

void RunWriter(const WorkerInput& in, Worker& worker, uint32_t id, SpanLog& log,
               WorkerResult* out) {
  auto writer = worker.driver->MakeWriter();
  uint64_t pos = 0;
  out->first_insert = Clock::now();
  for (size_t t = 0; t < in.ticks; ++t) {
    const uint64_t trace_id = (uint64_t{id + 1} << 48) | t;
    Span tick(log, "tick", trace_id);
    for (size_t done = 0; done < in.tick_tuples; done += kChunk, pos += kChunk) {
      Span insert(log, "driver.insert", trace_id, tick.id());
      writer.InsertBatch(in.Chunk(pos));
    }
    TickRecord rec;
    rec.last_tuple = Clock::now();
    {
      Span drain(log, "driver.drain", trace_id, tick.id());
      writer.Flush();
      worker.driver->WaitIdle();
    }
    {
      Span snap(log, "driver.snapshot", trace_id, tick.id());
      worker.driver->PublishSnapshots();
    }
    std::string blob;
    {
      Span ser(log, "io.serialize", trace_id, tick.id());
      Status st = worker.driver->SerializeShardSnapshot(0, &blob, &rec.epoch);
      if (!st.ok()) {
        out->error = "serialize: " + st.ToString();
        return;
      }
      if (rec.epoch == 0) {
        out->error = "the shard published no snapshot";
        return;
      }
    }
    rec.blob_bytes = blob.size();
    const bool last = t + 1 == in.ticks;
    // The final publish is the correctness edge: it must land, so it gets
    // castream_served's generous retry; a mid-stream failure is retried by
    // the next tick.
    for (int round = 0; round < (last ? kFinalPublishRounds : 1); ++round) {
      Status st;
      {
        Span pub(log, "service.publish", trace_id, tick.id());
        st = worker.publisher->Publish(0, rec.epoch, blob);
      }
      ++out->publish_attempted;
      if (st.ok()) {
        out->wire_bytes += blob.size();
        break;
      }
      ++out->publish_failed;
      if (st.code() != Status::Code::kUnavailable) {
        out->error = "publish: " + st.ToString();
        return;
      }
      if (last && round + 1 == kFinalPublishRounds) {
        out->error = "final publish never landed: " + st.ToString();
        return;
      }
    }
    out->ticks.push_back(rec);
    if (last) out->final_blob = std::move(blob);
  }
  out->final_epoch = out->ticks.empty() ? 0 : out->ticks.back().epoch;
  out->coalesce_in = writer.coalescer().tuples_in();
  out->coalesce_out = writer.coalescer().tuples_out();
  out->processed = worker.driver->tuples_processed();
  out->reconnects = worker.publisher->generation() - 1;
}

struct PipelineResult {
  bool ok = false;
  std::string error;
  uint64_t tuples = 0;
  double ingest_secs = 0;
  std::vector<double> visible_ms;
  std::vector<QueryRecord> queries;
  WorkerResult workers[kWorkers];
  std::vector<service::ServedAnswer> ladder;  // root's final ladder
  service::ReducerStats root_stats;
  service::ReducerStats relay_stats;
  uint64_t relay_republishes = 0;
  double peak_rss_mb = 0;
  std::vector<SpanRecord> spans;
  double answer_us = 0;  // probe, traced runs only
};

// Open loop at w.queries_per_sec, one connection at a time. Returns once an
// answer covers both workers' final epochs (published by the main thread
// when the writers are done) or when told to stop.
void RunQueries(const Workload& w, uint16_t port, Clock::time_point start,
                const std::atomic<uint64_t>* final_epoch,
                const std::atomic<bool>* stop, SpanLog& log,
                std::vector<QueryRecord>* out, Clock::time_point* covered_at,
                std::atomic<bool>* covered) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w.queries_per_sec));
  bench::CutoffWalk walk;
  for (uint64_t k = 0; !stop->load(); ++k) {
    QueryRecord rec;
    rec.scheduled = start + interval * static_cast<int64_t>(k);
    std::this_thread::sleep_until(rec.scheduled);
    const uint64_t cutoff = walk.Next(w.opts.y_max + 1);
    rec.sent = Clock::now();
    Result<service::ServedAnswer> reply = Status::Unavailable("unsent");
    {
      Span q(log, "service.query", k);
      reply = service::QueryServed("127.0.0.1", port, cutoff);
    }
    rec.done = Clock::now();
    rec.transport_ok = reply.ok();
    if (reply.ok()) {
      rec.answer_ok = reply.value().status.ok();
      for (const service::EpochEntry& e : reply.value().epochs) {
        if (e.worker < kWorkers && e.shard == 0) rec.epoch[e.worker] = e.epoch;
      }
    }
    out->push_back(rec);
    bool all = reply.ok();
    for (uint32_t i = 0; i < kWorkers && all; ++i) {
      const uint64_t f = final_epoch[i].load();
      all = f != 0 && rec.epoch[i] >= f;
    }
    if (all) {
      *covered_at = rec.done;
      covered->store(true);
      return;
    }
  }
}

PipelineResult RunPipeline(const Workload& w, const WorkerInput* inputs,
                           std::unique_ptr<Topology> topo, bool traced) {
  PipelineResult r;
  SpanLog main_log(traced, 1);
  SpanLog query_log(traced, 2);
  std::vector<SpanLog> writer_logs;
  for (uint32_t i = 0; i < kWorkers; ++i) writer_logs.emplace_back(traced, 3 + i);

  std::atomic<uint64_t> final_epoch[kWorkers];
  for (auto& f : final_epoch) f.store(0);
  std::atomic<bool> stop_queries{false};
  std::atomic<bool> covered{false};
  Clock::time_point covered_at{};

  const Clock::time_point start = Clock::now();
  std::thread query_thread(RunQueries, std::cref(w), topo->root->port(), start,
                           final_epoch, &stop_queries, std::ref(query_log),
                           &r.queries, &covered_at, &covered);
  std::vector<std::thread> writers;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    writers.emplace_back(RunWriter, std::cref(inputs[i]),
                         std::ref(topo->workers[i]), i,
                         std::ref(writer_logs[i]), &r.workers[i]);
  }
  for (std::thread& t : writers) t.join();
  bool writers_ok = true;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    if (!r.workers[i].error.empty()) {
      r.error = "worker " + std::to_string(i) + ": " + r.workers[i].error;
      writers_ok = false;
    }
  }
  // The final epochs are handed over only now, so the query thread's
  // coverage check cannot fire before both writers are done.
  if (writers_ok) {
    for (uint32_t i = 0; i < kWorkers; ++i) {
      final_epoch[i].store(r.workers[i].final_epoch);
    }
    const auto give_up = Clock::now() + kFinalVisibleTimeout;
    while (!covered.load() && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop_queries.store(true);
  query_thread.join();
  r.peak_rss_mb = PeakRssMb();
  if (!writers_ok) return r;
  if (!covered.load()) {
    r.error = "no root answer covered both workers' final epochs";
    return r;
  }

  Clock::time_point first_insert = r.workers[0].first_insert;
  for (const WorkerResult& wr : r.workers) {
    first_insert = std::min(first_insert, wr.first_insert);
  }
  for (uint32_t i = 0; i < kWorkers; ++i) r.tuples += inputs[i].total();
  r.ingest_secs = std::chrono::duration<double>(covered_at - first_insert).count();

  // Visibility: the first served root answer whose epoch vector covers
  // (worker, epoch), measured from the tick's last tuple.
  for (uint32_t i = 0; i < kWorkers; ++i) {
    size_t q = 0;
    for (const TickRecord& tick : r.workers[i].ticks) {
      while (q < r.queries.size() &&
             !(r.queries[q].transport_ok && r.queries[q].epoch[i] >= tick.epoch)) {
        ++q;
      }
      if (q == r.queries.size()) break;
      r.visible_ms.push_back(Ms(r.queries[q].done - tick.last_tuple));
    }
  }

  // The root's final ladder, served over the wire.
  for (uint64_t c : CutoffLadder(w.opts.y_max)) {
    auto reply = service::QueryServed("127.0.0.1", topo->root->port(), c);
    if (!reply.ok()) {
      r.error = "final ladder query: " + reply.status().ToString();
      return r;
    }
    r.ladder.push_back(std::move(reply).value());
  }
  r.root_stats = topo->root->Stats();
  r.relay_stats = topo->relay->reducer().Stats();
  r.relay_republishes = topo->relay->republishes();

  if (traced) {
    // Isolation probes against the drained root.
    std::vector<double> answer_us;
    for (int rep = 0; rep < 5; ++rep) {
      for (uint64_t c : CutoffLadder(w.opts.y_max)) {
        Span s(main_log, "service.answer", c);
        const auto t0 = Clock::now();
        (void)topo->root->Answer(c);
        answer_us.push_back(Us(Clock::now() - t0));
      }
    }
    r.answer_us = Percentile(answer_us, 0.5);
  }

  Status flushed = topo->Shutdown();
  if (!flushed.ok()) {
    r.error = "relay final flush: " + flushed.ToString();
    return r;
  }
  for (const SpanLog* log : {&main_log, &query_log}) {
    r.spans.insert(r.spans.end(), log->spans().begin(), log->spans().end());
  }
  for (const SpanLog& log : writer_logs) {
    r.spans.insert(r.spans.end(), log.spans().begin(), log.spans().end());
  }
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Oracle and exact answers
// ---------------------------------------------------------------------------

// Replays one worker's Writer exactly: the same hot-key table, drained at
// every tick boundary, staged into kDriverBatch batches in the same order
// the single shard ingests them.
AnySummary OracleWorker(const Workload& w, const WorkerInput& in) {
  AnySummary summary = NewSummary(w);
  HotKeyBuffer coalescer(kCoalesceSlots);
  std::vector<WeightedTuple> pending;
  pending.reserve(kDriverBatch);
  auto stage = [&](const WeightedTuple& t) {
    pending.push_back(t);
    if (pending.size() >= kDriverBatch) {
      summary.InsertBatch(std::span<const WeightedTuple>(pending));
      pending.clear();
    }
  };
  uint64_t pos = 0;
  for (size_t t = 0; t < in.ticks; ++t) {
    for (size_t done = 0; done < in.tick_tuples; done += kChunk, pos += kChunk) {
      for (const Tuple& tup : in.Chunk(pos)) coalescer.Insert(tup.x, tup.y, 1, stage);
    }
    coalescer.Drain(stage);
    if (!pending.empty()) {
      summary.InsertBatch(std::span<const WeightedTuple>(pending));
      pending.clear();
    }
  }
  return summary;
}

// The castream_served `oracle --topology 0>2,1>2,2>3` construction: the
// relay folds its leaves through a fresh MergeCache under the reducers'
// default policy and hands its root upstream through serialization; the
// root folds that one slot the same way.
Result<std::shared_ptr<const AnySummary>> OracleRoot(
    const Workload& w, const std::vector<std::shared_ptr<const AnySummary>>& leaves) {
  auto factory = [&w] { return NewSummary(w); };
  std::vector<uint64_t> seqs;
  for (size_t i = 0; i < leaves.size(); ++i) seqs.push_back(i + 1);
  MergeCache<AnySummary> relay_cache(factory);
  CASTREAM_ASSIGN_OR_RETURN(std::shared_ptr<const AnySummary> relay_root,
                            relay_cache.Merge(leaves, seqs));
  std::string blob;
  CASTREAM_RETURN_NOT_OK(relay_root->Serialize(&blob));
  CASTREAM_ASSIGN_OR_RETURN(AnySummary reloaded,
                            AnySummary::Deserialize(io::BytesOf(blob)));
  MergeCache<AnySummary> root_cache(factory);
  return root_cache.Merge({std::make_shared<const AnySummary>(std::move(reloaded))},
                          {1});
}

// Exact F2 answers over the ladder through ExactCorrelatedAggregate (every
// workload is f2). A cyclic replay is the slice with per-tuple weights.
std::vector<double> ExactLadder(const Workload& w, const WorkerInput* inputs) {
  ExactCorrelatedAggregate exact(AggregateKind::kF2);
  for (uint32_t i = 0; i < kWorkers; ++i) {
    const WorkerInput& in = inputs[i];
    const uint64_t laps = in.total() / in.slice.size();
    const uint64_t rest = in.total() % in.slice.size();
    for (size_t j = 0; j < in.slice.size(); ++j) {
      const int64_t weight = static_cast<int64_t>(laps + (j < rest ? 1 : 0));
      if (weight == 0) continue;
      const Tuple& t = in.slice[j];
      exact.Insert(t.x, t.y, weight);
    }
  }
  std::vector<double> out;
  for (uint64_t c : CutoffLadder(w.opts.y_max)) out.push_back(exact.Query(c));
  return out;
}

struct Reference {
  std::vector<Result<double>> ladder;  // oracle root answers
  std::vector<double> exact;  // empty unless requested
  std::shared_ptr<const AnySummary> worker_summaries[kWorkers];
};

// `exact` answers feed only bench.answer_rel_err, so untraced runs skip them.
Result<Reference> BuildReference(const Workload& w, const WorkerInput* inputs,
                                 bool exact) {
  Reference ref;
  std::vector<std::thread> threads;
  AnySummary built[kWorkers];
  for (uint32_t i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] { built[i] = OracleWorker(w, inputs[i]); });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::shared_ptr<const AnySummary>> leaves;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    ref.worker_summaries[i] = std::make_shared<const AnySummary>(std::move(built[i]));
    leaves.push_back(ref.worker_summaries[i]);
  }
  CASTREAM_ASSIGN_OR_RETURN(std::shared_ptr<const AnySummary> root,
                            OracleRoot(w, leaves));
  for (uint64_t c : CutoffLadder(w.opts.y_max)) ref.ladder.push_back(root->Query(c));
  if (exact) ref.exact = ExactLadder(w, inputs);
  return ref;
}

// The correctness gate. Returns an empty string when the run is correct.
std::string Check(const Workload& w, const WorkerInput* inputs,
                  const PipelineResult& r, const Reference& ref) {
  if (!r.ok) return r.error;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    const WorkerResult& wr = r.workers[i];
    if (wr.coalesce_in != inputs[i].total()) {
      return "worker " + std::to_string(i) + ": writer saw " +
             std::to_string(wr.coalesce_in) + " tuples, sent " +
             std::to_string(inputs[i].total());
    }
    // With coalescing the shard ingests the table's emitted rows.
    if (wr.processed != wr.coalesce_out) {
      return "worker " + std::to_string(i) + ": driver processed " +
             std::to_string(wr.processed) + " rows, writer emitted " +
             std::to_string(wr.coalesce_out);
    }
  }
  const std::vector<uint64_t> ladder = CutoffLadder(w.opts.y_max);
  for (size_t k = 0; k < ladder.size(); ++k) {
    const service::ServedAnswer& got = r.ladder[k];
    uint64_t epochs[kWorkers] = {};
    for (const service::EpochEntry& e : got.epochs) {
      if (e.worker < kWorkers && e.shard == 0) epochs[e.worker] = e.epoch;
    }
    for (uint32_t i = 0; i < kWorkers; ++i) {
      if (epochs[i] != r.workers[i].final_epoch) {
        return "root epoch vector names worker " + std::to_string(i) +
               " at epoch " + std::to_string(epochs[i]) + ", final is " +
               std::to_string(r.workers[i].final_epoch);
      }
    }
    const Result<double>& want = ref.ladder[k];
    const bool same =
        got.status.code() == want.status().code() &&
        (!want.ok() || std::memcmp(&got.estimate, &want.value(), sizeof(double)) == 0);
    if (!same) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "cutoff %" PRIu64 ": root %.17g (%s), oracle %.17g (%s)",
                    ladder[k], got.estimate, got.status.ToString().c_str(),
                    want.ok() ? want.value() : 0.0,
                    want.status().ToString().c_str());
      return buf;
    }
  }
  return "";
}

double AnswerRelErr(const PipelineResult& r, const Reference& ref) {
  double worst = 0.0;
  for (size_t k = 0; k < r.ladder.size(); ++k) {
    if (!r.ladder[k].status.ok() || ref.exact[k] <= 0) continue;
    worst = std::max(worst, std::fabs(r.ladder[k].estimate - ref.exact[k]) /
                                ref.exact[k]);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMachineHeader() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  char model[49] = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    std::memcpy(model, regs, 48);
    model[48] = '\0';
  }
#endif
  const char* m = model;
  while (*m == ' ') ++m;
  std::printf("# machine: nproc=%d cpu=\"%s\" l1d=%ldK l2=%ldK l3=%ldK\n",
              cpus, m, sysconf(_SC_LEVEL1_DCACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024);
  std::printf("# build: compiler=\"%s\" build_type=%s\n", __VERSION__,
              CASTREAM_PERFBENCH_BUILD_TYPE);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"trace\": %" PRIu64 ", \"span\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 s.trace_id, s.span_id, s.parent, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

// Failure accounting shared by both modes: every Publish call and every
// QueryServed call is an attempt; an Unavailable/rejected publish and a
// query transport error are failures. A FAIL-region answer is an answer.
void CountAttempts(const PipelineResult& r, uint64_t* attempted, uint64_t* failed) {
  for (const WorkerResult& wr : r.workers) {
    *attempted += wr.publish_attempted;
    *failed += wr.publish_failed;
  }
  for (const QueryRecord& q : r.queries) {
    ++*attempted;
    if (!q.transport_ok) ++*failed;
  }
}

std::vector<double> SpanMs(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::vector<Metric> EndToEndMetrics(const PipelineResult& run,
                                    const std::vector<double>& setup_s,
                                    uint64_t attempted, uint64_t failed) {
  std::vector<double> query_us;
  for (const QueryRecord& q : run.queries) query_us.push_back(Us(q.done - q.scheduled));
  uint64_t wire = 0;
  for (const WorkerResult& wr : run.workers) wire += wr.wire_bytes;
  return {
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"ingest_mtps", static_cast<double>(run.tuples) / run.ingest_secs / 1e6,
       "Mtuples/s"},
      {"visible_p50_ms", Percentile(run.visible_ms, 0.5), "ms"},
      {"visible_p90_ms", Percentile(run.visible_ms, 0.9), "ms"},
      {"query_p50_us", Percentile(query_us, 0.5), "us"},
      {"wire_bytes_per_tuple",
       static_cast<double>(wire) / static_cast<double>(run.tuples), "B"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"success_ratio",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "ratio"},
  };
}

// Sample counts and fuller distributions, as comment lines for a reader.
void PrintDiagnostics(const PipelineResult& run) {
  std::vector<double> query_us;
  for (const QueryRecord& q : run.queries) query_us.push_back(Us(q.done - q.scheduled));
  std::printf("# samples: ticks=%zu visible=%zu queries=%zu tuples=%" PRIu64
              " relay_republishes=%" PRIu64 "\n",
              run.workers[0].ticks.size() + run.workers[1].ticks.size(),
              run.visible_ms.size(), run.queries.size(), run.tuples,
              run.relay_republishes);
  std::printf("# distribution: query_us p50/p75/p90/p95/p99 = %.0f/%.0f/%.0f/%.0f/%.0f"
              " visible_ms p50/p75/p90/p95 = %.1f/%.1f/%.1f/%.1f\n",
              Percentile(query_us, 0.5), Percentile(query_us, 0.75),
              Percentile(query_us, 0.9), Percentile(query_us, 0.95),
              Percentile(query_us, 0.99), Percentile(run.visible_ms, 0.5),
              Percentile(run.visible_ms, 0.75), Percentile(run.visible_ms, 0.9),
              Percentile(run.visible_ms, 0.95));
}

struct Probes {
  std::vector<double> decode_ms;
  std::vector<double> rtt_us;
  std::vector<double> merge_ms;
  std::vector<double> query_us;
  double core_ns_per_tuple = 0;
  std::vector<SpanRecord> spans;
};

// Post-run isolation probes, each layer alone on the run's final state.
Result<Probes> RunProbes(const Workload& w, const WorkerInput& worker0,
                         const PipelineResult& traced, const Reference& ref) {
  Probes p;
  SpanLog log(true, 9);
  for (int rep = 0; rep < 3; ++rep) {
    for (const WorkerResult& wr : traced.workers) {
      Span s(log, "io.decode", rep);
      const auto t0 = Clock::now();
      auto decoded = AnySummary::Deserialize(io::BytesOf(wr.final_blob));
      p.decode_ms.push_back(Ms(Clock::now() - t0));
      CASTREAM_RETURN_NOT_OK(decoded.status());
    }
  }
  {
    service::ReducerOptions empty_opts;
    empty_opts.kind = w.kind;
    empty_opts.summary = w.opts;
    empty_opts.summary_seed = kSummarySeed;
    CASTREAM_ASSIGN_OR_RETURN(std::unique_ptr<service::SnapshotReducer> empty,
                              service::SnapshotReducer::Start(empty_opts));
    for (int i = 0; i < 200; ++i) {
      Span s(log, "net.query_rtt_empty", i);
      const auto t0 = Clock::now();
      auto reply = service::QueryServed("127.0.0.1", empty->port(), 0);
      p.rtt_us.push_back(Us(Clock::now() - t0));
      CASTREAM_RETURN_NOT_OK(reply.status());
    }
  }
  {
    // The serial baseline: one thread, one summary, worker 0's raw slice.
    Span s(log, "core.insert", 0);
    AnySummary serial = NewSummary(w);
    const auto t0 = Clock::now();
    for (size_t pos = 0; pos < worker0.slice.size(); pos += kChunk) {
      serial.InsertBatch(worker0.Chunk(pos));
    }
    p.core_ns_per_tuple =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(worker0.slice.size());
  }
  AnySummary merged;
  for (int rep = 0; rep < 3; ++rep) {
    merged = ref.worker_summaries[0]->Clone();
    Span s(log, "core.merge", rep);
    const auto t0 = Clock::now();
    Status st = merged.MergeFrom(*ref.worker_summaries[1]);
    p.merge_ms.push_back(Ms(Clock::now() - t0));
    CASTREAM_RETURN_NOT_OK(st);
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t c : CutoffLadder(w.opts.y_max)) {
      Span s(log, "core.query", c);
      const auto t0 = Clock::now();
      (void)merged.Query(c);
      p.query_us.push_back(Us(Clock::now() - t0));
    }
  }
  p.spans = log.spans();
  return p;
}

std::vector<Metric> LayerMetrics(const PipelineResult& untraced,
                                 const PipelineResult& traced, const Probes& p,
                                 const std::vector<SpanRecord>& spans,
                                 const Reference& ref) {
  uint64_t tuples_in = 0, tuples_out = 0, publish_failed = 0, reconnects = 0;
  std::vector<double> blob_bytes;
  for (const WorkerResult& wr : traced.workers) {
    tuples_in += wr.coalesce_in;
    tuples_out += wr.coalesce_out;
    publish_failed += wr.publish_failed;
    reconnects += wr.reconnects;
    for (const TickRecord& t : wr.ticks) blob_bytes.push_back(static_cast<double>(t.blob_bytes));
  }
  std::vector<double> query_late;
  std::vector<double> query_us;
  uint64_t fail_region = 0;
  for (const QueryRecord& q : traced.queries) {
    query_late.push_back(Ms(q.sent - q.scheduled));
    query_us.push_back(Us(q.done - q.scheduled));
    if (q.transport_ok && !q.answer_ok) ++fail_region;
  }
  uint64_t relay_bytes = 0;
  for (const service::SlotStats& s : traced.root_stats.slots) relay_bytes += s.bytes;
  const service::ReducerStats& rs = traced.root_stats;
  const service::ReducerStats& ls = traced.relay_stats;
  const std::vector<double> publish_ms = SpanMs(spans, "service.publish");
  const double mtps_untraced = static_cast<double>(untraced.tuples) / untraced.ingest_secs;
  const double mtps_traced = static_cast<double>(traced.tuples) / traced.ingest_secs;
  auto count = [](uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> m = {
      {"driver.insert_ns_per_tuple",
       Sum(SpanMs(spans, "driver.insert")) * 1e6 / count(traced.tuples), "ns"},
      {"driver.drain_ms", Percentile(SpanMs(spans, "driver.drain"), 0.5), "ms"},
      {"driver.snapshot_ms", Percentile(SpanMs(spans, "driver.snapshot"), 0.5), "ms"},
      {"driver.coalesce_ratio", count(tuples_in) / count(tuples_out), "ratio"},
      {"io.serialize_ms", Percentile(SpanMs(spans, "io.serialize"), 0.5), "ms"},
      {"io.blob_bytes", Percentile(blob_bytes, 0.5), "B"},
      {"io.decode_ms", Percentile(p.decode_ms, 0.5), "ms"},
      {"service.publish_ms_p50", Percentile(publish_ms, 0.5), "ms"},
      {"service.publish_ms_p90", Percentile(publish_ms, 0.9), "ms"},
      {"service.relay_republishes", count(traced.relay_republishes), "count"},
      {"service.leaf_per_republish",
       count(ls.accepted) / count(std::max<uint64_t>(1, traced.relay_republishes)),
       "ratio"},
      {"service.relay_bytes", count(relay_bytes), "B"},
      {"service.answer_us", traced.answer_us, "us"},
      {"service.rejected", count(rs.rejected + ls.rejected), "count"},
      {"service.duplicate", count(rs.duplicate + ls.duplicate), "count"},
      {"service.bad_frames", count(rs.bad_frames + ls.bad_frames), "count"},
      {"service.publish_failed", count(publish_failed), "count"},
      {"service.reconnects", count(reconnects), "count"},
      {"service.fail_region_answers", count(fail_region), "count"},
      {"net.query_rtt_empty_us", Percentile(p.rtt_us, 0.5), "us"},
      {"core.insert_ns_per_tuple", p.core_ns_per_tuple, "ns"},
      {"core.merge_ms", Percentile(p.merge_ms, 0.5), "ms"},
      {"core.query_us", Percentile(p.query_us, 0.5), "us"},
  };
  // Tick ledger: each child span's self time as a share of tick time.
  const double tick_ms = Sum(SpanMs(spans, "tick"));
  double child_ms = 0;
  for (const char* child : {"driver.insert", "driver.drain", "driver.snapshot",
                            "io.serialize", "service.publish"}) {
    const double ms = Sum(SpanMs(spans, child));
    child_ms += ms;
    m.push_back({std::string("tick.share.") + child, ms / tick_ms, "share"});
  }
  m.push_back({"tick.share.other", (tick_ms - child_ms) / tick_ms, "share"});
  m.push_back({"bench.query_p90_us", Percentile(query_us, 0.9), "us"});
  m.push_back({"bench.query_late_p90_ms", Percentile(query_late, 0.9), "ms"});
  m.push_back({"bench.trace_overhead_pct", (mtps_untraced / mtps_traced - 1.0) * 100.0, "%"});
  m.push_back({"bench.answer_rel_err", AnswerRelErr(traced, ref), "ratio"});
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "pipeline_bench: %s\n", why.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const std::vector<Workload> all = Workloads();
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) return Fail("unknown workload " + args.workload);
  const Workload& w = *found;

  PrintMachineHeader();
  std::printf("# run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name,
              args.seed, args.seconds, args.trace);

  // Wall time of each phase, printed so a run's budget is visible.
  std::vector<std::pair<const char*, Clock::time_point>> phases{{"", Clock::now()}};
  // Inputs, generated before anything is timed.
  WorkerInput inputs[kWorkers];
  {
    std::vector<Tuple> stream = w.generate(kStreamTuples, args.seed);
    for (const Tuple& t : stream) inputs[WorkerOf(t.x)].slice.push_back(t);
    const size_t ticks = std::max<size_t>(
        1, static_cast<size_t>(std::llround(args.seconds * w.tuples_per_sec /
                                            static_cast<double>(w.tick_tuples))));
    for (WorkerInput& in : inputs) {
      in.slice.resize(in.slice.size() / kChunk * kChunk);
      if (in.slice.empty()) return Fail("a worker's slice is empty");
      in.ticks = ticks;
      in.tick_tuples = w.tick_tuples;
    }
    // Every timing percentile printed needs ten samples beyond it.
    if (!Supports(kWorkers * ticks, 0.9)) {
      return Fail("too few publish ticks for visible_p90_ms; raise --seconds");
    }
  }

  phases.emplace_back("generate", Clock::now());
  // Set-up: brought up kSetupTrials times, median reported; the last
  // topology serves the run.
  std::unique_ptr<Topology> topo;
  std::vector<double> setup_s;
  const int trials = args.trace == 0 ? kSetupTrials : 1;
  for (int i = 0; i < trials; ++i) {
    if (topo) (void)topo->Shutdown();
    topo.reset();
    const auto t0 = Clock::now();
    auto started = StartTopology(w);
    if (!started.ok()) return Fail("setup: " + started.status().ToString());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    topo = std::move(started).value();
  }

  phases.emplace_back("setup", Clock::now());
  PipelineResult run = RunPipeline(w, inputs, std::move(topo), /*traced=*/false);
  phases.emplace_back("pipeline", Clock::now());
  if (!run.ok) return Fail(run.error);

  Result<Reference> ref_or = BuildReference(w, inputs, args.trace == 1);
  if (!ref_or.ok()) return Fail("oracle: " + ref_or.status().ToString());
  const Reference& ref = ref_or.value();
  phases.emplace_back("oracle", Clock::now());
  std::string mismatch = Check(w, inputs, run, ref);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "pipeline_bench: correctness gate failed: %s\n",
                 mismatch.c_str());
  }

  uint64_t attempted = 0, failed = 0;
  CountAttempts(run, &attempted, &failed);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEndMetrics(run, setup_s, attempted, failed);
    PrintDiagnostics(run);
  } else {
    // Traced pair: the untraced run above is the overhead baseline.
    auto second = StartTopology(w);
    if (!second.ok()) return Fail("setup: " + second.status().ToString());
    PipelineResult traced = RunPipeline(w, inputs, std::move(second).value(), true);
    if (!traced.ok) return Fail(traced.error);
    if (mismatch.empty()) mismatch = Check(w, inputs, traced, ref);
    CountAttempts(traced, &attempted, &failed);
    Result<Probes> probes = RunProbes(w, inputs[0], traced, ref);
    if (!probes.ok()) return Fail("probe: " + probes.status().ToString());
    std::vector<SpanRecord> spans = traced.spans;
    spans.insert(spans.end(), probes.value().spans.begin(), probes.value().spans.end());
    metrics = LayerMetrics(run, traced, probes.value(), spans, ref);
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, spans)) {
      return Fail("cannot write spans to " + args.trace_out);
    }
  }

  phases.emplace_back(args.trace == 1 ? "traced" : "report", Clock::now());
  std::printf("# phases:");
  for (size_t i = 1; i < phases.size(); ++i) {
    std::printf(" %s=%.1fs", phases[i].first,
                std::chrono::duration<double>(phases[i].second - phases[i - 1].second).count());
  }
  std::printf("\n");
  const bool correct = mismatch.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
