// udp-zipf and udp-miss: open-loop loopback UDP against a DnsServer on the
// compiled backend (1 UDP worker, TCP off), plus, in a traced run, qps_max
// and an in-process replay of the same packet stream through the serving
// path's public entry points.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "perfbench/loadgen.h"
#include "perfbench/traffic.h"
#include "perfbench/workloads.h"
#include "src/dns/example_zones.h"
#include "src/server/server.h"

namespace dnsv::perfbench {
namespace {

struct ServeWorkload {
  const char* name;
  bool zipf;
  size_t cache_entries;
  // Offered rate of the latency windows, fixed so later commits are
  // compared at the same load: about a sixth of qps_max when the benchmark
  // was defined. At a half, and even at a quarter, the CPU time the VM's
  // host steals in bursts pushed some runs into overload and made their
  // p99 vary tenfold.
  double fixed_rate;
};

const ServeWorkload kServeWorkloads[] = {
    {"udp-zipf", true, 4096, 30000},
    {"udp-miss", false, 0, 5000},
};

constexpr double kWarmRate = 5000;        // queries/s of the every-question warmup
constexpr double kStepSeconds = 0.3;      // one ladder rung
constexpr int kStepWindows = 5;           // latency windows per rung
// Latency windows at the fixed rate. Short, so that most windows miss the
// host's stalls; the latency reported pools the less disturbed half of them
// (see StepResult).
constexpr double kWindowSeconds = 0.05;
constexpr double kP99LimitUs = 1000;      // the latency limit qps_max must meet
constexpr double kFailLimit = 0.001;      // failures / attempts allowed at qps_max
constexpr int kRungsPerDoubling = 16;     // geometric ladder: 2^(1/16) ≈ 4.4% apart
constexpr int kMaxRung = 10 * kRungsPerDoubling;  // ~1M queries/s
constexpr int kStartStep = 4;             // staircase step, in rungs, before it adapts
constexpr double kLadderShare = 0.45;     // of a traced run's seconds, for finding qps_max
constexpr int kReplayPackets = 100000;    // traced in-process replay length
constexpr int kTraceRequests = 2000;      // requests exported to the trace file
constexpr int kSockets = 2;               // generator sockets (resolvers), at most nproc

const ServeWorkload* FindWorkload(const std::string& name) {
  for (const ServeWorkload& w : kServeWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

double Rung(int k) { return 1000.0 * std::pow(2.0, static_cast<double>(k) / kRungsPerDoubling); }

ServerConfig MakeServerConfig(const ServeWorkload& w) {
  ServerConfig config;
  config.udp_workers = 1;
  config.enable_tcp = false;
  config.version = kServedVersion;
  config.backend = BackendKind::kCompiled;
  config.cache_entries = w.cache_entries;
  return config;
}

// One blocking query/answer over loopback; the setup probe.
bool AnswerOnce(uint16_t port, const std::vector<uint8_t>& query) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return false;
  }
  timeval tv{0, 200000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  bool answered = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    uint8_t buffer[4096];
    for (int attempt = 0; attempt < 10 && !answered; ++attempt) {
      answered = ::send(fd, query.data(), query.size(), 0) > 0 &&
                 ::recv(fd, buffer, sizeof(buffer), 0) > 12;
    }
  }
  ::close(fd);
  return answered;
}

// Pins the calling thread, the generator, to the last CPU it may use and
// keeps the worker off that CPU. The generator spins between sends; a
// worker woken onto its CPU would wait out the generator's time slice.
// Leaves both as they are when only one CPU is allowed.
void SeparateCpus(pid_t worker) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return;
  }
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &allowed)) {
    --last;
  }
  cpu_set_t generator;
  CPU_ZERO(&generator);
  CPU_SET(last, &generator);
  CPU_CLR(last, &allowed);
  ::sched_setaffinity(worker, sizeof(allowed), &allowed);
  ::sched_setaffinity(0, sizeof(generator), &generator);
}

// A rung passes when most of its windows meet the latency and failure
// limits and answers kept up with the offered load. Overload fails every
// window once the queue has built up; a host hiccup fails one, and does not
// decide the rung.
bool Passes(const StepResult& r) {
  size_t good = 0;
  for (size_t w = 0; w < r.window_p99_us.size(); ++w) {
    good += r.window_p99_us[w] <= kP99LimitUs && r.window_fail_ratio[w] <= kFailLimit ? 1 : 0;
  }
  return 2 * good > r.window_p99_us.size() &&
         static_cast<double>(r.backlog) <= std::max(64.0, r.rate * 0.002);
}

// The generator, not the server, set the limit: it could not keep its own
// schedule while the worker still had idle time.
bool GeneratorLimited(const StepResult& r) {
  return r.lag_p99_us > 100 && r.worker_cpu_ratio < 0.9;
}

// A failing rung on which the worker was mostly idle did not find the
// server's capacity: either the generator fell behind or the host stalled
// the run. Such a trial is invalid and is run again.
bool Invalid(const StepResult& r) { return GeneratorLimited(r) || r.worker_cpu_ratio < 0.5; }

struct Ladder {
  double qps_max = 0;
  StepResult at_max;     // a passing trial on the qps_max rung
  StepResult above_max;  // the failing trial closest above it (the health check)
  bool generator_limited = false;
  int steps = 0;
  int invalid = 0;
  uint64_t mismatches = 0;
  uint64_t sent = 0;
};

// qps_max: where an up-down staircase on the fixed geometric ladder
// settles. Each trial steps up after a pass and down after a failure, so
// the staircase converges on the rate that passes half the time. The step
// starts at kStartStep rungs, halves at every reversal and doubles after
// two moves the same way, so it homes in quickly and also climbs back
// quickly from a disturbed stretch. qps_max is the median rung of the
// passing trials in the second half of the staircase. An invalid trial (see
// Invalid) is repeated, up to twice, before it counts as a failure.
Ladder FindQpsMax(LoadGenerator* gen, const std::function<uint32_t()>& next,
                  double start_rate, double budget_s) {
  const uint64_t start = NowNs();
  Ladder ladder;
  std::map<int, StepResult> passes;
  std::map<int, StepResult> fails;
  auto trial = [&](int k) {
    for (int attempt = 0;; ++attempt) {
      StepResult r = gen->Run(Rung(k), kStepSeconds, kStepWindows, next);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let queues drain
      ++ladder.steps;
      ladder.mismatches += r.mismatches;
      ladder.sent += r.sent;
      bool pass = Passes(r);
      if (!pass && Invalid(r) && attempt < 2) {
        ++ladder.invalid;
        continue;
      }
      (pass ? passes : fails)[k] = std::move(r);
      return pass;
    }
  };
  int k = std::clamp(
      static_cast<int>(std::lround(kRungsPerDoubling * std::log2(start_rate / Rung(0)))), 0,
      kMaxRung);
  int step = kStartStep;
  int direction = 0;
  int same_way = 0;
  std::vector<std::pair<int, bool>> history;  // (rung, passed)
  double elapsed = 0;
  do {
    bool pass = trial(k);
    history.emplace_back(k, pass);
    int move = pass ? 1 : -1;
    if (move == direction) {
      if (++same_way == 2) {
        step = std::min(step * 2, kRungsPerDoubling);
        same_way = 0;
      }
    } else {
      step = direction == 0 ? step : std::max(step / 2, 1);
      same_way = 0;
    }
    direction = move;
    k = std::clamp(k + move * step, 0, kMaxRung);
    elapsed = static_cast<double>(NowNs() - start) / 1e9;
    // Give up on a server that passes nothing.
  } while (elapsed < budget_s ||
           (std::none_of(history.begin(), history.end(), [](auto& h) { return h.second; }) &&
            elapsed < 3 * budget_s));
  std::vector<int> passed;
  for (size_t i = history.size() / 2; i < history.size(); ++i) {
    if (history[i].second) {
      passed.push_back(history[i].first);
    }
  }
  if (passed.empty()) {
    for (const auto& [rung, pass] : history) {
      if (pass) {
        passed.push_back(rung);
      }
    }
  }
  if (passed.empty()) {
    return ladder;
  }
  std::sort(passed.begin(), passed.end());
  const int best = passed[(passed.size() - 1) / 2];
  ladder.qps_max = Rung(best);
  ladder.at_max = passes[best];
  auto above = fails.upper_bound(best);
  if (above != fails.end()) {
    ladder.above_max = above->second;
    ladder.generator_limited = GeneratorLimited(above->second);
  }
  return ladder;
}

// --- traced in-process replay -------------------------------------------

// The serving path exactly as DnsServer wires it: a SnapshotHolder
// publication, a shard built from the snapshot, and the shared cache.
struct ServingState {
  SnapshotHolder holder;
  std::unique_ptr<AuthoritativeServer> shard;
  uint64_t generation = 0;
  std::unique_ptr<PacketCache> cache;

  bool Init(const ServeWorkload& w, const ZoneConfig& zone) {
    if (!holder.Publish(kServedVersion, zone, "<initial>", BackendKind::kCompiled).ok()) {
      return false;
    }
    Rebuild();
    if (w.cache_entries > 0) {
      cache = std::make_unique<PacketCache>(w.cache_entries);
    }
    return true;
  }
  void Rebuild() {
    std::shared_ptr<const ZoneSnapshot> snapshot = holder.Load();
    shard = snapshot->BuildShard(kServedVersion, BackendKind::kCompiled);
    generation = snapshot->generation;
  }
};

struct SpanNames {
  uint16_t serve, parse, key, hit, miss, engine, encode, insert, intern;
  explicit SpanNames(SpanRecorder* r)
      : serve(r->NameId("serve")),
        parse(r->NameId("dns.parse")),
        key(r->NameId("server.cache_key")),
        hit(r->NameId("server.cache_lookup_hit")),
        miss(r->NameId("server.cache_lookup_miss")),
        engine(r->NameId("engine.query")),
        encode(r->NameId("dns.encode")),
        insert(r->NameId("server.cache_insert")),
        intern(r->NameId("dns.intern")) {}
};

// ServePacket's order, one span per stage: ParseWireQuery -> BuildCacheKey
// -> PacketCache::Lookup -> AuthoritativeServer::Query -> EncodeWireResponse
// -> PacketCache::Insert. The vocabulary holds only well-formed EDNS
// version-0 queries, so the FORMERR/NOTIMP/BADVERS branches never run.
std::vector<uint8_t> TracedServe(ServingState* state, const std::vector<uint8_t>& packet,
                                 uint64_t request, ServerStats* stats, SpanRecorder* spans,
                                 const SpanNames& n, bool* engine_ran) {
  const uint64_t t0 = NowNs();
  const uint32_t root = spans->Add(n.serve, t0, t0, SpanRecorder::kNoParent, request);
  auto finish = [&](std::vector<uint8_t> wire) {
    spans->End(root, NowNs());
    return wire;
  };
  Result<WireQuery> query = ParseWireQuery(packet.data(), packet.size());
  uint64_t t1 = NowNs();
  spans->Add(n.parse, t0, t1, root, request);
  if (!query.ok()) {
    return finish({});
  }
  const size_t effective = EffectivePayloadLimit(query.value().edns, kMaxUdpPayload);
  CacheKey key;
  bool cacheable = false;
  std::vector<uint8_t> wire;
  if (state->cache != nullptr) {
    uint64_t k0 = NowNs();
    cacheable = BuildCacheKey(query.value(), effective, &key);
    uint64_t k1 = NowNs();
    spans->Add(n.key, k0, k1, root, request);
    if (cacheable) {
      bool hit = state->cache->Lookup(key, state->generation, query.value().id, &wire, stats);
      uint64_t k2 = NowNs();
      spans->Add(hit ? n.hit : n.miss, k1, k2, root, request);
      if (hit) {
        return finish(std::move(wire));
      }
    }
  }
  uint64_t e0 = NowNs();
  QueryResult result = state->shard->Query(query.value().qname, query.value().qtype);
  uint64_t e1 = NowNs();
  spans->Add(n.engine, e0, e1, root, request);
  *engine_ran = true;
  ResponseView view;
  if (result.panicked) {
    view.rcode = Rcode::kServFail;
  } else {
    view = std::move(result.response);
  }
  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query.value(), view, effective);
  uint64_t e2 = NowNs();
  spans->Add(n.encode, e1, e2, root, request);
  if (!encoded.ok()) {
    return finish({});
  }
  wire = std::move(encoded).value();
  uint8_t rcode = wire[3] & 0xF;
  bool truncated = (wire[2] & 0x02) != 0;
  if (cacheable && !truncated && !result.panicked &&
      (rcode == static_cast<uint8_t>(Rcode::kNoError) ||
       rcode == static_cast<uint8_t>(Rcode::kNxDomain))) {
    uint32_t ttl = MinimumResponseTtl(wire);
    if (ttl > 0) {
      state->cache->Insert(key, state->generation, ttl, wire, stats);
    }
    spans->Add(n.insert, e2, NowNs(), root, request);
  }
  return finish(std::move(wire));
}


void RunReplay(const ServeWorkload& w, const RunOptions& options, const Vocabulary& vocab,
               double p50_us, RunOutput* out) {
  const ZoneConfig zone = KitchenSinkZone();
  ServingState traced;
  ServingState twin;
  if (!traced.Init(w, zone) || !twin.Init(w, zone)) {
    out->Problem("replay: zone publication failed");
    return;
  }
  SpanRecorder spans;
  SpanNames names(&spans);
  // Warmup: every question once through both shards, so every label of the
  // bounded vocabulary is interned before the window opens.
  {
    SpanRecorder scratch;
    SpanNames scratch_names(&scratch);
    ServerStats warm_stats;
    for (const Question& q : vocab.questions) {
      bool ran = false;
      TracedServe(&traced, q.wire, 0, &warm_stats, &scratch, scratch_names, &ran);
      ServeContext ctx{twin.cache.get(), twin.generation};
      ServePacket(twin.shard.get(), q.wire.data(), q.wire.size(), kMaxUdpPayload, &warm_stats,
                  ctx);
    }
  }
  const size_t labels_before = traced.shard->interner().size();
  const size_t blocks_before = traced.shard->memory().num_blocks();

  // The stream: the workload's sampler, ids cycling.
  QuestionSampler sampler(vocab, w.zipf, options.seed ^ 0x7265706c6179ull);
  std::vector<uint32_t> stream(kReplayPackets);
  std::vector<std::vector<uint8_t>> packets(kReplayPackets);
  for (int i = 0; i < kReplayPackets; ++i) {
    stream[i] = sampler.Next();
    packets[i] = vocab.questions[stream[i]].wire;
    packets[i][0] = static_cast<uint8_t>((i >> 8) & 0xff);
    packets[i][1] = static_cast<uint8_t>(i & 0xff);
  }
  // Traced pass.
  ServerStats traced_stats;
  uint64_t engine_runs = 0;
  uint64_t response_bytes = 0;
  uint64_t wrong = 0;
  const uint64_t traced_start = NowNs();
  for (int i = 0; i < kReplayPackets; ++i) {
    bool ran = false;
    std::vector<uint8_t> wire =
        TracedServe(&traced, packets[i], static_cast<uint64_t>(i), &traced_stats, &spans, names,
                    &ran);
    engine_runs += ran ? 1 : 0;
    response_bytes += wire.size();
    wrong += MatchesReference(vocab, stream[i], wire.data(), wire.size()) ? 0 : 1;
  }
  const double traced_ns = static_cast<double>(NowNs() - traced_start) / kReplayPackets;

  // Untraced twin: the same stream through ServePacket, the whole call.
  ServerStats twin_stats;
  const uint64_t twin_start = NowNs();
  for (int i = 0; i < kReplayPackets; ++i) {
    ServeContext ctx{twin.cache.get(), twin.generation};
    ServeOutcome outcome = ServePacket(twin.shard.get(), packets[i].data(), packets[i].size(),
                                       kMaxUdpPayload, &twin_stats, ctx);
    wrong += MatchesReference(vocab, stream[i], outcome.wire.data(), outcome.wire.size()) ? 0 : 1;
  }
  const double serve_packet_ns = static_cast<double>(NowNs() - twin_start) / kReplayPackets;
  StatsSnapshot twin_snapshot;
  twin_snapshot.Add(twin_stats);

  // Invalidation: one reload (a publication of the same zone bumps the
  // generation), then a tenth of the stream again, counting the cached
  // answers the bump made stale.
  uint64_t stale = 0;
  if (twin.cache != nullptr) {
    if (!twin.holder.Publish(kServedVersion, zone, "perfbench", BackendKind::kCompiled).ok()) {
      out->Problem("replay: reload rejected");
    }
    twin.Rebuild();
    ServerStats probe_stats;
    for (int i = 0; i < kReplayPackets / 10; ++i) {
      ServeContext ctx{twin.cache.get(), twin.generation};
      ServeOutcome outcome = ServePacket(twin.shard.get(), packets[i].data(), packets[i].size(),
                                         kMaxUdpPayload, &probe_stats, ctx);
      wrong +=
          MatchesReference(vocab, stream[i], outcome.wire.data(), outcome.wire.size()) ? 0 : 1;
    }
    stale = probe_stats.cache_stale.load();
  }

  // Label encoding on a copy of the shard's interner, so the shard itself
  // is untouched.
  LabelInterner interner = traced.shard->interner();
  for (int i = 0; i < kReplayPackets; ++i) {
    uint64_t i0 = NowNs();
    std::vector<int64_t> codes = interner.InternName(vocab.questions[stream[i]].query.qname);
    spans.Add(names.intern, i0, NowNs(), SpanRecorder::kNoParent, static_cast<uint64_t>(i), 2);
  }

  const size_t labels_after = traced.shard->interner().size();
  const size_t blocks_after = traced.shard->memory().num_blocks();
  if (wrong > 0) {
    out->Problem("replay: " + std::to_string(wrong) + " answers differ from the reference");
  }
  if (labels_after > labels_before) {
    out->Problem("replay: shard interner grew from " + std::to_string(labels_before) + " to " +
                 std::to_string(labels_after) + " labels during the window");
  }
  if (blocks_after > blocks_before) {
    out->Problem("replay: shard heap grew from " + std::to_string(blocks_before) + " to " +
                 std::to_string(blocks_after) + " blocks during the window");
  }

  std::vector<double> create_ms;
  for (int i = 0; i < 5; ++i) {
    uint64_t c0 = NowNs();
    Result<std::unique_ptr<AuthoritativeServer>> shard =
        AuthoritativeServer::Create(kServedVersion, zone, BackendKind::kCompiled);
    create_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
  }

  // Sum of the parts per packet, to hold against the whole ServePacket call.
  double parts_total = 0;
  for (const char* part : {"dns.parse", "server.cache_key", "server.cache_lookup_hit",
                           "server.cache_lookup_miss", "engine.query", "dns.encode",
                           "server.cache_insert"}) {
    parts_total += spans.TotalNs(part);
  }
  const double parts_ns = parts_total / kReplayPackets;
  std::vector<double> engine_ns = spans.Durations("engine.query");
  const double lookups = static_cast<double>(twin_snapshot.cache_hits + twin_snapshot.cache_misses);
  const double queries = kReplayPackets;

  out->layers.Num("dns.parse_ns", Mean(spans.Durations("dns.parse")))
      .Num("dns.encode_ns", Mean(spans.Durations("dns.encode")))
      .Num("server.cache_key_ns", Mean(spans.Durations("server.cache_key")))
      .Num("server.cache_lookup_hit_ns", Mean(spans.Durations("server.cache_lookup_hit")))
      .Num("server.cache_lookup_miss_ns", Mean(spans.Durations("server.cache_lookup_miss")))
      .Num("server.cache_insert_ns", Mean(spans.Durations("server.cache_insert")))
      .Num("server.cache_hit_ratio", lookups > 0 ? twin_snapshot.cache_hits / lookups : 0)
      .Int("server.cache_evictions", static_cast<int64_t>(twin_snapshot.cache_evictions))
      .Int("server.cache_stale", static_cast<int64_t>(stale))
      .Num("engine.query_ns", Mean(engine_ns))
      .Num("engine.query_p99_ns", Quantile(engine_ns, 0.99))
      .Num("engine.runs_per_kpkt", 1000.0 * static_cast<double>(engine_runs) / queries)
      .Num("dns.intern_ns", Mean(spans.Durations("dns.intern")))
      .Int("dns.interner_labels", static_cast<int64_t>(labels_after))
      .Int("interp.heap_blocks", static_cast<int64_t>(blocks_after))
      .Num("server.serve_packet_ns", serve_packet_ns)
      .Num("server.transport_us", p50_us - serve_packet_ns / 1000.0)
      .Num("server.response_bytes", static_cast<double>(response_bytes) / queries)
      .Num("server.truncated_ratio", twin_snapshot.truncated_responses / queries)
      .Num("server.servfail_ratio",
           twin_snapshot.rcodes[static_cast<int>(Rcode::kServFail)] / queries)
      .Num("engine.shard_create_ms", Median(create_ms))
      .Num("trace.parts_ns", parts_ns)
      .Num("trace.overhead_ns", traced_ns - serve_packet_ns);
  std::fprintf(stderr,
               "replay: %d packets, traced %.0f ns/pkt (parts %.0f, root span %.0f), untraced "
               "ServePacket %.0f ns/pkt; interner %zu->%zu labels, heap %zu->%zu blocks\n",
               kReplayPackets, traced_ns, parts_ns, Mean(spans.Durations("serve")),
               serve_packet_ns, labels_before, labels_after, blocks_before, blocks_after);
  if (!options.trace_path.empty() && !spans.WriteChromeTrace(options.trace_path, kTraceRequests)) {
    out->Problem("cannot write trace " + options.trace_path);
  }
}

}  // namespace

bool IsServeWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

bool SetupServe(const std::string& workload, std::string* error) {
  const ServeWorkload* w = FindWorkload(workload);
  Result<std::unique_ptr<DnsServer>> started =
      DnsServer::Start(MakeServerConfig(*w), KitchenSinkZone());
  if (!started.ok()) {
    *error = started.error();
    return false;
  }
  WireQuery query;
  query.qname = DnsName::Parse("www.example.com").value();
  if (!AnswerOnce(started.value()->udp_port(), EncodeWireQuery(query))) {
    *error = "no answer to the first query";
    return false;
  }
  return true;
}

void RunServe(const RunOptions& options, RunOutput* out) {
  const ServeWorkload& w = *FindWorkload(options.workload);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = 1 /*generator*/ + 1 /*worker*/;
  if (threads > nproc) {
    out->Problem("generator + worker threads (" + std::to_string(threads) + ") exceed nproc (" +
                 std::to_string(nproc) + ")");
    return;
  }
  const int sockets = std::min(kSockets, nproc);

  Vocabulary vocab = BuildVocabulary(options.seed);
  std::string error;
  if (!ComputeReferenceAnswers(&vocab, &error)) {
    out->Problem("reference shard: " + error);
    return;
  }
  out->input_hash = vocab.hash;
  std::fprintf(stderr, "%s: %zu questions, vocabulary hash %s\n", w.name, vocab.questions.size(),
               vocab.hash.c_str());

  const ZoneConfig zone = KitchenSinkZone();
  std::vector<pid_t> before = ListThreads();
  Result<std::unique_ptr<DnsServer>> started = DnsServer::Start(MakeServerConfig(w), zone);
  if (!started.ok()) {
    out->Problem("DnsServer::Start: " + started.error());
    return;
  }
  std::unique_ptr<DnsServer> server = std::move(started).value();
  std::vector<pid_t> after = ListThreads();
  std::vector<pid_t> spawned;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(spawned));
  if (spawned.size() != 1) {
    out->Problem("expected one server worker thread, found " + std::to_string(spawned.size()));
    return;
  }
  SeparateCpus(spawned[0]);
  LoadGenerator gen(server->udp_port(), vocab, sockets, spawned[0]);
  QuestionSampler sampler(vocab, w.zipf, options.seed);
  std::function<uint32_t()> next = [&] { return sampler.Next(); };
  uint32_t cursor = 0;
  std::function<uint32_t()> every = [&] {
    return cursor++ % static_cast<uint32_t>(vocab.questions.size());
  };

  const uint64_t start = NowNs();
  // Warmup: every question once (all labels interned, the cache filled),
  // at a rate every question can be answered at uncached, then the
  // workload's own mix at the fixed rate.
  StepResult warm_all = gen.Run(kWarmRate, vocab.questions.size() / kWarmRate, 1, every);
  StepResult warm_mix = gen.Run(w.fixed_rate, 0.3, 1, next);
  // qps_max only in the traced run, which reports it; the untraced run gives
  // the fixed-rate window all of its seconds. The staircase starts at six
  // times the fixed rate, near qps_max when the benchmark was defined.
  Ladder ladder;
  if (options.trace) {
    ladder = FindQpsMax(&gen, next, 6 * w.fixed_rate, kLadderShare * options.seconds);
  }
  const double used = static_cast<double>(NowNs() - start) / 1e9;
  const int windows =
      std::max(4, static_cast<int>((options.seconds - used) / kWindowSeconds));
  StepResult fixed = gen.Run(w.fixed_rate, windows * kWindowSeconds, windows, next);
  std::vector<double> reload_ms;
  if (options.trace) {
    // The write path: a few reloads of the same zone, timed after the window.
    for (int i = 0; i < 5; ++i) {
      uint64_t r0 = NowNs();
      if (!server->Reload(zone, "perfbench").ok()) {
        out->Problem("reload rejected");
      }
      reload_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
    }
  }
  StatsSnapshot stats = server->Stats();
  server->Stop();
  const double measured_s = static_cast<double>(NowNs() - start) / 1e9;

  out->attempted = warm_all.sent + warm_mix.sent + ladder.sent + fixed.sent;
  out->failed = warm_all.failures() + warm_mix.failures() + ladder.mismatches + fixed.failures();
  const uint64_t mismatches =
      warm_all.mismatches + warm_mix.mismatches + ladder.mismatches + fixed.mismatches;
  if (mismatches > 0) {
    out->Problem(std::to_string(mismatches) + " UDP answers differ from the reference");
  }
  if (options.trace && ladder.qps_max <= 0) {
    out->Problem("no ladder rung met the limits");
  }
  // The less disturbed half of the windows (see StepResult).
  const double p50_us = fixed.quiet_p50_us;
  const double p99_us = fixed.quiet_p99_us;
  // The worker's single-core capacity: queries answered per second of its
  // CPU time at the fixed rate.
  const double capacity = fixed.worker_cpu_s > 0 ? fixed.answered / fixed.worker_cpu_s : 0;
  if (options.trace) {
    std::fprintf(stderr,
                 "%s: qps_max %.0f after %d rungs, %d invalid (next rung %s: p99 %.0f us, fail "
                 "%.4f, backlog %llu, lag p99 %.0f us, worker cpu %.2f)\n",
                 w.name, ladder.qps_max, ladder.steps, ladder.invalid,
                 ladder.generator_limited ? "generator-limited" : "server-limited",
                 ladder.above_max.p99_us, ladder.above_max.fail_ratio(),
                 static_cast<unsigned long long>(ladder.above_max.backlog),
                 ladder.above_max.lag_p99_us, ladder.above_max.worker_cpu_ratio);
  }
  std::fprintf(stderr,
               "%s: at %.0f q/s over %d windows (%d with host steal, %d with the worker waiting "
               "for a CPU): p50 %.1f us, p99 %.1f us (all windows: %.1f us), %llu sent, %llu "
               "failed, %llu retried; worker cpu %.2f, %.0f queries per worker cpu-second; %.1f s "
               "measured\n",
               w.name, w.fixed_rate, windows, fixed.stolen_windows, fixed.waited_windows, p50_us,
               p99_us, fixed.p99_us,
               static_cast<unsigned long long>(fixed.sent),
               static_cast<unsigned long long>(fixed.failures()),
               static_cast<unsigned long long>(fixed.retries), fixed.worker_cpu_ratio, capacity,
               measured_s);

  out->e2e.Num("capacity_per_s", capacity)
      .Num("p50_us", p50_us)
      .Num("p99_us", p99_us)
      .Num("fail_ratio", out->attempted == 0 ? 0 : static_cast<double>(out->failed) /
                                                       static_cast<double>(out->attempted))
      .Num("fixed_rate", w.fixed_rate)
      .Num("peak_rss_mb", PeakRssMb());

  if (!options.trace) {
    return;
  }
  out->layers.Num("server.qps_max", ladder.qps_max)
      .Num("server.p99_all_windows_us", fixed.p99_us)
      .Num("server.worker_cpu_ratio", ladder.at_max.worker_cpu_ratio)
      .Num("loadgen.busy_ratio", ladder.at_max.gen_busy_ratio)
      .Num("loadgen.lag_us", ladder.at_max.lag_p99_us)
      .Int("loadgen.limited", ladder.generator_limited ? 1 : 0)
      .Int("loadgen.timeouts", static_cast<int64_t>(fixed.timeouts))
      .Num("server.reload_ms", Median(reload_ms));
  if (stats.udp_queries == 0) {
    out->Problem("server counted no UDP queries");
  }
  RunReplay(w, options, vocab, p50_us, out);
}

}  // namespace dnsv::perfbench
