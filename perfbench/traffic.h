// The serving workloads' inputs: a seeded question vocabulary over the
// kitchen-sink zone, the query streams drawn from it, and the reference
// answer to every question.
#ifndef DNSV_PERFBENCH_TRAFFIC_H_
#define DNSV_PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/dns/wire.h"
#include "src/engine/engine.h"

namespace dnsv::perfbench {

// The engine version and zone every serving workload runs.
inline constexpr EngineVersion kServedVersion = EngineVersion::kGolden;
inline constexpr uint16_t kEdnsPayload = 1232;

struct Question {
  WireQuery query;           // id 0; the sender patches the real id in
  std::vector<uint8_t> wire;  // EncodeWireQuery(query)
};

struct Vocabulary {
  std::vector<Question> questions;
  // Reference response per question (ID bytes included, compare from byte 2).
  std::vector<std::vector<uint8_t>> expected;
  std::string hash;  // FNV-1a over every question packet, hex
};

// About 2k questions drawn from `seed`: every answer shape of the
// kitchen-sink zone (exact, multi-record, CNAME chain, *.dyn wildcard, sub
// referral with glue, NODATA, NXDOMAIN, the ent empty non-terminal) times
// A/AAAA/MX/TXT/NS/SOA/ANY, each with and without an EDNS 1232 OPT. Random
// labels are distinct and bounded in number, so a warmup pass interns all of
// them.
Vocabulary BuildVocabulary(uint64_t seed);

// Serves every question once through ServePacket on a fresh
// interpreter-backend shard with the cache off — the reference the compiled
// backend under test is held to. Returns false when the shard cannot be
// built.
bool ComputeReferenceAnswers(Vocabulary* vocab, std::string* error);

// True when `response` equals the reference for `question`, ID bytes masked.
bool MatchesReference(const Vocabulary& vocab, uint32_t question, const uint8_t* response,
                      size_t size);

// Draws question indices: Zipf(1.0) over a seeded ranking of the vocabulary
// (`zipf`), or uniform.
class QuestionSampler {
 public:
  QuestionSampler(const Vocabulary& vocab, bool zipf, uint64_t seed);
  uint32_t Next();

 private:
  Rng rng_;
  uint32_t size_;
  std::vector<double> cdf_;        // empty: uniform
  std::vector<uint32_t> by_rank_;  // rank -> question index
};

}  // namespace dnsv::perfbench

#endif  // DNSV_PERFBENCH_TRAFFIC_H_
