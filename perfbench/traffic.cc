#include "perfbench/traffic.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "src/dns/example_zones.h"
#include "src/server/serve.h"

namespace dnsv::perfbench {
namespace {

// Owners relative to example.com, one per answer shape of KitchenSinkZone.
const char* const kFixedOwners[] = {
    "",          // apex: SOA, NS pair, MX
    "ns1",       // A + AAAA
    "ns2",       // A
    "mail",      // A
    "www",       // two A records + TXT
    "alias",     // CNAME -> www
    "chain",     // CNAME -> alias -> www
    "sub",       // delegation with in-zone glue
    "ns1.sub",   // glue below the cut: referral
    "ns2.sub",
    "ent",       // empty non-terminal
    "leaf.ent",  // A below the ENT
    "dyn",       // parent of the *.dyn wildcard (also an ENT)
};

const RrType kTypes[] = {RrType::kA,  RrType::kAaaa, RrType::kMx, RrType::kTxt,
                         RrType::kNs, RrType::kSoa,  RrType::kAny};

// Random owner templates: '%' is replaced by a fresh random label. The
// counts keep the vocabulary near 2k questions.
struct RandomOwners {
  const char* pattern;
  int count;
};
const RandomOwners kRandomOwners[] = {
    {"%.dyn", 40},    // wildcard synthesis
    {"%.%.dyn", 10},  // deep wildcard match
    {"%.sub", 20},    // below the delegation: referral
    {"%", 40},        // NXDOMAIN under the apex
    {"%.www", 10},    // NXDOMAIN below a leaf
    {"%.ent", 10},    // NXDOMAIN beside the ENT's child
};

std::string RandomLabel(Rng* rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  size_t length = 5 + rng->Below(6);
  std::string label;
  for (size_t i = 0; i < length; ++i) {
    label += kAlphabet[rng->Below(sizeof(kAlphabet) - 1)];
  }
  return label;
}

}  // namespace

Vocabulary BuildVocabulary(uint64_t seed) {
  Rng rng(seed ^ 0x766f636162756c61ull);
  std::vector<std::string> owners(std::begin(kFixedOwners), std::end(kFixedOwners));
  std::set<std::string> used_labels = {"ns1", "ns2", "mail", "www", "alias", "chain", "sub",
                                       "ent", "leaf", "dyn", "example", "com"};
  for (const RandomOwners& spec : kRandomOwners) {
    for (int i = 0; i < spec.count; ++i) {
      std::string owner;
      for (const char* p = spec.pattern; *p != '\0'; ++p) {
        if (*p != '%') {
          owner += *p;
          continue;
        }
        std::string label;
        do {
          label = RandomLabel(&rng);
        } while (!used_labels.insert(label).second);
        owner += label;
      }
      owners.push_back(owner);
    }
  }

  Vocabulary vocab;
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::string& owner : owners) {
    std::string text = owner.empty() ? "example.com" : owner + ".example.com";
    DnsName name = DnsName::Parse(text).value();
    for (RrType type : kTypes) {
      for (bool edns : {false, true}) {
        Question question;
        question.query.qname = name;
        question.query.qtype = type;
        if (edns) {
          question.query.edns.present = true;
          question.query.edns.udp_payload = kEdnsPayload;
        }
        question.wire = EncodeWireQuery(question.query);
        for (uint8_t byte : question.wire) {
          hash = (hash ^ byte) * 0x100000001b3ull;
        }
        vocab.questions.push_back(std::move(question));
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  vocab.hash = hex;
  return vocab;
}

bool ComputeReferenceAnswers(Vocabulary* vocab, std::string* error) {
  Result<std::unique_ptr<AuthoritativeServer>> shard =
      AuthoritativeServer::Create(kServedVersion, KitchenSinkZone(), BackendKind::kInterp);
  if (!shard.ok()) {
    *error = shard.error();
    return false;
  }
  vocab->expected.clear();
  for (const Question& question : vocab->questions) {
    ServeOutcome outcome = ServePacket(shard.value().get(), question.wire.data(),
                                       question.wire.size(), kMaxUdpPayload, nullptr);
    vocab->expected.push_back(std::move(outcome.wire));
  }
  return true;
}

bool MatchesReference(const Vocabulary& vocab, uint32_t question, const uint8_t* response,
                      size_t size) {
  const std::vector<uint8_t>& expected = vocab.expected[question];
  return size == expected.size() && size >= 2 &&
         std::memcmp(response + 2, expected.data() + 2, size - 2) == 0;
}

QuestionSampler::QuestionSampler(const Vocabulary& vocab, bool zipf, uint64_t seed)
    : rng_(seed), size_(static_cast<uint32_t>(vocab.questions.size())) {
  if (!zipf) {
    return;
  }
  // The ranking is a seeded shuffle, so which questions are hot depends on
  // the seed, not on the vocabulary's construction order.
  by_rank_.resize(size_);
  for (uint32_t i = 0; i < size_; ++i) {
    by_rank_[i] = i;
  }
  Rng shuffle(seed ^ 0x7a697066ull);
  for (uint32_t i = size_ - 1; i > 0; --i) {
    std::swap(by_rank_[i], by_rank_[shuffle.Below(i + 1)]);
  }
  cdf_.resize(size_);
  double total = 0;
  for (uint32_t k = 0; k < size_; ++k) {
    total += 1.0 / (k + 1);
  }
  double acc = 0;
  for (uint32_t k = 0; k < size_; ++k) {
    acc += 1.0 / (k + 1) / total;
    cdf_[k] = acc;
  }
  cdf_.back() = 1.0;
}

uint32_t QuestionSampler::Next() {
  if (cdf_.empty()) {
    return static_cast<uint32_t>(rng_.Below(size_));
  }
  double u = rng_.Uniform();
  size_t rank = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return by_rank_[std::min<size_t>(rank, size_ - 1)];
}

}  // namespace dnsv::perfbench
