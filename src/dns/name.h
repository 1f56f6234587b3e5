// Host-side domain names and the order-preserving label interner.
//
// The engine (MiniGo side) represents a name as a []int of interned labels in
// reversed (root-first) order, per the paper's §6.3 encoding: every label
// (<= 63 bytes) maps to an integer such that integer order equals
// lexicographic label order. The interner preserves that invariant under
// on-demand insertion by assigning midpoints between neighbors.
#ifndef DNSV_DNS_NAME_H_
#define DNSV_DNS_NAME_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"

namespace dnsv {

inline constexpr char kWildcardLabel[] = "*";

// A domain name in host order: labels[0] is the leftmost label, so
// "www.example.com" is {"www", "example", "com"}. Names are stored lowercase
// (DNS comparisons are case-insensitive).
struct DnsName {
  std::vector<std::string> labels;

  static Result<DnsName> Parse(const std::string& text);
  std::string ToString() const;

  bool Empty() const { return labels.empty(); }
  size_t NumLabels() const { return labels.size(); }

  // True when `this` ends with `suffix` (is equal to or inside that domain).
  bool IsSubdomainOf(const DnsName& suffix) const;
  bool operator==(const DnsName& other) const { return labels == other.labels; }
  bool operator!=(const DnsName& other) const { return !(*this == other); }

  // Labels in root-first order ("com", "example", "www") — the engine layout.
  std::vector<std::string> ReversedLabels() const;
};

// Assigns integers to labels such that label order (bytewise, lowercase)
// matches integer order, even when labels are interned incrementally: a new
// label receives the midpoint of its lexicographic neighbors' codes.
//
// Midpoints halve the gap each time, so about 60 labels that keep landing
// in the same gap (z, zz, zzz, ...) exhaust it. Interning then fails
// instead of aborting: the caller rejects the zone or answers SERVFAIL.
class LabelInterner {
 public:
  LabelInterner();

  // Returns the code for `label`, interning it if needed; fails when its
  // neighbors' codes are adjacent, so no code is left between them.
  Result<int64_t> Intern(const std::string& label);

  // Reverse lookup; returns "<label#code>" for unknown codes (these appear
  // when a solver model picks an integer strictly between interned labels).
  std::string Decode(int64_t code) const;

  // Like Decode, but synthesizes a readable label at the right lexicographic
  // position for unknown codes (e.g. "cs0" for a code just above "cs").
  // Display-only: two distinct codes may synthesize the same string.
  std::string DecodeApprox(int64_t code) const;

  // Lowest/highest codes that any real label may take; symbolic qname labels
  // are constrained into this range.
  int64_t min_code() const { return kMinCode; }
  int64_t max_code() const { return kMaxCode; }

  // Interns every label of `name`, returning engine-order (reversed) codes.
  // When a label gets no code (see Intern), the codes stop before it and
  // *status (if given) holds Intern's error; the labels before it stay
  // interned.
  std::vector<int64_t> InternName(const DnsName& name, Status* status = nullptr);

  size_t size() const { return by_label_.size(); }

  // Fixed code for the wildcard label "*" (mirrored by LABEL_STAR in the
  // engine's types.mg).
  static constexpr int64_t kWildcardCode = 2;

 private:
  static constexpr int64_t kMinCode = 1;
  static constexpr int64_t kMaxCode = int64_t{1} << 60;

  std::map<std::string, int64_t> by_label_;  // ordered: neighbor lookup
  std::unordered_map<int64_t, std::string> by_code_;
};

}  // namespace dnsv

#endif  // DNSV_DNS_NAME_H_
