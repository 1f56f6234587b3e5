#include "src/dns/name.h"

#include <algorithm>
#include <cctype>

#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {

Result<DnsName> DnsName::Parse(const std::string& text) {
  std::string trimmed(TrimWhitespace(text));
  if (!trimmed.empty() && trimmed.back() == '.') {
    trimmed.pop_back();  // absolute-name dot
  }
  DnsName name;
  if (trimmed.empty()) {
    return name;  // the root name
  }
  for (const std::string& raw : SplitString(trimmed, '.')) {
    if (raw.empty()) {
      return Result<DnsName>::Error("empty label in name: " + text);
    }
    if (raw.size() > 63) {
      return Result<DnsName>::Error("label longer than 63 bytes in: " + text);
    }
    std::string label = ToLowerAscii(raw);
    for (char c : label) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_' && c != '*') {
        return Result<DnsName>::Error(StrCat("bad character '", std::string(1, c),
                                             "' in label of: ", text));
      }
    }
    if (label.find('*') != std::string::npos && label != kWildcardLabel) {
      return Result<DnsName>::Error("'*' must be a whole label: " + text);
    }
    name.labels.push_back(std::move(label));
  }
  // A wildcard may only be the leftmost label.
  for (size_t i = 1; i < name.labels.size(); ++i) {
    if (name.labels[i] == kWildcardLabel) {
      return Result<DnsName>::Error("'*' must be the leftmost label: " + text);
    }
  }
  return name;
}

std::string DnsName::ToString() const {
  if (labels.empty()) {
    return ".";
  }
  return JoinStrings(labels, ".");
}

bool DnsName::IsSubdomainOf(const DnsName& suffix) const {
  if (suffix.labels.size() > labels.size()) {
    return false;
  }
  return std::equal(suffix.labels.rbegin(), suffix.labels.rend(), labels.rbegin());
}

std::vector<std::string> DnsName::ReversedLabels() const {
  return std::vector<std::string>(labels.rbegin(), labels.rend());
}

LabelInterner::LabelInterner() {
  // "*" sorts before every other allowed label character, so pinning it to a
  // fixed small code keeps the order invariant and lets the engine name it as
  // a compile-time constant (LABEL_STAR in types.mg).
  by_label_.emplace(kWildcardLabel, kWildcardCode);
  by_code_.emplace(kWildcardCode, kWildcardLabel);
}

Result<int64_t> LabelInterner::Intern(const std::string& raw_label) {
  std::string label = ToLowerAscii(raw_label);
  auto it = by_label_.find(label);
  if (it != by_label_.end()) {
    return it->second;
  }
  // Midpoint of lexicographic neighbors keeps integer order == label order.
  auto next = by_label_.lower_bound(label);
  int64_t hi = next != by_label_.end() ? next->second : kMaxCode;
  int64_t lo = next != by_label_.begin() ? std::prev(next)->second : kMinCode;
  if (hi - lo < 2) {
    return Result<int64_t>::Error("label code space exhausted between neighbors of: " + label);
  }
  int64_t code = lo + (hi - lo) / 2;
  by_label_.emplace(std::move(label), code);
  by_code_.emplace(code, by_label_.find(ToLowerAscii(raw_label))->first);
  return code;
}

std::string LabelInterner::Decode(int64_t code) const {
  auto it = by_code_.find(code);
  if (it != by_code_.end()) {
    return it->second;
  }
  return StrCat("<label#", code, ">");
}

std::string LabelInterner::DecodeApprox(int64_t code) const {
  auto exact = by_code_.find(code);
  if (exact != by_code_.end()) {
    return exact->second;
  }
  // by_label_ is ordered by label string, which (order-preserving interning)
  // is also ordered by code: scan for the closest interned neighbor below.
  const std::string* below = nullptr;
  for (const auto& [label, label_code] : by_label_) {
    if (label_code < code) {
      below = &label;
    } else {
      break;
    }
  }
  if (below == nullptr) {
    return "0";  // before every interned label
  }
  return *below + "0";  // just after `below`, before the next interned label
}

std::vector<int64_t> LabelInterner::InternName(const DnsName& name, Status* status) {
  std::vector<int64_t> codes;
  codes.reserve(name.labels.size());
  for (auto it = name.labels.rbegin(); it != name.labels.rend(); ++it) {
    Result<int64_t> code = Intern(*it);
    if (!code.ok()) {
      if (status != nullptr) {
        *status = Status::Error(code.error());
      }
      break;
    }
    codes.push_back(code.value());
  }
  return codes;
}

}  // namespace dnsv
