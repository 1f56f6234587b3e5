#include "src/dns/wire.h"

#include <algorithm>
#include <charconv>

#include "src/support/strings.h"

namespace dnsv {
namespace {

constexpr size_t kHeaderSize = 12;
constexpr uint16_t kFlagQr = 0x8000;
constexpr uint16_t kFlagAaBit = 0x0400;
constexpr uint16_t kFlagTcBit = 0x0200;
constexpr uint16_t kFlagRd = 0x0100;
constexpr int64_t kDefaultTtl = 300;
constexpr size_t kMaxNameWireBytes = 255;  // RFC 1035 §2.3.4
constexpr size_t kMaxSectionCount = 0xffff;
constexpr uint16_t kTypeOpt = 41;  // RFC 6891 OPT pseudo-RR
// OPT TTL layout (RFC 6891 §6.1.3): EXT-RCODE (8) | VERSION (8) | DO + Z (16).
constexpr uint32_t kEdnsDoBit = 0x8000;

uint16_t ClampEdnsPayload(uint16_t advertised) {
  return advertised < kEdnsMinPayload ? kEdnsMinPayload : advertised;
}

void PutU16(std::vector<uint8_t>* out, uint16_t value) {
  out->push_back(static_cast<uint8_t>(value >> 8));
  out->push_back(static_cast<uint8_t>(value & 0xff));
}

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  PutU16(out, static_cast<uint16_t>(value >> 16));
  PutU16(out, static_cast<uint16_t>(value & 0xffff));
}

// Appends `name` uncompressed. The caller must have validated the name
// (ValidateWireName); an invalid label here would corrupt the packet framing.
void PutName(std::vector<uint8_t>* out, const DnsName& name) {
  for (const std::string& label : name.labels) {
    out->push_back(static_cast<uint8_t>(label.size()));
    out->insert(out->end(), label.begin(), label.end());
  }
  out->push_back(0);
}

// Appends an empty-RDATA OPT record (RFC 6891 §6.1.2): root name, TYPE 41,
// the advertised payload in CLASS, extended RCODE / version / DO in TTL.
void PutOptRecord(std::vector<uint8_t>* out, uint16_t payload, uint8_t ext_rcode,
                  uint8_t version, bool dnssec_ok) {
  out->push_back(0);  // root owner name
  PutU16(out, kTypeOpt);
  PutU16(out, payload);
  uint32_t ttl = (static_cast<uint32_t>(ext_rcode) << 24) |
                 (static_cast<uint32_t>(version) << 16) | (dnssec_ok ? kEdnsDoBit : 0);
  PutU32(out, ttl);
  PutU16(out, 0);  // RDLENGTH: no options
}

// Appends the dotted name `text` (as produced by DnsName::ToString /
// DecodeResponse) as uncompressed wire labels. Unlike DnsName::Parse this
// applies only the wire rules — label length and name length — because
// response views may legitimately carry names the zone-file syntax rejects
// (interior '*' labels from wildcard counterexamples, synthesized interner
// labels). An empty label anywhere outranks an overlong one, which outranks
// the name length; on error `out` holds a partial name the caller discards.
Status PutTextName(std::vector<uint8_t>* out, const std::string& text) {
  if (text.empty() || text == ".") {
    out->push_back(0);  // the root name
    return Status::Ok();
  }
  if (text.front() == '.' || text.back() == '.' || text.find("..") != std::string::npos) {
    return Status::Error("empty label in name: " + text);
  }
  for (size_t start = 0; start <= text.size();) {
    size_t end = std::min(text.find('.', start), text.size());
    if (end - start > 63) {
      return Status::Error(StrCat("label of ", end - start,
                                  " bytes (wire labels are 1..63) in name: ", text));
    }
    out->push_back(static_cast<uint8_t>(end - start));
    out->insert(out->end(), text.begin() + static_cast<long>(start),
                text.begin() + static_cast<long>(end));
    start = end + 1;
  }
  out->push_back(0);
  // Every dot becomes a length byte, plus the first length byte and the root.
  if (text.size() + 2 > kMaxNameWireBytes) {
    return Status::Error(StrCat("name of ", text.size() + 2, " wire bytes (limit ",
                                kMaxNameWireBytes, "): ", text));
  }
  return Status::Ok();
}

void PatchU16(std::vector<uint8_t>* out, size_t offset, uint16_t value) {
  (*out)[offset] = static_cast<uint8_t>(value >> 8);
  (*out)[offset + 1] = static_cast<uint8_t>(value & 0xff);
}

class Reader {
 public:
  // A non-owning view: the serving path parses straight out of the worker's
  // receive buffer, so the reader must not force a copy.
  Reader(const uint8_t* packet, size_t size) : packet_(packet), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& packet)
      : Reader(packet.data(), packet.size()) {}

  bool U8(uint8_t* value) {
    if (pos_ >= size_) {
      return false;
    }
    *value = packet_[pos_++];
    return true;
  }
  bool U16(uint16_t* value) {
    uint8_t hi = 0, lo = 0;
    if (!U8(&hi) || !U8(&lo)) {
      return false;
    }
    *value = static_cast<uint16_t>((hi << 8) | lo);
    return true;
  }
  bool U32(uint32_t* value) {
    uint16_t hi = 0, lo = 0;
    if (!U16(&hi) || !U16(&lo)) {
      return false;
    }
    *value = (static_cast<uint32_t>(hi) << 16) | lo;
    return true;
  }
  bool Skip(size_t n) {
    if (pos_ + n > size_) {
      return false;
    }
    pos_ += n;
    return true;
  }

  // Reads a possibly-compressed name starting at the current position.
  bool Name(DnsName* name) {
    name->labels.clear();
    size_t pos = pos_;
    bool jumped = false;
    int hops = 0;
    while (true) {
      if (pos >= size_ || ++hops > 128) {
        return false;  // truncated or compression loop
      }
      uint8_t len = packet_[pos];
      if (len == 0) {
        if (!jumped) {
          pos_ = pos + 1;
        }
        return true;
      }
      if ((len & 0xC0) == 0xC0) {
        if (pos + 1 >= size_) {
          return false;
        }
        size_t target = static_cast<size_t>((len & 0x3F) << 8 | packet_[pos + 1]);
        if (!jumped) {
          pos_ = pos + 2;
          jumped = true;
        }
        if (target >= pos) {
          return false;  // forward pointers are malformed
        }
        pos = target;
        continue;
      }
      if ((len & 0xC0) != 0 || pos + 1 + len > size_) {
        return false;
      }
      name->labels.emplace_back(packet_ + pos + 1, packet_ + pos + 1 + len);
      pos += 1 + static_cast<size_t>(len);
    }
  }

  size_t pos() const { return pos_; }

 private:
  const uint8_t* packet_;
  size_t size_;
  size_t pos_ = 0;
};

// Appends one resource record, RDLENGTH patched once the rdata is written.
// On error `out` holds a partial record; the caller discards the packet.
Status PutRecord(std::vector<uint8_t>* out, const RrView& rr) {
  Status owner = PutTextName(out, rr.name);
  if (!owner.ok()) {
    return Status::Error("bad owner name: " + owner.message());
  }
  PutU16(out, static_cast<uint16_t>(rr.type));
  PutU16(out, 1);  // IN
  PutU32(out, kDefaultTtl);
  const size_t rdlength_at = out->size();
  PutU16(out, 0);
  Status rdata = Status::Ok();  // only a name in the rdata can fail
  switch (rr.type) {
    case RrType::kA:
      PutU32(out, static_cast<uint32_t>(rr.rdata_value));
      break;
    case RrType::kAaaa:
      // 16 bytes; this repo's AAAA payload is an opaque int in the low 8.
      PutU32(out, 0);
      PutU32(out, 0);
      PutU32(out, static_cast<uint32_t>(rr.rdata_value >> 32));
      PutU32(out, static_cast<uint32_t>(rr.rdata_value & 0xffffffff));
      break;
    case RrType::kNs:
    case RrType::kCname:
      rdata = PutTextName(out, rr.rdata_name);
      break;
    case RrType::kMx:
      PutU16(out, static_cast<uint16_t>(rr.rdata_value));
      rdata = PutTextName(out, rr.rdata_name);
      break;
    case RrType::kSoa:
      rdata = PutTextName(out, rr.rdata_name);
      out->push_back(0);  // rname "." (not modeled)
      PutU32(out, static_cast<uint32_t>(rr.rdata_value));  // serial
      PutU32(out, 3600);
      PutU32(out, 900);
      PutU32(out, 604800);
      PutU32(out, 300);
      break;
    case RrType::kTxt: {
      char digits[24];
      char* end = std::to_chars(digits, digits + sizeof(digits), rr.rdata_value).ptr;
      out->push_back(static_cast<uint8_t>(end - digits));
      out->insert(out->end(), digits, end);
      break;
    }
    case RrType::kAny:
      break;
  }
  if (!rdata.ok()) {
    return Status::Error("bad rdata name: " + rdata.message());
  }
  PatchU16(out, rdlength_at, static_cast<uint16_t>(out->size() - rdlength_at - 2));
  return Status::Ok();
}

// Reads the type-specific rdata (RDLENGTH itself was already consumed).
bool ReadRdata(Reader* reader, uint16_t rdlength, RrView* rr) {
  switch (rr->type) {
    case RrType::kA: {
      uint32_t address = 0;
      if (rdlength != 4 || !reader->U32(&address)) {
        return false;
      }
      rr->rdata_value = address;
      return true;
    }
    case RrType::kAaaa: {
      uint32_t w0, w1, w2, w3;
      if (rdlength != 16 || !reader->U32(&w0) || !reader->U32(&w1) || !reader->U32(&w2) ||
          !reader->U32(&w3)) {
        return false;
      }
      rr->rdata_value = (static_cast<int64_t>(w2) << 32) | w3;
      return true;
    }
    case RrType::kNs:
    case RrType::kCname: {
      DnsName target;
      if (!reader->Name(&target)) {
        return false;
      }
      rr->rdata_name = target.ToString();
      return true;
    }
    case RrType::kMx: {
      uint16_t preference = 0;
      DnsName exchange;
      if (!reader->U16(&preference) || !reader->Name(&exchange)) {
        return false;
      }
      rr->rdata_value = preference;
      rr->rdata_name = exchange.ToString();
      return true;
    }
    case RrType::kSoa: {
      DnsName mname, rname;
      uint32_t serial, refresh, retry, expire, minimum;
      if (!reader->Name(&mname) || !reader->Name(&rname) || !reader->U32(&serial) ||
          !reader->U32(&refresh) || !reader->U32(&retry) || !reader->U32(&expire) ||
          !reader->U32(&minimum)) {
        return false;
      }
      rr->rdata_name = mname.ToString();
      rr->rdata_value = serial;
      return true;
    }
    case RrType::kTxt: {
      uint8_t len = 0;
      if (!reader->U8(&len) || len + 1 != rdlength) {
        return false;
      }
      std::string text;
      for (int i = 0; i < len; ++i) {
        uint8_t c = 0;
        if (!reader->U8(&c)) {
          return false;
        }
        text.push_back(static_cast<char>(c));
      }
      return ParseInt64(text, &rr->rdata_value);
    }
    default:
      return reader->Skip(rdlength);
  }
}

// Reads the record fields after the owner name and TYPE, which the caller
// consumed (the response parser peeks TYPE to divert OPT records).
bool ReadRecordAfterType(Reader* reader, const DnsName& owner, uint16_t type, RrView* rr) {
  uint16_t klass = 0, rdlength = 0;
  uint32_t ttl = 0;
  if (!reader->U16(&klass) || !reader->U32(&ttl) || !reader->U16(&rdlength)) {
    return false;
  }
  rr->name = owner.ToString();
  rr->type = static_cast<RrType>(type);
  rr->rdata_value = 0;
  rr->rdata_name.clear();
  // The rdata must consume exactly RDLENGTH bytes. Without this check a
  // malformed RDLENGTH on a name-valued record (NS/CNAME/MX/SOA) silently
  // desynchronizes the reader and mis-parses every subsequent record.
  size_t rdata_start = reader->pos();
  if (!ReadRdata(reader, rdlength, rr)) {
    return false;
  }
  return reader->pos() - rdata_start == rdlength;
}

// Reads the OPT fields after the owner name and TYPE into `edns`; the raw
// TTL's extended-RCODE byte lands in `ext_rcode`. OPT options (RDATA) are
// skipped — none are modeled — but must be present in full.
bool ReadOptAfterType(Reader* reader, EdnsInfo* edns, uint8_t* ext_rcode) {
  uint16_t klass = 0, rdlength = 0;
  uint32_t ttl = 0;
  if (!reader->U16(&klass) || !reader->U32(&ttl) || !reader->U16(&rdlength) ||
      !reader->Skip(rdlength)) {
    return false;
  }
  edns->present = true;
  edns->udp_payload = ClampEdnsPayload(klass);
  edns->version = static_cast<uint8_t>((ttl >> 16) & 0xff);
  edns->dnssec_ok = (ttl & kEdnsDoBit) != 0;
  *ext_rcode = static_cast<uint8_t>(ttl >> 24);
  return true;
}

}  // namespace

Status ValidateWireName(const DnsName& name) {
  size_t wire_bytes = 1;  // terminating root label
  for (const std::string& label : name.labels) {
    if (label.empty()) {
      return Status::Error("empty label in name: " + name.ToString());
    }
    if (label.size() > 63) {
      return Status::Error(StrCat("label of ", label.size(),
                                  " bytes (wire labels are 1..63) in name: ", name.ToString()));
    }
    wire_bytes += 1 + label.size();
  }
  if (wire_bytes > kMaxNameWireBytes) {
    return Status::Error(StrCat("name of ", wire_bytes, " wire bytes (limit ",
                                kMaxNameWireBytes, "): ", name.ToString()));
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeWireQuery(const WireQuery& query) {
  std::vector<uint8_t> out;
  PutU16(&out, query.id);
  PutU16(&out, query.recursion_desired ? kFlagRd : 0);
  PutU16(&out, 1);  // QDCOUNT
  PutU16(&out, 0);
  PutU16(&out, 0);
  PutU16(&out, query.edns.present ? 1 : 0);  // ARCOUNT: the OPT, if any
  PutName(&out, query.qname);
  PutU16(&out, static_cast<uint16_t>(query.qtype));
  PutU16(&out, query.qclass);
  if (query.edns.present) {
    // Clamp at encode time too, so encode∘parse is the identity even for a
    // hand-built sub-512 payload.
    PutOptRecord(&out, ClampEdnsPayload(query.edns.udp_payload), /*ext_rcode=*/0,
                 query.edns.version, query.edns.dnssec_ok);
  }
  return out;
}

Result<WireQuery> ParseWireQuery(const uint8_t* packet, size_t size) {
  if (size < kHeaderSize) {
    return Result<WireQuery>::Error("packet shorter than the DNS header");
  }
  Reader reader(packet, size);
  WireQuery query;
  uint16_t flags = 0, qdcount = 0, ancount = 0, nscount = 0, arcount = 0;
  reader.U16(&query.id);
  reader.U16(&flags);
  reader.U16(&qdcount);
  reader.U16(&ancount);
  reader.U16(&nscount);
  reader.U16(&arcount);
  if ((flags & kFlagQr) != 0) {
    return Result<WireQuery>::Error("not a query (QR set)");
  }
  if (((flags >> 11) & 0xF) != 0) {
    return Result<WireQuery>::Error("unsupported OPCODE");
  }
  if (qdcount != 1) {
    return Result<WireQuery>::Error(StrCat("QDCOUNT must be 1, got ", qdcount));
  }
  // A query carries no answers and no authority; a nonzero count either lies
  // about bytes that are not there or smuggles records no query may hold.
  if (ancount != 0 || nscount != 0) {
    return Result<WireQuery>::Error(
        StrCat("query with nonzero ANCOUNT/NSCOUNT (", ancount, "/", nscount, ")"));
  }
  query.recursion_desired = (flags & kFlagRd) != 0;
  if (!reader.Name(&query.qname)) {
    return Result<WireQuery>::Error("malformed question name");
  }
  uint16_t qtype = 0;
  if (!reader.U16(&qtype) || !reader.U16(&query.qclass)) {
    return Result<WireQuery>::Error("truncated question");
  }
  query.qtype = static_cast<RrType>(qtype);
  // Additional section: at most one OPT (root name required, RFC 6891
  // §6.1.1); anything else (TSIG-shaped trailers) is skipped structurally,
  // with the same exact-RDLENGTH accounting records get elsewhere.
  for (int i = 0; i < arcount; ++i) {
    DnsName owner;
    uint16_t type = 0;
    if (!reader.Name(&owner) || !reader.U16(&type)) {
      return Result<WireQuery>::Error("malformed additional section");
    }
    if (type == kTypeOpt) {
      if (!owner.labels.empty()) {
        return Result<WireQuery>::Error("OPT record with a non-root name");
      }
      if (query.edns.present) {
        return Result<WireQuery>::Error("multiple OPT records");
      }
      uint8_t ext_rcode = 0;  // meaningless in a query; ignored
      if (!ReadOptAfterType(&reader, &query.edns, &ext_rcode)) {
        return Result<WireQuery>::Error("truncated OPT record");
      }
      continue;
    }
    uint16_t klass = 0, rdlength = 0;
    uint32_t ttl = 0;
    if (!reader.U16(&klass) || !reader.U32(&ttl) || !reader.U16(&rdlength) ||
        !reader.Skip(rdlength)) {
      return Result<WireQuery>::Error("truncated additional record");
    }
  }
  // Every declared section has been consumed; whatever remains is garbage
  // the counts never accounted for.
  if (reader.pos() != size) {
    return Result<WireQuery>::Error(
        StrCat(size - reader.pos(), " trailing bytes after the declared sections"));
  }
  return query;
}

Result<std::vector<uint8_t>> EncodeWireResponse(const WireQuery& query,
                                                const ResponseView& response, size_t max_size) {
  // Counts must fit the 16-bit header fields; a silent static_cast here used
  // to alias 65536 records to an ANCOUNT of 0.
  const std::vector<RrView>* sections[3] = {&response.answer, &response.authority,
                                            &response.additional};
  const char* section_names[3] = {"answer", "authority", "additional"};
  for (int s = 0; s < 3; ++s) {
    // The response OPT rides in the additional section's count, so with EDNS
    // the section itself gets one slot fewer.
    size_t limit = (s == 2 && query.edns.present) ? kMaxSectionCount - 1 : kMaxSectionCount;
    if (sections[s]->size() > limit) {
      return Result<std::vector<uint8_t>>::Error(
          StrCat(section_names[s], " section count ", sections[s]->size(),
                 " overflows the 16-bit header field"));
    }
  }
  const auto rcode_bits = static_cast<uint16_t>(response.rcode);
  if (rcode_bits > 0xFFF) {
    return Result<std::vector<uint8_t>>::Error(
        StrCat("rcode ", rcode_bits, " does not fit 4 header + 8 extended bits"));
  }
  if (rcode_bits > 0xF && !query.edns.present) {
    return Result<std::vector<uint8_t>>::Error(
        StrCat("extended rcode ", rcode_bits, " needs EDNS, and the query carried no OPT"));
  }
  Status qname_ok = ValidateWireName(query.qname);
  if (!qname_ok.ok()) {
    return Result<std::vector<uint8_t>>::Error("bad question name: " + qname_ok.message());
  }

  // One output buffer, sized up front so it is allocated once and its
  // capacity stays near its size. Per record: the owner, the 10 fixed bytes
  // and at most an rdata name plus 21 bytes (SOA's timers; TXT's digits).
  // The header is patched last, once the section counts are known.
  const size_t opt_size = query.edns.present ? kEdnsOptWireSize : 0;
  size_t bound = kHeaderSize + 1 + 4 + opt_size;  // root label, QTYPE, QCLASS, OPT
  for (const std::string& label : query.qname.labels) {
    bound += 1 + label.size();
  }
  for (const std::vector<RrView>* section : sections) {
    for (const RrView& rr : *section) {
      bound += (rr.name.size() + 2) + 10 + (rr.rdata_name.size() + 2) + 21;
    }
  }
  std::vector<uint8_t> out;
  out.reserve(std::min(bound, max_size));
  out.resize(kHeaderSize);
  // The question is always retained (RFC 1035 §4.1.1 — truncation drops
  // records, never the question), and so is the response OPT when the query
  // carried one (RFC 6891 §7), so its bytes are budgeted up front.
  PutName(&out, query.qname);
  PutU16(&out, static_cast<uint16_t>(query.qtype));
  PutU16(&out, query.qclass);
  const size_t fixed = out.size() + opt_size;

  // Every record is encoded and checked, in section order, before the size
  // limit is looked at. RFC-1035 truncation drops whole records back to
  // front (additional first, then authority, then answer), which keeps the
  // longest prefix of records that fits: `kept` records ending at `cut`.
  size_t kept = 0;
  size_t cut = out.size();
  bool prefix_fits = true;
  for (int s = 0; s < 3; ++s) {
    for (const RrView& rr : *sections[s]) {
      Status record = PutRecord(&out, rr);
      if (!record.ok()) {
        return Result<std::vector<uint8_t>>::Error(
            StrCat("cannot encode ", section_names[s], " record: ", record.message()));
      }
      prefix_fits = prefix_fits && out.size() + opt_size <= max_size;
      if (prefix_fits) {
        ++kept;
        cut = out.size();
      }
    }
  }
  if (fixed > max_size) {
    return Result<std::vector<uint8_t>>::Error(
        StrCat("header and question alone need ", fixed, " bytes, over the limit of ",
               max_size));
  }
  out.resize(cut);

  PatchU16(&out, 0, query.id);
  uint16_t flags = kFlagQr;
  if (response.aa) {
    flags |= kFlagAaBit;
  }
  if (!prefix_fits) {
    flags |= kFlagTcBit;
  }
  if (query.recursion_desired) {
    flags |= kFlagRd;
  }
  flags |= rcode_bits & 0xF;
  PatchU16(&out, 2, flags);
  PatchU16(&out, 4, 1);  // question echo
  for (int s = 0; s < 3; ++s) {
    size_t count = std::min(kept, sections[s]->size());
    kept -= count;
    count += (s == 2 && query.edns.present) ? 1 : 0;  // the OPT rides in ARCOUNT
    PatchU16(&out, 6 + 2 * s, static_cast<uint16_t>(count));
  }
  if (query.edns.present) {
    // The responder advertises its own receive capacity and echoes the
    // client's DO bit; the rcode's high bits travel here (RFC 6891 §6.1.3).
    PutOptRecord(&out, kEdnsResponderPayload, static_cast<uint8_t>(rcode_bits >> 4),
                 /*version=*/0, query.edns.dnssec_ok);
  }
  if (!prefix_fits) {
    out.shrink_to_fit();  // the dropped records' bytes
  }
  return out;
}

Result<ResponseView> ParseWireResponse(const std::vector<uint8_t>& packet,
                                       WireQuery* echoed_query, bool* truncated) {
  if (packet.size() < kHeaderSize) {
    return Result<ResponseView>::Error("packet shorter than the DNS header");
  }
  Reader reader(packet);
  uint16_t id = 0, flags = 0, qdcount = 0, ancount = 0, nscount = 0, arcount = 0;
  reader.U16(&id);
  reader.U16(&flags);
  reader.U16(&qdcount);
  reader.U16(&ancount);
  reader.U16(&nscount);
  reader.U16(&arcount);
  if ((flags & kFlagQr) == 0) {
    return Result<ResponseView>::Error("not a response (QR clear)");
  }
  ResponseView view;
  view.aa = (flags & kFlagAaBit) != 0;
  if (truncated != nullptr) {
    *truncated = (flags & kFlagTcBit) != 0;
  }
  if (echoed_query != nullptr) {
    echoed_query->id = id;
    echoed_query->recursion_desired = (flags & kFlagRd) != 0;
  }
  for (int q = 0; q < qdcount; ++q) {
    DnsName qname;
    uint16_t qtype = 0, qclass = 0;
    if (!reader.Name(&qname) || !reader.U16(&qtype) || !reader.U16(&qclass)) {
      return Result<ResponseView>::Error("malformed question echo");
    }
    if (echoed_query != nullptr) {
      echoed_query->qname = qname;
      echoed_query->qtype = static_cast<RrType>(qtype);
      echoed_query->qclass = qclass;
    }
  }
  EdnsInfo edns;
  uint8_t ext_rcode = 0;
  // Returns nullptr on success, else the rejection reason. `allow_opt` is
  // true only for the additional section — an OPT anywhere else is malformed.
  auto read_section = [&](int count, std::vector<RrView>* section,
                          bool allow_opt) -> const char* {
    for (int i = 0; i < count; ++i) {
      DnsName owner;
      uint16_t type = 0;
      if (!reader.Name(&owner) || !reader.U16(&type)) {
        return "malformed record section";
      }
      if (type == kTypeOpt) {
        if (!allow_opt) {
          return "OPT record outside the additional section";
        }
        if (!owner.labels.empty()) {
          return "OPT record with a non-root name";
        }
        if (edns.present) {
          return "multiple OPT records";
        }
        if (!ReadOptAfterType(&reader, &edns, &ext_rcode)) {
          return "truncated OPT record";
        }
        continue;
      }
      RrView rr;
      if (!ReadRecordAfterType(&reader, owner, type, &rr)) {
        return "malformed record section";
      }
      section->push_back(std::move(rr));
    }
    return nullptr;
  };
  const char* error = read_section(ancount, &view.answer, false);
  if (error == nullptr) {
    error = read_section(nscount, &view.authority, false);
  }
  if (error == nullptr) {
    error = read_section(arcount, &view.additional, true);
  }
  if (error != nullptr) {
    return Result<ResponseView>::Error(error);
  }
  // The header RCODE is only the low nibble; with EDNS the OPT TTL's top
  // byte supplies the high bits (how BADVERS = 16 comes back).
  view.rcode = static_cast<Rcode>((edns.present ? (static_cast<int64_t>(ext_rcode) << 4) : 0) |
                                  (flags & 0xF));
  if (echoed_query != nullptr) {
    echoed_query->edns = edns;
  }
  return view;
}

size_t EffectivePayloadLimit(const EdnsInfo& edns, size_t transport_limit) {
  if (transport_limit >= kMaxTcpPayload) {
    return transport_limit;  // TCP: the EDNS payload size governs UDP only
  }
  if (!edns.present) {
    return transport_limit;
  }
  uint16_t advertised = ClampEdnsPayload(edns.udp_payload);
  return static_cast<size_t>(advertised);
}

bool ScanQueryForOpt(const uint8_t* packet, size_t size, EdnsInfo* out) {
  if (size < kHeaderSize) {
    return false;
  }
  Reader reader(packet, size);
  uint16_t id = 0, flags = 0, qdcount = 0, ancount = 0, nscount = 0, arcount = 0;
  reader.U16(&id);
  reader.U16(&flags);
  reader.U16(&qdcount);
  reader.U16(&ancount);
  reader.U16(&nscount);
  reader.U16(&arcount);
  for (int q = 0; q < qdcount; ++q) {
    DnsName qname;
    uint16_t qtype = 0, qclass = 0;
    if (!reader.Name(&qname) || !reader.U16(&qtype) || !reader.U16(&qclass)) {
      return false;
    }
  }
  // Unlike ParseWireQuery, the walk is deliberately tolerant: the caller is
  // about to send FORMERR, and only needs to know whether a usable OPT was
  // advertised. Every record gets the same uniform name/fixed-fields/RDATA
  // treatment; the first root-named OPT wins.
  int records = ancount + nscount + arcount;
  for (int i = 0; i < records; ++i) {
    DnsName owner;
    uint16_t type = 0, klass = 0, rdlength = 0;
    uint32_t ttl = 0;
    if (!reader.Name(&owner) || !reader.U16(&type) || !reader.U16(&klass) ||
        !reader.U32(&ttl) || !reader.U16(&rdlength) || !reader.Skip(rdlength)) {
      return false;
    }
    if (type == kTypeOpt && owner.labels.empty()) {
      out->present = true;
      out->udp_payload = ClampEdnsPayload(klass);
      out->version = static_cast<uint8_t>((ttl >> 16) & 0xff);
      out->dnssec_ok = (ttl & kEdnsDoBit) != 0;
      return true;
    }
  }
  return false;
}

Status AppendTcpFrame(std::vector<uint8_t>* out, const std::vector<uint8_t>& message) {
  if (message.size() > kMaxTcpPayload) {
    return Status::Error(StrCat("TCP message of ", message.size(),
                                " bytes overflows the 16-bit length prefix"));
  }
  PutU16(out, static_cast<uint16_t>(message.size()));
  out->insert(out->end(), message.begin(), message.end());
  return Status::Ok();
}

void TcpFrameDecoder::Feed(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

bool TcpFrameDecoder::Next(std::vector<uint8_t>* message) {
  if (buffer_.size() - consumed_ < 2) {
    return false;
  }
  size_t length = static_cast<size_t>(buffer_[consumed_]) << 8 | buffer_[consumed_ + 1];
  if (buffer_.size() - consumed_ < 2 + length) {
    return false;
  }
  auto begin = buffer_.begin() + static_cast<long>(consumed_ + 2);
  message->assign(begin, begin + static_cast<long>(length));
  consumed_ += 2 + length;
  // Reclaim returned bytes once they dominate the buffer, so a long-lived
  // connection does not hold every message it ever carried.
  if (consumed_ == buffer_.size() || consumed_ > 4096) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
  return true;
}

std::string HexDump(const std::vector<uint8_t>& packet) {
  std::string out;
  char buffer[8];
  for (size_t i = 0; i < packet.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%02x", packet[i]);
    if (i > 0) {
      out += (i % 16 == 0) ? '\n' : ' ';
    }
    out += buffer;
  }
  if (!out.empty()) {
    out += '\n';
  }
  return out;
}

}  // namespace dnsv
