// Batch resolver: an authoritative "server" you can drive from the command
// line. Loads a zone file and answers queries read from stdin, one
// `<qname> <qtype>` pair per line — the closest thing to the production data
// plane this repo's engine can be without a network stack.
//
//   $ echo "www.example.com A" | ./examples/resolve_cli zone.txt
//   $ ./examples/resolve_cli                 # built-in kitchen-sink zone
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/dns/example_zones.h"
#include "src/engine/engine.h"
#include "src/support/strings.h"

int main(int argc, char** argv) {
  using namespace dnsv;

  ZoneConfig zone;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open zone file %s\n", argv[1]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<ZoneConfig> parsed = ParseZoneText(buffer.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "zone parse error: %s\n", parsed.error().c_str());
      return 2;
    }
    zone = std::move(parsed).value();
  } else {
    zone = KitchenSinkZone();
  }

  auto server_result = AuthoritativeServer::Create(EngineVersion::kGolden, zone);
  if (!server_result.ok()) {
    std::fprintf(stderr, "zone rejected: %s\n", server_result.error().c_str());
    return 2;
  }
  auto server = std::move(server_result).value();
  std::fprintf(stderr, "serving %s (%zu records); enter '<qname> <qtype>' lines\n",
               zone.origin.ToString().c_str(), zone.records.size());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream fields(line);
    std::string qname_text, qtype_text;
    fields >> qname_text >> qtype_text;
    if (qname_text.empty()) {
      continue;
    }
    Result<DnsName> qname = DnsName::Parse(qname_text);
    RrType qtype = RrType::kA;
    if (!qname.ok() || (!qtype_text.empty() && !ParseRrType(qtype_text, &qtype))) {
      std::printf(";; bad query: %s\n", line.c_str());
      continue;
    }
    QueryResult result = server->Query(qname.value(), qtype);
    std::printf(";; %s %s\n", qname_text.c_str(), RrTypeName(qtype));
    if (result.panicked) {
      std::printf("!! engine panic: %s\n", result.panic_message.c_str());
    } else if (result.unencodable) {
      std::printf("!! SERVFAIL: a label of the qname got no code (interner exhausted)\n");
    } else {
      std::printf("%s\n", result.response.ToString().c_str());
    }
  }
  return 0;
}
