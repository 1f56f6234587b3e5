// Canned zone configurations used across tests, examples, and benches.
#ifndef DNSV_DNS_EXAMPLE_ZONES_H_
#define DNSV_DNS_EXAMPLE_ZONES_H_

#include "src/dns/zone.h"

namespace dnsv {

// The paper's Fig.-11 domain tree: example.com with cs / www / zoo subtrees
// (web.cs, zoo.cs below cs), used by the Table-1 path enumeration.
ZoneConfig Figure11Zone();

// A zone exercising every feature at once: wildcards (including deep
// matches), a delegation with glue, CNAME chains, MX additional processing,
// and an empty non-terminal. Used by differential tests and bug hunts.
ZoneConfig KitchenSinkZone();

// Minimal zone for quickstarts: apex SOA/NS plus a couple of A records.
ZoneConfig QuickstartZone();

// Zone tailored to reveal the Table-2 bugs: wildcard + ENT interplay,
// multi-NS delegation, MX at wildcard, SOA mname with in-zone addresses.
ZoneConfig BugHuntZone();

// example.com with `num_a` A records on www — wide enough (default 40, ~1.2 kB
// of answer) that the UDP clamp must truncate with TC=1 and only the TCP
// fallback can serve it in full. Used by the server integration tests and
// the dns_server selftest.
ZoneConfig WideRrsetZone(int num_a = 40);

}  // namespace dnsv

#endif  // DNSV_DNS_EXAMPLE_ZONES_H_
