#include "ring_spec.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hh"

namespace tf::perfbench {

std::string
ringSpec(const RingParams &p)
{
    if (p.pairs < 3)
        throw std::invalid_argument("a ring needs at least 3 pairs");
    const unsigned n = p.pairs;
    sim::Rng rng(p.seed);
    // DRAM access time within +-1% of the 90 ns default, to 0.01 ns.
    auto dram = [&rng] {
        std::ostringstream d;
        d << ", \"dram\": {\"accessNs\": "
          << std::lround(9000 * rng.uniform(0.99, 1.01)) / 100.0 << "}";
        return d.str();
    };

    std::ostringstream os;
    os << "{\n  \"name\": \"perfbench_ring" << n << "\",\n";

    os << "  \"nodes\": [\n";
    for (unsigned i = 0; i < n; ++i) {
        os << "    {\"name\": \"h" << i << "\", \"role\": \"host\", "
           << "\"donor\": \"d" << i << "\", \"channels\": "
           << (i % 2 == 0 ? 2 : 1) << dram();
        if (i % 3 == 2)
            os << ", \"cache\": {\"enabled\": true, "
                  "\"frameBudget\": 64}";
        os << "},\n";
    }
    for (unsigned i = 0; i < n; ++i)
        os << "    {\"name\": \"d" << i << "\", \"role\": \"donor\", "
           << "\"donatedMiB\": 64" << dram() << "}"
           << (i + 1 < n ? ",\n" : "\n");
    os << "  ],\n";

    os << "  \"switches\": [\n";
    for (unsigned i = 0; i < n; ++i)
        os << "    {\"name\": \"s" << i << "\", \"crossingNs\": 50, "
           << "\"radix\": 4}" << (i + 1 < n ? ",\n" : "\n");
    os << "  ],\n";

    os << "  \"links\": [\n";
    for (unsigned i = 0; i < n; ++i)
        os << "    {\"a\": \"h" << i << "\", \"b\": \"s" << i
           << "\", \"gbps\": 100, \"latencyNs\": 500},\n";
    for (unsigned i = 0; i < n; ++i)
        os << "    {\"a\": \"s" << i << "\", \"b\": \"s" << (i + 1) % n
           << "\", \"gbps\": 100, \"latencyNs\": 800}"
           << (i + 1 < n ? ",\n" : "\n");
    os << "  ],\n";

    os << "  \"traffic\": [\n";
    for (unsigned i = 0; i < n; ++i) {
        os << "    {\"name\": \"mem" << i << "\", \"kind\": \"memory\", "
           << "\"src\": \"h" << i << "\", \"policy\": \""
           << (i % 2 == 0 ? "remote" : "interleave") << "\", "
           << "\"accessBytes\": 128, \"window\": 16, \"ops\": " << p.memOps
           << "},\n";
        os << "    {\"name\": \"rpc" << i << "\", \"kind\": \"rpc\", "
           << "\"src\": \"h" << i << "\", \"dst\": \"h" << (i + n / 2) % n
           << "\", \"requestBytes\": 128, \"responseBytes\": 2048, "
           << "\"window\": 4, \"ops\": " << p.rpcOps << "}"
           << (i + 1 < n ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace tf::perfbench
