/**
 * Declarative topology walkthrough: load a JSON topology file, build
 * it onto the LP engine, run every traffic stanza, and print the
 * per-stanza latency picture plus the fabric's hop counters.
 *
 *   ./topo_fabric [configs/ring.json]
 *
 * The same file drives `tf_bench --topo FILE`; this example is the
 * minimal programmatic consumer.
 */

#include <cstdio>

#include "topo/builder.hh"

int
main(int argc, char **argv)
{
    using namespace tf;

    std::string file =
        argc > 1 ? argv[1] : std::string("configs/ring.json");

    try {
        topo::Spec spec = topo::loadSpecFile(file);
        std::printf("topology \"%s\": %zu nodes, %zu switches, "
                    "%zu links, %zu traffic stanzas\n",
                    spec.name.c_str(), spec.nodes.size(),
                    spec.switches.size(), spec.links.size(),
                    spec.traffic.size());

        topo::BuildOptions opt;
        opt.smoke = true; // example-sized run
        topo::Instance inst(spec, opt);
        std::printf("built %zu logical processes\n", inst.lpCount());

        inst.run();

        for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
            const auto &t = inst.traffic(i);
            std::printf(
                "  %-18s %6llu/%llu ops  mean %8.3f us  "
                "p99 %8.3f us\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.completed.value()),
                static_cast<unsigned long long>(t.target),
                t.latUs.mean(), t.latUs.quantile(0.99));
        }
        std::printf("fabric: %llu relayed msgs, worst egress queue "
                    "%.0f ns\n",
                    static_cast<unsigned long long>(
                        inst.fabric().relayedMessages()),
                    inst.fabric().maxQueueDelayNs());
        if (!spec.faults.empty())
            std::printf("faults fired: %llu\n",
                        static_cast<unsigned long long>(
                            inst.faultsFired()));
    } catch (const topo::SpecError &e) {
        std::fprintf(stderr, "topo_fabric: %s\n", e.what());
        return 2;
    }
    return 0;
}
