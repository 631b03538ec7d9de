/**
 * @file
 * Seeded generator for the rack_fabric workload's topology spec.
 *
 * A ring of N host/donor pairs in the style of configs/ring.json,
 * scaled up (the Xerxes sample-topo idea): host h<i> hangs off switch
 * s<i>, the switches form a ring, and every host runs
 *
 *  - one memory stanza, alternating "remote" and "interleave" policy
 *    (the builder makes every fourth op a write);
 *  - one RPC stanza to the host across the ring.
 *
 * Even hosts bond two ThymesisFlow channels to their donor, odd hosts
 * use one. Every third host puts a page cache in front of its remote
 * memory.
 * The seed only jitters each node's DRAM access time by +-1%, so every
 * seed yields the same shape of load and the results of different
 * seeds stay comparable. (Jittering fabric link latencies instead
 * moves the RPC streams' phase at the switches, and with it the
 * simulated throughput, by several percent per seed.)
 */

#ifndef TF_PERFBENCH_RING_SPEC_HH
#define TF_PERFBENCH_RING_SPEC_HH

#include <cstdint>
#include <string>

namespace tf::perfbench {

struct RingParams
{
    /** Host/donor pairs, one switch each; at least 3 for a ring. */
    unsigned pairs = 16;
    std::uint64_t seed = 42;
    /** Ops per memory stanza. */
    std::uint64_t memOps = 4000;
    /** Ops per RPC stanza. */
    std::uint64_t rpcOps = 1000;
};

/**
 * The spec text (JSON) for @p p; parse it with topo::parseSpec().
 * Throws std::invalid_argument when @p p.pairs < 3.
 */
std::string ringSpec(const RingParams &p);

} // namespace tf::perfbench

#endif // TF_PERFBENCH_RING_SPEC_HH
