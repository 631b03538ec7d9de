#include "ring_spec.hh"

#include <stdexcept>

#include <gtest/gtest.h>

#include "topo/builder.hh"
#include "topo/spec.hh"

using namespace tf;

TEST(RingSpec, ParsesAndBuildsAcrossSeedsAndSizes)
{
    for (unsigned pairs : {3u, 4u, 7u, 16u}) {
        for (std::uint64_t seed : {1ull, 42ull, 7919ull}) {
            perfbench::RingParams p;
            p.pairs = pairs;
            p.seed = seed;
            p.memOps = 20;
            p.rpcOps = 10;
            SCOPED_TRACE("pairs=" + std::to_string(pairs) +
                         " seed=" + std::to_string(seed));
            topo::Spec spec = topo::parseSpec(perfbench::ringSpec(p),
                                              "ring");
            ASSERT_EQ(spec.nodes.size(), 2u * pairs);
            ASSERT_EQ(spec.switches.size(), pairs);
            ASSERT_EQ(spec.traffic.size(), 2u * pairs);

            topo::BuildOptions opt;
            opt.seed = seed;
            opt.jobs = 2;
            topo::Instance inst(spec, opt);
            inst.run();
            for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
                const auto &t = inst.traffic(i);
                EXPECT_EQ(t.completed.value(), t.target) << t.name;
            }
        }
    }
}

TEST(RingSpec, SameSeedSameText)
{
    perfbench::RingParams p;
    p.seed = 5;
    EXPECT_EQ(perfbench::ringSpec(p), perfbench::ringSpec(p));
    perfbench::RingParams q = p;
    q.seed = 6;
    EXPECT_NE(perfbench::ringSpec(p), perfbench::ringSpec(q));
}

TEST(RingSpec, RejectsTooFewPairs)
{
    perfbench::RingParams p;
    p.pairs = 2;
    EXPECT_THROW(perfbench::ringSpec(p), std::invalid_argument);
}
