#include "topo_scenario.hh"

#include "topo/builder.hh"

namespace tf::bench {

void
runTopoScenario(ScenarioContext &ctx, const topo::Spec &spec)
{
    topo::BuildOptions opt;
    opt.seed = ctx.seed();
    opt.smoke = ctx.smoke();
    opt.cutThrough = ctx.cutThroughOverride();
    opt.timelineUs = ctx.timelineWindowUs();
    topo::Instance inst(spec, opt);

    if (ctx.traceEnabled()) {
        for (std::size_t i = 0; i < inst.lpCount(); ++i) {
            auto &tb = inst.lp(i).queue().trace();
            tb.setFull(true);
            tb.setIdTag(static_cast<std::uint32_t>(i + 1));
        }
    }

    inst.run();

    std::uint64_t totalOps = 0;
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        totalOps += t.completed.value();
        ctx.metric(t.name + ".ops",
                   static_cast<double>(t.completed.value()), "ops");
        if (t.latUs.count() > 0)
            ctx.latencyUs(t.name + ".lat", t.latUs);
    }
    sim::Tick span = inst.lastCompletion();
    if (span > 0 && totalOps > 0)
        ctx.metric("opsPerSimSec",
                   static_cast<double>(totalOps) / sim::toSec(span),
                   "ops/s");
    ctx.metric("fabric.relayedMsgs",
               static_cast<double>(inst.fabric().relayedMessages()),
               "msgs");
    ctx.metric("fabric.queueMaxNs", inst.fabric().maxQueueDelayNs(),
               "ns");
    ctx.metric("fabric.queueHighWater",
               static_cast<double>(inst.fabric().maxQueueHighWater()),
               "msgs");
    if (!spec.faults.empty())
        ctx.metric("faultsFired",
                   static_cast<double>(inst.faultsFired()), "events");

    // Watchdog outcomes double as gateable headline metrics: the
    // baseline pins e.g. slo.victim_quiet.violations at 0 so a
    // regression that perturbs the quiet phase fails CI.
    for (const auto &s : inst.sloResults()) {
        ctx.metric("slo." + s.name + ".violations",
                   static_cast<double>(s.violations), "windows");
        ctx.metric("slo." + s.name + ".worstValue", s.worstValue);
    }
    ctx.timeline().adopt(inst.timeline());

    for (std::size_t i = 0; i < inst.lpCount(); ++i) {
        ctx.addRun(inst.lp(i).queue());
        if (ctx.traceEnabled())
            ctx.collectTrace(inst.lp(i).queue(), inst.lp(i).name());
    }
    inst.registerStats(ctx.registry());
    ctx.registry().freezeAll();
}

} // namespace tf::bench
