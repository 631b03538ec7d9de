/**
 * @file
 * Fault injection on the network channels: demonstrate that the LLC
 * frame-replay protocol keeps disaggregated memory correct under
 * frame loss and corruption, and show what reliability costs.
 *
 * Writes a pattern through a lossy link, reads it back, verifies
 * every byte, and prints the replay statistics.
 */

#include <cstdio>

#include "tflow/rig.hh"

using namespace tf;

int
main()
{
    for (double error_rate : {0.0, 0.01, 0.05}) {
        sim::EventQueue eq;
        sim::Rng rng(7);
        flow::FlowParams params;
        params.frameErrorRate = error_rate;
        params.ackTimeout = sim::microseconds(10);
        flow::Rig rig("tflow", eq, params, rng);
        flow::Datapath &dp = rig.dp;
        dp.attach(0, flow::Rig::kDonorBase, 1, {0, 1}); // bonded

        const int lines = 4000;
        int bad = 0;
        int outstanding = 0;

        // Write a distinct pattern to every line.
        for (int i = 0; i < lines; ++i) {
            auto wr = mem::makeTxn(
                mem::TxnType::WriteReq,
                ocapi::kM1WindowBase + static_cast<mem::Addr>(i) * 128);
            wr->data.assign(128,
                            static_cast<std::uint8_t>(i * 7 + 13));
            ++outstanding;
            wr->onComplete = [&](mem::MemTxn &t) {
                --outstanding;
                if (t.error)
                    ++bad;
            };
            dp.issue(wr);
        }
        eq.run();

        // Read everything back and verify.
        for (int i = 0; i < lines; ++i) {
            auto rd = mem::makeTxn(
                mem::TxnType::ReadReq,
                ocapi::kM1WindowBase + static_cast<mem::Addr>(i) * 128);
            auto expect = static_cast<std::uint8_t>(i * 7 + 13);
            rd->onComplete = [&bad, expect](mem::MemTxn &t) {
                if (t.error || t.data.size() != 128) {
                    ++bad;
                    return;
                }
                for (auto byte : t.data)
                    if (byte != expect) {
                        ++bad;
                        return;
                    }
            };
            dp.issue(rd);
        }
        eq.run();

        std::uint64_t replays = 0, timeouts = 0, gaps = 0,
                      corrupted = 0;
        for (std::size_t ch = 0; ch < dp.channelCount(); ++ch) {
            replays += dp.channel(ch).txA().replayedFrames() +
                       dp.channel(ch).txB().replayedFrames();
            timeouts += dp.channel(ch).txA().timeouts() +
                        dp.channel(ch).txB().timeouts();
            gaps += dp.channel(ch).rxA().gapsDetected() +
                    dp.channel(ch).rxB().gapsDetected();
            corrupted += dp.channel(ch).rxA().corruptedSeen() +
                         dp.channel(ch).rxB().corruptedSeen();
        }
        std::printf("error rate %.2f: %d/%d lines verified, "
                    "%llu replayed frames, %llu gaps, %llu corrupted, "
                    "%llu timeouts, mean RTT %.0f ns\n",
                    error_rate, lines - bad, lines,
                    (unsigned long long)replays,
                    (unsigned long long)gaps,
                    (unsigned long long)corrupted,
                    (unsigned long long)timeouts,
                    dp.compute().rttNs().mean());
        if (bad != 0)
            return 1;
    }
    std::printf("all patterns intact under every error rate\n");
    return 0;
}
