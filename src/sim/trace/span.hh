/**
 * @file
 * Causal-span trace events.
 *
 * A span is one transaction's residency in one datapath stage: a
 * Begin event when the stage accepts it and an End event when the
 * stage hands it downstream. Spans of one transaction share a
 * TraceId, so a full round trip (host crossings, RMMU, routing, LLC
 * framing, donor crossings, C1 mastering and the way back) is a chain
 * of adjacent spans whose durations tile the observed RTT exactly.
 *
 * Events are fixed-size PODs so the per-LP ring buffer (buffer.hh)
 * can record them on the hot path without allocation.
 */

#ifndef TF_SIM_TRACE_SPAN_HH
#define TF_SIM_TRACE_SPAN_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace tf::sim::trace {

/** Per-buffer-local transaction trace id; 0 = not traced. */
using TraceId = std::uint64_t;
constexpr TraceId noTrace = 0;

/**
 * Datapath stages, in round-trip order. One Perfetto thread track
 * per stage; adjacent stages hand off on the same tick, so the span
 * durations of one trace sum to its end-to-end latency.
 */
enum class Stage : std::uint8_t {
    None = 0,       ///< stage unset (crossing not tagged for tracing)
    TagQueue,       ///< issue() to admit(): OpenCAPI tag wait
    HostSerdesDown, ///< host serDES, request direction
    StackDown,      ///< host FPGA stack, request direction
    Rmmu,           ///< RMMU translation (instant)
    Route,          ///< routing/bonding channel pick (instant)
    LlcReq,         ///< LLC framing + wire + replay, request direction
    DonorStackDown, ///< donor FPGA stack, request direction
    DonorSerdesDown,///< donor serDES, request direction
    C1,             ///< OpenCAPI C1 mastering incl. donor DRAM
    DonorSerdesUp,  ///< donor serDES, response direction
    DonorStackUp,   ///< donor FPGA stack, response direction
    LlcResp,        ///< LLC framing + wire + replay, response direction
    StackUp,        ///< host FPGA stack, response direction
    HostSerdesUp,   ///< host serDES, response direction
    CacheHit,       ///< page-cache access served from a local frame
    CacheMiss,      ///< page-cache access waiting on a remote fill
    CacheWb,        ///< page-cache dirty write-back to the donor
    SwitchHop,      ///< fabric hop: element egress queue + wire
    Fault,          ///< injected fault active at a fault point
};

constexpr int kStageCount = static_cast<int>(Stage::Fault) + 1;

/** Stable stage name, used for Perfetto tracks and metric keys. */
constexpr const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::None:            return "none";
      case Stage::TagQueue:        return "tagQueue";
      case Stage::HostSerdesDown:  return "hostSerdesDown";
      case Stage::StackDown:       return "stackDown";
      case Stage::Rmmu:            return "rmmu";
      case Stage::Route:           return "route";
      case Stage::LlcReq:          return "llcReq";
      case Stage::DonorStackDown:  return "donorStackDown";
      case Stage::DonorSerdesDown: return "donorSerdesDown";
      case Stage::C1:              return "c1";
      case Stage::DonorSerdesUp:   return "donorSerdesUp";
      case Stage::DonorStackUp:    return "donorStackUp";
      case Stage::LlcResp:         return "llcResp";
      case Stage::StackUp:         return "stackUp";
      case Stage::HostSerdesUp:    return "hostSerdesUp";
      case Stage::CacheHit:        return "cacheHit";
      case Stage::CacheMiss:       return "cacheMiss";
      case Stage::CacheWb:         return "cacheWb";
      case Stage::SwitchHop:       return "switchHop";
      case Stage::Fault:           return "fault";
    }
    return "unknown";
}

/** One begin/end edge of a span. 24 bytes, trivially copyable. */
struct SpanEvent
{
    enum class Kind : std::uint8_t { Begin = 0, End = 1 };

    Tick tick = 0;        ///< simulated time of the edge
    TraceId id = noTrace; ///< transaction trace id (buffer-local)
    std::uint32_t depth = 0; ///< queue depth at stage entry (Begin)
    Stage stage = Stage::None;
    Kind kind = Kind::Begin;
};

} // namespace tf::sim::trace

#endif // TF_SIM_TRACE_SPAN_HH
