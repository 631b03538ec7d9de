#include "topo/spec.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "mem/dram.hh"
#include "sim/ticks.hh"

namespace tf::topo {

namespace {

using json::Value;

[[noreturn]] void
fail(const Value &v, const std::string &msg)
{
    throw SpecError(v.where() + ": " + msg);
}

/** Reject typo'd keys: every stanza lists what it accepts. */
void
checkKeys(const Value &obj,
          std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.members()) {
        bool ok = false;
        for (const char *k : allowed)
            if (kv.first == k)
                ok = true;
        if (!ok)
            fail(kv.second, "unknown key \"" + kv.first + "\"");
    }
}

const Value &
require(const Value &obj, const std::string &key)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        fail(obj, "missing required key \"" + key + "\"");
    return *v;
}

std::string
str(const Value &v, const std::string &what)
{
    if (!v.isString())
        fail(v, what + " must be a string");
    return v.str();
}

double
num(const Value &v, const std::string &what)
{
    if (!v.isNumber())
        fail(v, what + " must be a number");
    return v.number();
}

double
numOr(const Value &obj, const std::string &key, double dflt)
{
    const Value *v = obj.find(key);
    return v == nullptr ? dflt : num(*v, "\"" + key + "\"");
}

/**
 * A non-negative integer no larger than @p max: by default the most
 * the field's type holds, or less where the model narrows it.
 */
template <typename T>
T
uintOr(const Value &obj, const std::string &key, T dflt,
       std::uint64_t max = std::numeric_limits<T>::max())
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        return dflt;
    double n = num(*v, "\"" + key + "\"");
    if (n < 0 || n != std::floor(n))
        fail(*v, "\"" + key + "\" must be a non-negative integer");
    // Test 2^64 first: casting a larger double is undefined.
    if (n >= 0x1p64 || static_cast<std::uint64_t>(n) > max)
        fail(*v, "\"" + key + "\" must be at most " +
                     std::to_string(max));
    return static_cast<T>(n);
}

/**
 * A duration counted in units of @p unit ticks. It must not be
 * negative or hold more than @p max ticks (sim::maxDelay for a delay,
 * sim::maxSpan for an instant or span), so the sums a run forms from
 * it stay inside the Tick range. Where the model needs a @p positive
 * duration, a value that truncates to 0 ticks is rejected too; the
 * caller rejects zero itself, with the model's reason.
 */
double
durationOr(const Value &obj, const std::string &key, double dflt,
           sim::Tick unit, sim::Tick max, bool positive = false)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        return dflt;
    double d = num(*v, "\"" + key + "\"");
    double ticks = d * static_cast<double>(unit);
    if (d < 0)
        fail(*v, "\"" + key + "\" must not be negative");
    if (ticks > static_cast<double>(max))
        fail(*v, "\"" + key + "\" is beyond the simulated time range: " +
                     "at most " + std::to_string(max / unit));
    if (positive && d > 0 && ticks < 1)
        fail(*v, "\"" + key + "\" is shorter than the 1 ps tick");
    return d;
}

bool
boolOr(const Value &obj, const std::string &key, bool dflt)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        return dflt;
    if (!v->isBool())
        fail(*v, "\"" + key + "\" must be true or false");
    return v->boolean();
}

std::string
strOr(const Value &obj, const std::string &key,
      const std::string &dflt)
{
    const Value *v = obj.find(key);
    return v == nullptr ? dflt : str(*v, "\"" + key + "\"");
}

/** Element names become stat paths and LP names: keep them tame. */
void
checkIdent(const Value &v, const std::string &name,
           const std::string &what)
{
    if (name.empty())
        fail(v, what + " name must not be empty");
    for (char c : name) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '-';
        if (!ok)
            fail(v, what + " name \"" + name +
                        "\" may only contain [A-Za-z0-9_-]");
    }
}

const Value &
arrayOf(const Value &root, const std::string &key, bool required)
{
    static const Value empty =
        Value::makeArray({}, std::string("<builtin>"));
    const Value *v = root.find(key);
    if (v == nullptr) {
        if (required)
            fail(root, "missing required key \"" + key + "\"");
        return empty;
    }
    if (!v->isArray())
        fail(*v, "\"" + key + "\" must be an array");
    return *v;
}

DramSpec
parseDram(const Value &v)
{
    if (!v.isObject())
        fail(v, "\"dram\" must be an object");
    checkKeys(v, {"accessNs", "gbps", "banks"});
    DramSpec d;
    d.accessNs =
        durationOr(v, "accessNs", d.accessNs, sim::ticksPerNs, sim::maxDelay);
    d.gbps = numOr(v, "gbps", d.gbps);
    d.banks = uintOr(v, "banks", d.banks, mem::DramParams::kMaxBanks);
    if (d.accessNs <= 0)
        fail(v, "dram accessNs must be positive");
    if (d.gbps <= 0)
        fail(v, "dram gbps must be positive");
    if (d.banks < 1)
        fail(v, "dram banks must be >= 1");
    return d;
}

PageCacheSpec
parseCache(const Value &v)
{
    if (!v.isObject())
        fail(v, "\"cache\" must be an object");
    checkKeys(v, {"enabled", "frameBudget", "lineMlp", "lowWatermark",
                  "highWatermark"});
    PageCacheSpec c;
    c.enabled = boolOr(v, "enabled", true);
    c.frameBudget = uintOr(v, "frameBudget", c.frameBudget);
    c.lineMlp = uintOr(v, "lineMlp", c.lineMlp);
    c.lowWatermark = uintOr(v, "lowWatermark", c.lowWatermark);
    c.highWatermark = uintOr(v, "highWatermark", c.highWatermark);
    if (c.frameBudget < 1)
        fail(v, "cache frameBudget must be >= 1");
    if (c.lineMlp < 1)
        fail(v, "cache lineMlp must be >= 1");
    if (c.lowWatermark > c.highWatermark)
        fail(v, "cache lowWatermark must not exceed highWatermark");
    return c;
}

const std::set<std::string> kFaultKinds = {
    "channelFail", "channelFlap", "burstLoss",     "latencySpike",
    "dramStall",   "creditStarve", "controlOutage", "cachePoison",
};

} // namespace

Spec
parseSpec(const std::string &text, const std::string &origin)
{
    Value root = json::parse(text, origin);
    if (!root.isObject())
        fail(root, "topology file must be a JSON object");
    checkKeys(root, {"name", "nodes", "switches", "links", "traffic",
                     "faults", "monitors", "timelineUs"});

    Spec spec;
    spec.name = str(require(root, "name"), "\"name\"");
    checkIdent(require(root, "name"), spec.name, "topology");

    // --- nodes -------------------------------------------------------
    // Nodes and switches share one namespace. Ids follow declaration
    // order, nodes first, so an id below nodes.size() is a node.
    std::map<std::string, std::size_t> elementIds;
    auto nodeNamed = [&spec, &elementIds](const std::string &name) {
        auto it = elementIds.find(name);
        return it != elementIds.end() && it->second < spec.nodes.size()
                   ? &spec.nodes[it->second]
                   : nullptr;
    };
    for (const Value &nv : arrayOf(root, "nodes", true).items()) {
        if (!nv.isObject())
            fail(nv, "node entry must be an object");
        checkKeys(nv, {"name", "role", "donor", "channels",
                       "donatedMiB", "dram", "cache"});
        NodeSpec n;
        n.name = str(require(nv, "name"), "node \"name\"");
        checkIdent(require(nv, "name"), n.name, "node");
        if (!elementIds.emplace(n.name, spec.nodes.size()).second)
            fail(nv, "duplicate name \"" + n.name + "\"");
        n.role = strOr(nv, "role", n.role);
        if (n.role != "host" && n.role != "donor")
            fail(nv, "node \"" + n.name + "\" role must be \"host\" "
                     "or \"donor\", got \"" + n.role + "\"");
        n.donor = strOr(nv, "donor", "");
        if (!n.donor.empty() && n.role != "host")
            fail(nv, "node \"" + n.name +
                         "\": only hosts can claim a donor");
        n.channels = uintOr(nv, "channels", n.channels);
        if (n.channels < 1 || n.channels > 8)
            fail(nv, "node \"" + n.name +
                         "\" channels must be in [1, 8]");
        // The donation is used in bytes: MiB << 20 must not wrap.
        n.donatedMiB = uintOr(nv, "donatedMiB", n.donatedMiB,
                              std::numeric_limits<std::uint64_t>::max() >>
                                  20);
        if (n.role == "donor" && n.donatedMiB < 1)
            fail(nv, "donor \"" + n.name +
                         "\" donatedMiB must be >= 1");
        if (const Value *dv = nv.find("dram"))
            n.dram = parseDram(*dv);
        if (const Value *cv = nv.find("cache")) {
            n.cache = parseCache(*cv);
            if (n.cache.enabled && n.role != "host")
                fail(*cv, "node \"" + n.name +
                              "\": only hosts mount a page cache");
        }
        spec.nodes.push_back(std::move(n));
    }
    if (spec.nodes.empty())
        fail(root, "topology needs at least one node");

    // Donor references: must exist, be donor-role, claimed once.
    std::set<std::string> claimedDonors;
    const auto &nodeValues = arrayOf(root, "nodes", true).items();
    for (std::size_t i = 0; i < nodeValues.size(); ++i) {
        const Value &nv = nodeValues[i];
        const NodeSpec &n = spec.nodes[i];
        if (n.donor.empty())
            continue;
        const NodeSpec *donor = nodeNamed(n.donor);
        if (donor == nullptr)
            fail(nv, "node \"" + n.name +
                         "\" references unknown node \"" + n.donor +
                         "\"");
        if (donor->role != "donor")
            fail(nv, "node \"" + n.name + "\" claims \"" + n.donor +
                         "\", whose role is \"" + donor->role +
                         "\", not \"donor\"");
        if (!claimedDonors.insert(n.donor).second)
            fail(nv, "donor \"" + n.donor +
                         "\" is claimed by more than one host");
    }

    // --- switches ----------------------------------------------------
    for (const Value &sv : arrayOf(root, "switches", false).items()) {
        if (!sv.isObject())
            fail(sv, "switch entry must be an object");
        checkKeys(sv, {"name", "crossingNs", "radix"});
        SwitchSpec s;
        s.name = str(require(sv, "name"), "switch \"name\"");
        checkIdent(require(sv, "name"), s.name, "switch");
        if (!elementIds.emplace(s.name, elementIds.size()).second)
            fail(sv, "duplicate name \"" + s.name + "\"");
        s.crossingNs = durationOr(sv, "crossingNs", s.crossingNs,
                                  sim::ticksPerNs, sim::maxDelay);
        s.radix = uintOr(sv, "radix", s.radix);
        if (s.radix < 2)
            fail(sv, "switch \"" + s.name + "\" radix must be >= 2");
        spec.switches.push_back(std::move(s));
    }

    // --- links -------------------------------------------------------
    std::set<std::string> linkPairs;
    std::map<std::string, std::uint32_t> ports;
    for (const Value &lv : arrayOf(root, "links", false).items()) {
        if (!lv.isObject())
            fail(lv, "link entry must be an object");
        checkKeys(lv, {"a", "b", "gbps", "latencyNs"});
        LinkSpec l;
        l.a = str(require(lv, "a"), "link \"a\"");
        l.b = str(require(lv, "b"), "link \"b\"");
        for (const std::string &end : {l.a, l.b})
            if (elementIds.count(end) == 0)
                fail(lv, "link references unknown node \"" + end +
                             "\"");
        if (l.a == l.b)
            fail(lv, "link endpoints must differ (self-link on \"" +
                         l.a + "\")");
        std::string key = std::min(l.a, l.b) + "<->" +
                          std::max(l.a, l.b);
        if (!linkPairs.insert(key).second)
            fail(lv, "duplicate link " + key);
        l.gbps = numOr(lv, "gbps", l.gbps);
        if (l.gbps <= 0)
            fail(lv, "link " + key + " gbps must be positive");
        l.latencyNs = durationOr(lv, "latencyNs", l.latencyNs,
                                 sim::ticksPerNs, sim::maxDelay,
                                 /*positive=*/true);
        if (l.latencyNs <= 0)
            fail(lv, "link " + key +
                         " latencyNs must be positive — zero-latency "
                         "links break the parallel engine's "
                         "conservative lookahead");
        ports[l.a]++;
        ports[l.b]++;
        spec.links.push_back(std::move(l));
    }
    for (const SwitchSpec &s : spec.switches) {
        auto it = ports.find(s.name);
        std::uint32_t used = it == ports.end() ? 0 : it->second;
        if (used > s.radix)
            fail(root, "switch \"" + s.name + "\" has " +
                           std::to_string(used) +
                           " links but radix " +
                           std::to_string(s.radix));
    }

    // Connected components of the undirected element graph (union-
    // find over the links, once), for traffic validation below.
    std::vector<std::size_t> component(elementIds.size());
    std::iota(component.begin(), component.end(), std::size_t{0});
    auto find = [&component](std::size_t v) {
        while (component[v] != v)
            v = component[v] = component[component[v]];
        return v;
    };
    for (const LinkSpec &l : spec.links)
        component[find(elementIds.at(l.a))] = find(elementIds.at(l.b));
    auto reachable = [&](const std::string &from, const std::string &to) {
        return find(elementIds.at(from)) == find(elementIds.at(to));
    };

    // --- traffic -----------------------------------------------------
    std::set<std::string> trafficNames;
    for (const Value &tv : arrayOf(root, "traffic", false).items()) {
        if (!tv.isObject())
            fail(tv, "traffic entry must be an object");
        checkKeys(tv, {"name", "kind", "src", "dst", "requestBytes",
                       "responseBytes", "accessBytes", "policy",
                       "window", "ops", "smokeOps", "startUs"});
        TrafficSpec t;
        t.name = str(require(tv, "name"), "traffic \"name\"");
        checkIdent(require(tv, "name"), t.name, "traffic");
        if (!trafficNames.insert(t.name).second)
            fail(tv, "duplicate traffic name \"" + t.name + "\"");
        t.kind = strOr(tv, "kind", t.kind);
        if (t.kind != "rpc" && t.kind != "memory")
            fail(tv, "traffic \"" + t.name +
                         "\" kind must be \"rpc\" or \"memory\"");
        t.src = str(require(tv, "src"), "traffic \"src\"");
        const NodeSpec *srcNode = nodeNamed(t.src);
        if (srcNode == nullptr)
            fail(tv, "traffic \"" + t.name +
                         "\" references unknown node \"" + t.src +
                         "\"");
        t.requestBytes = uintOr(tv, "requestBytes", t.requestBytes);
        t.responseBytes = uintOr(tv, "responseBytes", t.responseBytes);
        t.accessBytes = uintOr(tv, "accessBytes", t.accessBytes);
        t.window = uintOr(tv, "window", t.window);
        t.ops = uintOr(tv, "ops", t.ops);
        t.smokeOps = uintOr(tv, "smokeOps", t.smokeOps);
        t.startUs = durationOr(tv, "startUs", t.startUs, sim::ticksPerUs,
                               sim::maxSpan);
        if (t.window < 1)
            fail(tv, "traffic \"" + t.name + "\" window must be >= 1");
        if (t.ops < 1)
            fail(tv, "traffic \"" + t.name + "\" ops must be >= 1");
        if (t.kind == "rpc") {
            t.dst = str(require(tv, "dst"), "traffic \"dst\"");
            if (nodeNamed(t.dst) == nullptr)
                fail(tv, "traffic \"" + t.name +
                             "\" references unknown node \"" + t.dst +
                             "\"");
            if (t.dst == t.src)
                fail(tv, "traffic \"" + t.name +
                             "\" src and dst must differ");
            if (t.requestBytes < 1 || t.responseBytes < 1)
                fail(tv, "traffic \"" + t.name +
                             "\" request/responseBytes must be >= 1");
            if (!reachable(t.src, t.dst))
                fail(tv, "traffic \"" + t.name + "\": endpoint \"" +
                             t.dst + "\" is unreachable from \"" +
                             t.src + "\" over the declared links");
        } else {
            if (tv.find("dst") != nullptr)
                fail(tv, "traffic \"" + t.name +
                             "\": memory traffic has no \"dst\" — "
                             "the donated window is the target");
            t.policy = strOr(tv, "policy", t.policy);
            if (t.policy != "remote" && t.policy != "local" &&
                t.policy != "interleave")
                fail(tv, "traffic \"" + t.name +
                             "\" policy must be \"remote\", "
                             "\"local\", or \"interleave\"");
            if (t.accessBytes < 1)
                fail(tv, "traffic \"" + t.name +
                             "\" accessBytes must be >= 1");
            if (srcNode->role != "host")
                fail(tv, "traffic \"" + t.name + "\" src \"" + t.src +
                             "\" must be a host");
            if (t.policy != "local" && srcNode->donor.empty())
                fail(tv, "traffic \"" + t.name + "\": host \"" +
                             t.src + "\" has no donor, so policy \"" +
                             t.policy + "\" has no remote window");
        }
        spec.traffic.push_back(std::move(t));
    }

    // --- faults ------------------------------------------------------
    for (const Value &fv : arrayOf(root, "faults", false).items()) {
        if (!fv.isObject())
            fail(fv, "fault entry must be an object");
        checkKeys(fv, {"kind", "point", "atUs", "forUs", "extraNs"});
        FaultSpec f;
        f.kind = str(require(fv, "kind"), "fault \"kind\"");
        if (kFaultKinds.count(f.kind) == 0) {
            std::string known;
            for (const std::string &k : kFaultKinds)
                known += (known.empty() ? "" : ", ") + k;
            fail(fv, "unknown fault kind \"" + f.kind +
                         "\" (known: " + known + ")");
        }
        f.point = str(require(fv, "point"), "fault \"point\"");
        f.atUs = durationOr(fv, "atUs", f.atUs, sim::ticksPerUs, sim::maxSpan);
        f.forUs =
            durationOr(fv, "forUs", f.forUs, sim::ticksPerUs, sim::maxSpan);
        f.extraNs = durationOr(fv, "extraNs", f.extraNs, sim::ticksPerNs,
                               sim::maxDelay);
        spec.faults.push_back(std::move(f));
    }

    // --- timeline + monitors -----------------------------------------
    spec.timelineUs = durationOr(root, "timelineUs", spec.timelineUs,
                                 sim::ticksPerUs, sim::maxSpan,
                                 /*positive=*/true);
    if (spec.timelineUs <= 0)
        fail(root, "timelineUs must be positive");
    std::set<std::string> monitorNames;
    for (const Value &mv : arrayOf(root, "monitors", false).items()) {
        if (!mv.isObject())
            fail(mv, "monitor entry must be an object");
        checkKeys(mv, {"name", "metric", "op", "threshold",
                       "forWindows", "fromUs", "untilUs", "dumpFlight"});
        MonitorSpec m;
        m.name = str(require(mv, "name"), "monitor \"name\"");
        checkIdent(require(mv, "name"), m.name, "monitor");
        if (!monitorNames.insert(m.name).second)
            fail(mv, "duplicate monitor name \"" + m.name + "\"");
        m.metric = str(require(mv, "metric"), "monitor \"metric\"");
        if (m.metric.empty())
            fail(mv, "monitor \"" + m.name +
                         "\" metric must not be empty");
        m.op = strOr(mv, "op", m.op);
        if (m.op != ">" && m.op != "<" && m.op != ">=" && m.op != "<=")
            fail(mv, "monitor \"" + m.name + "\" op must be one of "
                     "\">\", \"<\", \">=\", \"<=\", got \"" + m.op +
                         "\"");
        m.threshold = num(require(mv, "threshold"),
                          "monitor \"threshold\"");
        m.forWindows = uintOr(mv, "forWindows", m.forWindows);
        if (m.forWindows < 1)
            fail(mv, "monitor \"" + m.name +
                         "\" forWindows must be >= 1");
        m.fromUs =
            durationOr(mv, "fromUs", m.fromUs, sim::ticksPerUs, sim::maxSpan);
        m.untilUs = durationOr(mv, "untilUs", m.untilUs, sim::ticksPerUs,
                               sim::maxSpan);
        if (mv.find("untilUs") != nullptr && m.untilUs <= m.fromUs)
            fail(mv, "monitor \"" + m.name +
                         "\" untilUs must exceed fromUs");
        m.dumpFlight = boolOr(mv, "dumpFlight", m.dumpFlight);
        m.where = mv.where();
        spec.monitors.push_back(std::move(m));
    }

    return spec;
}

Spec
loadSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SpecError(path + ": cannot open topology file");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseSpec(buf.str(), path);
}

} // namespace tf::topo
