#include "apps/memcached.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tf::apps {

// ------------------------------------------------------------ server

MemcachedServer::MemcachedServer(std::string name,
                                 sys::Testbed &testbed,
                                 sys::Node &node,
                                 os::AllocPolicy policy,
                                 const MemcachedParams &params)
    : _node(node), _params(params),
      _space(node.mm(), node.localNode(), std::move(policy)),
      _path(node),
      _workers(name + ".workers",
               testbed.serverA().dram().eventQueue(), params.workers),
      _rng(params.seed ^ 0x5eed),
      _unusedSlots(static_cast<std::uint32_t>(params.cacheItems))
{
    _slabBase =
        _space.mmap(params.cacheItems *
                    static_cast<std::uint64_t>(params.slotBytes));
    _bufferBase = _space.mmap(params.bufferRegionBytes);
    // Hash index: one bucket array + chain nodes; modelled as a
    // region the chain walk touches.
    _indexBase = _space.mmap(params.cacheItems * 64);
}

std::vector<mem::Addr>
MemcachedServer::chainAddrs(std::uint64_t key) const
{
    // Dependent pointer walk through the hash index region.
    std::vector<mem::Addr> addrs;
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < _params.chainDepth; ++i) {
        addrs.push_back(_indexBase +
                        (h % (_params.cacheItems * 64 /
                              mem::cachelineBytes)) *
                            mem::cachelineBytes);
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return addrs;
}

std::vector<mem::Addr>
MemcachedServer::valueAddrs(std::uint32_t slot,
                            std::uint32_t bytes) const
{
    std::vector<mem::Addr> addrs;
    mem::Addr base = _slabBase + static_cast<mem::Addr>(slot) *
                                     _params.slotBytes;
    for (std::uint32_t off = 0; off < bytes;
         off += mem::cachelineBytes)
        addrs.push_back(base + off);
    return addrs;
}

std::uint32_t
MemcachedServer::insert(std::uint64_t key, std::uint32_t bytes)
{
    auto it = _map.find(key);
    if (it != _map.end()) {
        it->second->bytes = bytes;
        touch(key);
        return it->second->slot;
    }
    std::uint32_t slot;
    if (_unusedSlots > 0) {
        slot = --_unusedSlots;
    } else {
        // Evict the LRU item and reuse its slot.
        Item victim = _lru.back();
        _lru.pop_back();
        _map.erase(victim.key);
        slot = victim.slot;
    }
    _lru.push_front(Item{key, slot, bytes});
    _map[key] = _lru.begin();
    return slot;
}

void
MemcachedServer::touch(std::uint64_t key)
{
    auto it = _map.find(key);
    if (it == _map.end())
        return;
    _lru.splice(_lru.begin(), _lru, it->second);
}

void
MemcachedServer::handle(std::uint64_t key, bool isGet,
                        std::uint32_t valueBytes,
                        std::function<void(bool, std::uint32_t)> done)
{
    // Server CPU (syscalls, event loop, protocol parse), then the
    // memory work: connection/buffer state, hash-chain walk, value.
    double jittered = _rng.normal(
        static_cast<double>(_params.serviceCpu),
        static_cast<double>(_params.serviceJitter));
    sim::Tick cpu = static_cast<sim::Tick>(
        std::max(jittered, 1e4 /* 10 ns floor */));
    _workers.exec(cpu, [this, key, isGet, valueBytes,
                        done = std::move(done)]() mutable {
        std::vector<mem::Addr> buffers;
        std::uint64_t region_lines =
            _params.bufferRegionBytes / mem::cachelineBytes;
        for (int i = 0; i < _params.bufferLines; ++i)
            buffers.push_back(
                _bufferBase +
                (_rng.next() % region_lines) * mem::cachelineBytes);
        auto chain = chainAddrs(key);
        chain.insert(chain.end(), buffers.begin(), buffers.end());
        _path.burst(_space, std::move(chain), false, 2,
                    [this, key, isGet, valueBytes,
                     done = std::move(done)]() mutable {
            auto it = _map.find(key);
            if (isGet) {
                if (it == _map.end()) {
                    _misses.inc();
                    done(false, 16); // "END" miss response
                    return;
                }
                _hits.inc();
                std::uint32_t bytes = it->second->bytes;
                touch(key);
                _path.burst(_space,
                            valueAddrs(it->second->slot, bytes),
                            false, 4,
                            [bytes, done = std::move(done)]() {
                                done(true, bytes + 48);
                            });
            } else {
                std::uint32_t slot = insert(key, valueBytes);
                _path.burst(_space, valueAddrs(slot, valueBytes),
                            true, 4,
                            [done = std::move(done)]() {
                                done(true, 16); // "STORED"
                            });
            }
        });
    });
}

void
MemcachedServer::warm(std::uint64_t key, std::uint32_t valueBytes,
                      std::function<void()> done)
{
    std::uint32_t slot = insert(key, valueBytes);
    _path.burst(_space, valueAddrs(slot, valueBytes), true, 8,
                std::move(done));
}

// --------------------------------------------------------- benchmark

MemcachedBenchmark::MemcachedBenchmark(sys::Testbed &testbed,
                                       MemcachedParams params)
    : _testbed(testbed), _params(params), _rng(params.seed),
      _zipf(params.keySpaceItems, params.zipfTheta)
{
    if (_testbed.scaleOut()) {
        // Each server holds half the cache; Twemproxy shards by key.
        MemcachedParams half = _params;
        half.cacheItems /= 2;
        _halfParams = std::make_unique<MemcachedParams>(half);
        _serverA = std::make_unique<MemcachedServer>(
            "mcA", testbed, testbed.serverA(),
            os::AllocPolicy::bind({testbed.serverA().localNode()}),
            *_halfParams);
        _serverB = std::make_unique<MemcachedServer>(
            "mcB", testbed, testbed.serverB(),
            os::AllocPolicy::bind({testbed.serverB().localNode()}),
            *_halfParams);
        _proxy = std::make_unique<sys::CpuSet>(
            "twemproxy", testbed.serverA().dram().eventQueue(), 4);
    } else {
        _serverA = std::make_unique<MemcachedServer>(
            "mcA", testbed, testbed.serverA(),
            testbed.serverPolicy(), _params);
    }
}

std::uint32_t
MemcachedBenchmark::sampleValueBytes()
{
    double v = _rng.logNormal(
        std::log(static_cast<double>(_params.meanValueBytes)), 0.6);
    return static_cast<std::uint32_t>(std::clamp(
        v, 64.0, static_cast<double>(_params.slotBytes)));
}

void
MemcachedBenchmark::warmup()
{
    auto &eq = _testbed.serverA().dram().eventQueue();
    // Fill the cache with SETs across the key space, most popular
    // keys last so they start resident.
    std::uint64_t fills = _params.cacheItems + _params.cacheItems / 4;
    auto remaining = std::make_shared<std::uint64_t>(fills);
    for (std::uint64_t i = 0; i < fills; ++i) {
        std::uint64_t key = _zipf(_rng);
        MemcachedServer *server = _serverA.get();
        if (_testbed.scaleOut() && (key & 1))
            server = _serverB.get();
        server->warm(key, sampleValueBytes(), [remaining]() {
            --*remaining;
        });
        // Batch warm-up to bound event-queue size.
        if (i % 1024 == 1023)
            eq.run();
    }
    eq.run();
    TF_ASSERT(*remaining == 0, "%llu of %llu warm-up SETs never completed",
              static_cast<unsigned long long>(*remaining),
              static_cast<unsigned long long>(fills));
}

void
MemcachedBenchmark::clientRequest(
    std::uint64_t key, bool isGet, std::uint32_t bytes,
    std::function<void(bool, bool)> done)
{
    auto &net = _testbed.network();
    std::uint64_t req_bytes = 96;

    if (!_testbed.scaleOut()) {
        net.send("client", "serverA", req_bytes,
                 [this, key, isGet, bytes,
                  done = std::move(done)]() mutable {
            _serverA->handle(key, isGet, bytes,
                             [this, isGet, done = std::move(done)](
                                 bool hit, std::uint32_t resp) {
                _testbed.network().send(
                    "serverA", "client", resp,
                    [isGet, hit, done = std::move(done)]() {
                        done(isGet, hit);
                    });
            });
        });
        return;
    }

    // Scale-out: client -> proxy (server A) -> shard -> proxy -> client.
    bool on_b = (key & 1) != 0;
    auto done_sp =
        std::make_shared<std::function<void(bool, bool)>>(
            std::move(done));
    net.send("client", "serverA", req_bytes, [this, key, isGet, bytes,
                                              on_b, done_sp]() {
        _proxy->exec(_params.proxyCpu, [this, key, isGet, bytes, on_b,
                                        done_sp]() {
            // Response path retraces proxy -> client.
            auto respond = [this, isGet, done_sp](
                               bool hit, std::uint32_t resp) {
                _proxy->exec(_params.proxyCpu / 2,
                             [this, isGet, hit, resp, done_sp]() {
                    _testbed.network().send(
                        "serverA", "client", resp,
                        [isGet, hit, done_sp]() {
                            (*done_sp)(isGet, hit);
                        });
                });
            };
            if (on_b) {
                _testbed.network().send(
                    "serverA", "serverB", 96,
                    [this, key, isGet, bytes, respond]() {
                        _serverB->handle(
                            key, isGet, bytes,
                            [this, respond](bool hit,
                                            std::uint32_t resp) {
                                _testbed.network().send(
                                    "serverB", "serverA", resp,
                                    [respond, hit, resp]() {
                                        respond(hit, resp);
                                    });
                            });
                    });
            } else {
                _serverA->handle(key, isGet, bytes, respond);
            }
        });
    });
}

MemcachedResult
MemcachedBenchmark::run()
{
    auto &eq = _testbed.serverA().dram().eventQueue();
    warmup();

    MemcachedResult result;
    sim::Tick start = eq.now();
    auto outstanding =
        std::make_shared<int>(_params.clientThreads);

    // Closed-loop client threads.
    struct Thread
    {
        std::uint64_t remaining;
    };
    auto threads = std::make_shared<std::vector<Thread>>(
        _params.clientThreads,
        Thread{_params.requestsPerThread});

    auto issue = std::make_shared<std::function<void(int)>>();
    // Weak self-reference: a shared capture in the function's own
    // target would cycle and leak the closed-loop state every run.
    std::weak_ptr<std::function<void(int)>> weakIssue = issue;
    *issue = [this, threads, weakIssue, outstanding, &result,
              &eq](int t) {
        Thread &th = (*threads)[static_cast<std::size_t>(t)];
        if (th.remaining == 0) {
            --*outstanding;
            return;
        }
        --th.remaining;
        std::uint64_t key = _zipf(_rng);
        bool is_get = _rng.uniform() < _params.getFraction;
        std::uint32_t bytes = sampleValueBytes();
        sim::Tick sent = eq.now();
        // Client-side stack (load generator + kernel) before the
        // request hits the wire; counted in the measured latency.
        sim::Tick stack = static_cast<sim::Tick>(std::max(
            _rng.normal(static_cast<double>(_params.clientStack),
                        static_cast<double>(_params.clientJitter)),
            1e4));
        eq.scheduleIn(stack, [this, key, is_get, bytes, t, sent,
                              weakIssue, &result, &eq]() {
            clientRequest(key, is_get, bytes,
                          [this, t, sent, weakIssue, &result,
                           &eq](bool was_get, bool hit) {
                              (void)hit;
                              double us = sim::toUs(eq.now() - sent);
                              if (was_get)
                                  result.getLatencyUs.add(us);
                              else
                                  result.setLatencyUs.add(us);
                              if (auto next = weakIssue.lock())
                                  (*next)(t);
                          });
        });
    };
    for (int t = 0; t < _params.clientThreads; ++t)
        (*issue)(t);
    eq.run();

    result.elapsed = eq.now() - start;
    std::uint64_t total_hits = _serverA->hits();
    std::uint64_t total_misses = _serverA->misses();
    if (_serverB) {
        total_hits += _serverB->hits();
        total_misses += _serverB->misses();
    }
    result.hitRatio =
        total_hits + total_misses == 0
            ? 0.0
            : static_cast<double>(total_hits) /
                  static_cast<double>(total_hits + total_misses);
    double ops = static_cast<double>(result.getLatencyUs.count() +
                                     result.setLatencyUs.count());
    result.throughputOps = ops / sim::toSec(result.elapsed);
    return result;
}

} // namespace tf::apps
