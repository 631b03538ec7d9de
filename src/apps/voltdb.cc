#include "apps/voltdb.hh"

#include <deque>

namespace tf::apps {

const char *
ycsbName(YcsbWorkload w)
{
    switch (w) {
      case YcsbWorkload::A:
        return "A";
      case YcsbWorkload::B:
        return "B";
      case YcsbWorkload::C:
        return "C";
      case YcsbWorkload::D:
        return "D";
      case YcsbWorkload::E:
        return "E";
      case YcsbWorkload::F:
        return "F";
    }
    return "?";
}

VoltDbBenchmark::VoltDbBenchmark(sys::Testbed &testbed,
                                 VoltDbParams params)
    : _testbed(testbed), _params(params), _rng(params.seed)
{
    if (_params.rowsPerPartition == 0)
        _params.rowsPerPartition = std::max<std::uint64_t>(
            1, _params.totalRows /
                   static_cast<std::uint64_t>(_params.partitions));
    auto &eq = testbed.serverA().dram().eventQueue();
    _coordinator = std::make_unique<sys::CpuSet>("coordinator", eq, 1);
    // The initiator's dispatch queues / result buffers live in the
    // same policy-placed memory as the database.
    _coordSpace = std::make_unique<os::AddressSpace>(
        testbed.serverA().mm(), testbed.serverA().localNode(),
        testbed.serverPolicy());
    _coordPath = std::make_unique<sys::MemoryPath>(testbed.serverA());
    _coordRegion = _coordSpace->mmap(96ULL * 1024 * 1024);

    for (int i = 0; i < _params.partitions; ++i) {
        Partition p;
        bool on_b = _testbed.scaleOut() && (i % 2 == 1);
        p.node = on_b ? &_testbed.serverB() : &_testbed.serverA();
        os::AllocPolicy policy =
            on_b ? os::AllocPolicy::bind({p.node->localNode()})
                 : _testbed.serverPolicy();
        p.executor = std::make_unique<sys::CpuSet>(
            "exec" + std::to_string(i), eq, 1);
        p.space = std::make_unique<os::AddressSpace>(
            p.node->mm(), p.node->localNode(), policy);
        p.path = std::make_unique<sys::MemoryPath>(*p.node);
        p.tableBase = p.space->mmap(_params.rowsPerPartition *
                                    _params.rowBytes);
        p.indexBase = p.space->mmap(_params.rowsPerPartition * 64);
        _partitions.push_back(std::move(p));
    }
}

void
VoltDbBenchmark::coordinate(sim::Tick cpu, bool remotePartition,
                            std::function<void()> next)
{
    auto &eq = _testbed.serverA().dram().eventQueue();
    if (remotePartition)
        cpu += _params.remoteDispatchCpu;
    bool touch = _rng.uniform() < _params.coordinatorMemProb;
    mem::Addr line = _coordRegion +
                     (_rng.next() % (96ULL * 1024 * 1024 / 128)) * 128;
    _coordinator->exec(cpu, [this, touch, line, &eq,
                             next = std::move(next)]() mutable {
        if (!touch) {
            next();
            return;
        }
        sim::Tick start = eq.now();
        _coordPath->burst(*_coordSpace, {line}, false, 1,
                          [this, start, &eq,
                           next = std::move(next)]() {
            // The initiator thread is blocked for the stall.
            _coordinator->exec(eq.now() - start, []() {});
            next();
        });
    });
}

DbOpType
VoltDbBenchmark::sampleOp()
{
    double u = _rng.uniform();
    switch (_params.workload) {
      case YcsbWorkload::A:
        return u < 0.5 ? DbOpType::Read : DbOpType::Update;
      case YcsbWorkload::B:
        return u < 0.95 ? DbOpType::Read : DbOpType::Update;
      case YcsbWorkload::C:
        return DbOpType::Read;
      case YcsbWorkload::D:
        return u < 0.95 ? DbOpType::Read : DbOpType::Insert;
      case YcsbWorkload::E:
        return u < 0.95 ? DbOpType::Scan : DbOpType::Insert;
      case YcsbWorkload::F:
        return u < 0.5 ? DbOpType::Read : DbOpType::ReadModifyWrite;
    }
    return DbOpType::Read;
}

std::uint64_t
VoltDbBenchmark::sampleKey(std::uint64_t issued)
{
    std::uint64_t space = _params.rowsPerPartition *
                          static_cast<std::uint64_t>(
                              _params.partitions);
    if (_params.workload == YcsbWorkload::D) {
        // "Latest" distribution: read what was recently inserted.
        std::uint64_t window = std::min<std::uint64_t>(space, 2048);
        return (issued + space - _rng.below(window)) % space;
    }
    // Zipfian over the whole key space (YCSB default). A static
    // generator member would leak across runs; scrambling keeps hot
    // keys spread over partitions like YCSB's hash does.
    static thread_local sim::ZipfGenerator zipf(1, 1.0);
    static thread_local std::uint64_t zipf_n = 1;
    if (zipf_n != space) {
        zipf = sim::ZipfGenerator(space, 0.99);
        zipf_n = space;
    }
    std::uint64_t rank = zipf(_rng);
    return (rank * 0x9e3779b97f4a7c15ULL) % space;
}

std::vector<mem::Addr>
VoltDbBenchmark::indexAddrs(const Partition &p, std::uint64_t row) const
{
    std::vector<mem::Addr> addrs;
    std::uint64_t h = row * 0x2545f4914f6cdd1dULL;
    std::uint64_t lines =
        _params.rowsPerPartition * 64 / mem::cachelineBytes;
    for (int i = 0; i < _params.indexDepth; ++i) {
        addrs.push_back(p.indexBase +
                        (h % lines) * mem::cachelineBytes);
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return addrs;
}

std::vector<mem::Addr>
VoltDbBenchmark::rowAddrs(const Partition &p, std::uint64_t row,
                          int rows) const
{
    std::vector<mem::Addr> addrs;
    for (int r = 0; r < rows; ++r) {
        std::uint64_t idx =
            (row + static_cast<std::uint64_t>(r)) %
            _params.rowsPerPartition;
        mem::Addr base =
            p.tableBase + idx * _params.rowBytes;
        for (std::uint32_t off = 0; off < _params.rowBytes;
             off += mem::cachelineBytes)
            addrs.push_back(base + off);
    }
    return addrs;
}

void
VoltDbBenchmark::runOp(Partition &p, DbOpType op, std::uint64_t row,
                       std::function<void(std::uint64_t)> done)
{
    auto &eq = _testbed.serverA().dram().eventQueue();

    sim::Tick cpu_mean = 0;
    int rows = 1;
    bool write = false;
    bool rmw = false;
    switch (op) {
      case DbOpType::Read:
        cpu_mean = _params.readCpu;
        break;
      case DbOpType::Update:
      case DbOpType::Insert:
        cpu_mean = _params.writeCpu;
        write = true;
        break;
      case DbOpType::Scan:
        cpu_mean = _params.scanCpuPerRow *
                   static_cast<sim::Tick>(_params.scanRows);
        rows = _params.scanRows;
        break;
      case DbOpType::ReadModifyWrite:
        cpu_mean = _params.readCpu + _params.writeCpu;
        write = true;
        rmw = true;
        break;
    }
    sim::Tick cpu = static_cast<sim::Tick>(
        _rng.exponential(static_cast<double>(cpu_mean)));

    // Executor is single-threaded: CPU phase, then the memory phase
    // keeps the executor occupied (back-end stalls).
    p.executor->exec(cpu, [this, &p, row, rows, write, rmw, &eq,
                           done = std::move(done)]() mutable {
        sim::Tick mem_start = eq.now();
        auto finish = [this, &p, mem_start, &eq,
                       done = std::move(done)]() {
            sim::Tick stall = eq.now() - mem_start;
            p.stallTime += stall;
            // Occupy the executor for the stall so queued ops wait
            // and UCC reflects memory-bound busy time.
            p.executor->exec(stall, []() {});
            std::uint32_t resp =
                64 + 0; // row payloads accounted by caller
            done(resp);
        };
        auto index = indexAddrs(p, row);
        p.path->burst(*p.space, std::move(index), false, 1,
                      [this, &p, row, rows, write, rmw,
                       finish = std::move(finish)]() mutable {
            auto data = rowAddrs(p, row, rows);
            int mlp = rows > 1 ? 8 : 2;
            if (!rmw) {
                p.path->burst(*p.space, std::move(data), write, mlp,
                              std::move(finish));
            } else {
                auto data2 = data;
                p.path->burst(*p.space, std::move(data), false, mlp,
                              [this, &p, data2 = std::move(data2),
                               finish = std::move(finish)]() mutable {
                    p.path->burst(*p.space, std::move(data2), true,
                                  4, std::move(finish));
                });
            }
        });
    });
}

VoltDbResult
VoltDbBenchmark::run()
{
    auto &eq = _testbed.serverA().dram().eventQueue();
    auto &net = _testbed.network();
    VoltDbResult result;
    sim::Tick start = eq.now();

    auto issued = std::make_shared<std::uint64_t>(0);
    auto completed = std::make_shared<std::uint64_t>(0);

    auto issue = std::make_shared<std::function<void()>>();
    // Weak self-reference: a shared capture in the function's own
    // target would cycle and leak the closed-loop state every run.
    std::weak_ptr<std::function<void()>> weakIssue = issue;
    *issue = [this, issued, completed, weakIssue, &eq, &net,
              &result]() {
        if (*issued >= _params.totalOps)
            return;
        ++*issued;
        DbOpType op = sampleOp();
        std::uint64_t key = sampleKey(*issued);
        std::size_t pidx = static_cast<std::size_t>(
            key % static_cast<std::uint64_t>(_params.partitions));
        std::uint64_t row = key / static_cast<std::uint64_t>(
                                      _params.partitions);
        Partition &p = _partitions[pidx];
        sim::Tick sent = eq.now();

        sim::Tick coord_cpu = op == DbOpType::Scan
                                  ? _params.coordinatorScanCpu
                                  : _params.coordinatorCpu;

        auto finish = [this, sent, completed, weakIssue, &eq,
                       &result](std::uint64_t resp) {
            (void)resp;
            result.latencyUs.add(sim::toUs(eq.now() - sent));
            ++*completed;
            if (auto next = weakIssue.lock())
                (*next)();
        };

        bool remote_partition =
            _testbed.scaleOut() && p.node == &_testbed.serverB();
        net.send("client", "serverA", 128,
                 [this, &p, op, row, coord_cpu, &net,
                  remote_partition,
                  finish = std::move(finish)]() mutable {
            coordinate(coord_cpu, remote_partition,
                       [this, &p, op, row, &net, remote_partition,
                        finish = std::move(finish)]() mutable {
                auto execute = [this, &p, op, row,
                                finish = std::move(finish),
                                remote_partition, &net]() mutable {
                    runOp(p, op, row,
                          [this, remote_partition, &net,
                           finish = std::move(finish)](
                              std::uint64_t resp) mutable {
                        // Responses always leave through the
                        // coordinator host (server A).
                        auto reply = [&net, resp,
                                      finish = std::move(finish)]() mutable {
                            net.send("serverA", "client", 256 + resp,
                                     [finish = std::move(finish),
                                      resp]() mutable {
                                         finish(resp);
                                     });
                        };
                        if (remote_partition) {
                            net.send("serverB", "serverA",
                                     256 + resp, std::move(reply));
                        } else {
                            reply();
                        }
                    });
                };
                if (remote_partition) {
                    net.send("serverA", "serverB", 128,
                             std::move(execute));
                } else {
                    execute();
                }
            });
        });
    };

    int concurrency = std::min<int>(
        _params.clientThreads,
        static_cast<int>(_params.totalOps));
    for (int c = 0; c < concurrency; ++c)
        (*issue)();
    eq.run();

    result.elapsed = eq.now() - start;
    double secs = sim::toSec(result.elapsed);
    result.throughputOps =
        static_cast<double>(*completed) / secs;

    sim::Tick exec_busy = 0;
    sim::Tick stall = 0;
    for (auto &p : _partitions) {
        exec_busy += p.executor->busyTime();
        stall += p.stallTime;
    }
    sim::Tick coord_busy = _coordinator->busyTime();
    result.ucc = static_cast<double>(exec_busy + coord_busy) /
                 static_cast<double>(result.elapsed);
    // Executor busy time = CPU work + memory stalls; the CPU-work
    // share carries its own baseline back-end stall fraction.
    result.backendStallFraction =
        exec_busy == 0
            ? 0.0
            : (_params.baselineStallFraction *
                   static_cast<double>(exec_busy - stall) +
               static_cast<double>(stall)) /
                  static_cast<double>(exec_busy);

    // IPC accounting (paper Fig. 6 methodology): expected retired
    // instructions per op from the workload mix.
    double per_op = 0;
    switch (_params.workload) {
      case YcsbWorkload::A:
        per_op = 0.5 * _params.readInstr + 0.5 * _params.writeInstr;
        break;
      case YcsbWorkload::B:
        per_op = 0.95 * _params.readInstr + 0.05 * _params.writeInstr;
        break;
      case YcsbWorkload::C:
        per_op = _params.readInstr;
        break;
      case YcsbWorkload::D:
        per_op = 0.95 * _params.readInstr + 0.05 * _params.writeInstr;
        break;
      case YcsbWorkload::E:
        per_op = 0.95 * _params.scanInstrPerRow * _params.scanRows +
                 0.05 * _params.writeInstr;
        break;
      case YcsbWorkload::F:
        per_op = 0.5 * _params.readInstr +
                 0.5 * (_params.readInstr + _params.writeInstr);
        break;
    }
    _instrRetired = per_op * static_cast<double>(*completed);
    double busy_cycles = sim::toSec(exec_busy) * _params.coreGhz * 1e9;
    double single_ipc =
        busy_cycles == 0 ? 0.0 : _instrRetired / busy_cycles;
    double exec_ucc = static_cast<double>(exec_busy) /
                      static_cast<double>(result.elapsed);
    result.packageIpc = single_ipc * exec_ucc;
    return result;
}

} // namespace tf::apps
