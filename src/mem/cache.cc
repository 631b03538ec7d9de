#include "mem/cache.hh"

#include "sim/logging.hh"

namespace tf::mem {

namespace {
bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}
} // namespace

Cache::Cache(CacheParams params) : _params(params)
{
    TF_ASSERT(_params.lineBytes > 0 && isPow2(_params.lineBytes),
              "line size must be a power of two");
    TF_ASSERT(_params.ways > 0, "need at least one way");
    std::uint64_t lines = _params.sizeBytes / _params.lineBytes;
    TF_ASSERT(lines >= _params.ways, "cache smaller than one set");
    _sets = static_cast<std::uint32_t>(lines / _params.ways);
    TF_ASSERT(isPow2(_sets), "set count must be a power of two");
}

Cache::Line *
Cache::setBase(Addr addr)
{
    std::uint64_t line = addr / _params.lineBytes;
    std::uint32_t set = static_cast<std::uint32_t>(line & (_sets - 1));
    return &_lines[static_cast<std::size_t>(set) * _params.ways];
}

CacheResult
Cache::access(Addr addr, bool write)
{
    // Tags are allocated on first use: idle nodes' caches cost nothing.
    if (_lines.empty())
        _lines.resize(static_cast<std::size_t>(_sets) * _params.ways);
    ++_tick;
    Addr tag = addr / _params.lineBytes;
    Line *set = setBase(addr);

    Line *victim = set;
    for (std::uint32_t w = 0; w < _params.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lru = _tick;
            line.dirty = line.dirty || write;
            _hits.inc();
            return CacheResult{true, false, 0};
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lru < victim->lru) {
            victim = &line;
        }
    }

    _misses.inc();
    CacheResult result{false, false, 0};
    if (victim->valid && victim->dirty) {
        result.writeback = true;
        result.victimAddr = victim->tag * _params.lineBytes;
        _writebacks.inc();
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = _tick;
    victim->dirty = write;
    return result;
}

void
Cache::flush()
{
    for (auto &line : _lines)
        line = Line{};
}

double
Cache::hitRatio() const
{
    std::uint64_t total = _hits.value() + _misses.value();
    return total == 0 ? 0.0
                      : static_cast<double>(_hits.value()) /
                            static_cast<double>(total);
}

} // namespace tf::mem
