#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace tf::mem {

Cache::Cache(CacheParams params) : _params(params)
{
    // The dirty bit takes the word's low bit, so a line number must
    // lose at least one address bit to fit above it.
    TF_ASSERT(_params.lineBytes >= 2 &&
                  std::has_single_bit(_params.lineBytes),
              "line size must be a power of two of at least 2 B");
    TF_ASSERT(_params.ways > 0, "need at least one way");
    std::uint64_t lines = _params.sizeBytes / _params.lineBytes;
    TF_ASSERT(lines >= _params.ways, "cache smaller than one set");
    _sets = static_cast<std::uint32_t>(lines / _params.ways);
    TF_ASSERT(std::has_single_bit(_sets),
              "set count must be a power of two");
    _lineShift = static_cast<unsigned>(std::countr_zero(_params.lineBytes));
}

CacheResult
Cache::access(Addr addr, bool write)
{
    // Tags are allocated on first use: idle nodes' caches cost nothing.
    if (_words.empty()) {
        _words.resize(static_cast<std::size_t>(_sets) * _params.ways);
        _valid.resize(_sets);
    }
    const Addr line = addr >> _lineShift;
    const std::size_t set = line & (_sets - 1);
    std::uint64_t *words = &_words[set * _params.ways];
    std::uint32_t &valid = _valid[set];
    const std::uint64_t dirty = write ? 1 : 0;

    for (std::uint32_t w = 0; w < valid; ++w) {
        if ((words[w] >> 1) == line) {
            const std::uint64_t hit = words[w] | dirty;
            std::copy_backward(words, words + w, words + w + 1);
            words[0] = hit;
            _hits.inc();
            return CacheResult{true, false, 0};
        }
    }

    _misses.inc();
    CacheResult result{false, false, 0};
    if (valid == _params.ways) {
        // The least recently used line is the last word.
        const std::uint64_t victim = words[--valid];
        if (victim & 1) {
            result.writeback = true;
            result.victimAddr = (victim >> 1) << _lineShift;
            _writebacks.inc();
        }
    }
    std::copy_backward(words, words + valid, words + valid + 1);
    words[0] = line << 1 | dirty;
    ++valid;
    return result;
}

void
Cache::flush()
{
    std::fill(_valid.begin(), _valid.end(), 0);
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
