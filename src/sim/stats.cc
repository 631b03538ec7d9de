#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace tf::sim {

void
Summary::add(double x)
{
    ++_count;
    _sum += x;
    double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
    _min = std::min(_min, x);
    _max = std::max(_max, x);
}

void
Summary::reset()
{
    *this = Summary{};
}

double
Summary::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
SampleStat::add(double x)
{
    TF_ASSERT(!std::isnan(x), "SampleStat: NaN sample");
    // -0.0 and +0.0 share a run, which would print the sign of
    // whichever zero reached it first.
    if (x == 0.0)
        x = 0.0;
    _summary.add(x);
    _pending.push_back(x);
    // Merging costs a pass over the runs; waiting for a quarter of
    // them keeps add() amortised O(log pending) and the buffer small.
    if (_pending.size() >= std::max(kFlushFloor, _runs.size() / 4))
        flush();
}

void
SampleStat::reset()
{
    _runs = RunStore{};
    _pending.clear();
    _summary.reset();
}

SampleStat::RunStore::RunStore(const RunStore &other) : _size(other._size)
{
    _chunks.reserve(other._chunks.size());
    for (std::size_t c = 0; c < other._chunks.size(); ++c) {
        _chunks.push_back(std::make_unique_for_overwrite<Run[]>(kChunkRuns));
        std::size_t used = std::min(kChunkRuns, _size - c * kChunkRuns);
        std::copy_n(other._chunks[c].get(), used, _chunks[c].get());
    }
}

SampleStat::RunStore &
SampleStat::RunStore::operator=(const RunStore &other)
{
    if (this != &other)
        *this = RunStore(other);
    return *this;
}

void
SampleStat::RunStore::grow(std::size_t n)
{
    while (_chunks.size() * kChunkRuns < n)
        _chunks.push_back(std::make_unique_for_overwrite<Run[]>(kChunkRuns));
    _size = n;
}

void
SampleStat::flush() const
{
    if (_pending.empty())
        return;
    std::sort(_pending.begin(), _pending.end());

    // The buffered values no run holds yet: the store grows by these.
    std::size_t old = _runs.size();
    std::size_t fresh = 0;
    for (std::size_t i = 0, j = 0; j < _pending.size(); ++j) {
        double v = _pending[j];
        if (j > 0 && v == _pending[j - 1])
            continue;
        while (i < old && _runs[i].value < v)
            ++i;
        if (i == old || _runs[i].value != v)
            ++fresh;
    }
    _runs.grow(old + fresh);

    // Merge from the back: each merged run lands at the new end, at or
    // above the next unread run (the gap is the fresh values still to
    // place), so no unread run is overwritten. A run's new end is its
    // old one plus the buffered samples at or below its value; the
    // runs below the smallest buffered value keep theirs.
    std::size_t r = old;         // one past the next unread run
    std::size_t w = old + fresh; // one past the next merged run
    std::size_t j = _pending.size();
    while (j > 0) {
        double v = _pending[j - 1];
        while (r > 0 && _runs[r - 1].value > v) {
            --r;
            _runs[--w] = Run{_runs[r].value, _runs[r].end + j};
        }
        std::uint64_t end = j;
        while (j > 0 && _pending[j - 1] == v)
            --j;
        if (r > 0 && _runs[r - 1].value == v)
            end += _runs[--r].end;
        else if (r > 0)
            end += _runs[r - 1].end;
        _runs[--w] = Run{v, end};
    }
    _pending.clear();
}

double
SampleStat::atRank(std::uint64_t rank) const
{
    // The first run whose end passes rank.
    std::size_t lo = 0;
    std::size_t hi = _runs.size();
    while (lo < hi) {
        std::size_t mid = lo + (hi - lo) / 2;
        if (rank < _runs[mid].end)
            hi = mid;
        else
            lo = mid + 1;
    }
    return _runs[lo].value;
}

double
SampleStat::quantile(double q) const
{
    TF_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    flush();
    if (_runs.empty())
        return 0.0;
    // Linear interpolation between closest ranks (type-7 quantile).
    std::uint64_t n = _runs.back().end;
    double pos = q * static_cast<double>(n - 1);
    auto lo = static_cast<std::uint64_t>(pos);
    std::uint64_t hi = std::min(lo + 1, n - 1);
    double frac = pos - static_cast<double>(lo);
    return atRank(lo) * (1.0 - frac) + atRank(hi) * frac;
}

std::vector<double>
SampleStat::samples() const
{
    flush();
    std::vector<double> out;
    out.reserve(_runs.empty() ? 0 : _runs.back().end);
    std::uint64_t prevEnd = 0;
    for (std::size_t i = 0; i < _runs.size(); ++i) {
        const Run &r = _runs[i];
        out.insert(out.end(), r.end - prevEnd, r.value);
        prevEnd = r.end;
    }
    return out;
}

void
SampleStat::writeCdf(std::ostream &os, std::size_t points) const
{
    flush();
    if (_runs.empty())
        return;
    for (std::size_t i = 0; i <= points; ++i) {
        double q = static_cast<double>(i) / static_cast<double>(points);
        os << quantile(q) << ' ' << q << '\n';
    }
}

// -------------------------------------------------- QuantileSketch

std::size_t
QuantileSketch::indexOf(double x)
{
    int exp = 0;
    double mant = std::frexp(x, &exp); // mant in [0.5, 1)
    exp = std::clamp(exp, kMinExp, kMaxExp);
    auto sub = static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
           static_cast<std::size_t>(sub);
}

double
QuantileSketch::bucketValue(std::size_t index)
{
    int exp = static_cast<int>(index / kSubBuckets) + kMinExp;
    auto sub = static_cast<double>(index % kSubBuckets);
    double mant = 0.5 + sub / (2.0 * kSubBuckets);
    return std::ldexp(mant, exp);
}

void
QuantileSketch::add(double x, std::uint64_t weight)
{
    if (!std::isfinite(x))
        return;
    _count += weight;
    _sum += x * static_cast<double>(weight);
    _min = std::min(_min, x);
    _max = std::max(_max, x);
    if (x <= 0.0) {
        _zeroCount += weight;
        return;
    }
    std::size_t idx = indexOf(x);
    std::size_t slot = idx - _lo; // wraps, so also >= size below _lo
    if (slot >= _buckets.size()) {
        cover(idx, idx + 1);
        slot = idx - _lo;
    }
    _buckets[slot] += weight;
}

void
QuantileSketch::reset()
{
    *this = QuantileSketch{};
}

void
QuantileSketch::cover(std::size_t lo, std::size_t hi)
{
    if (_buckets.empty()) {
        _lo = lo;
        _buckets.resize(hi - lo, 0);
        return;
    }
    if (lo < _lo) {
        _buckets.insert(_buckets.begin(), _lo - lo, 0);
        _lo = lo;
    }
    if (hi > _lo + _buckets.size())
        _buckets.resize(hi - _lo, 0);
}

std::uint64_t
QuantileSketch::bucketAt(std::size_t index) const
{
    std::size_t slot = index - _lo; // wraps below _lo
    return slot < _buckets.size() ? _buckets[slot] : 0;
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    if (other._count == 0)
        return;
    if (!other._buckets.empty()) {
        cover(other._lo, other._lo + other._buckets.size());
        std::uint64_t *dst = &_buckets[other._lo - _lo];
        for (std::size_t i = 0; i < other._buckets.size(); ++i)
            dst[i] += other._buckets[i];
    }
    _zeroCount += other._zeroCount;
    _count += other._count;
    _sum += other._sum;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

double
QuantileSketch::quantile(double q) const
{
    TF_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (_count == 0)
        return 0.0;
    auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(_count - 1));
    if (rank < _zeroCount)
        return std::min(_min, 0.0);
    std::uint64_t seen = _zeroCount;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen > rank)
            return std::clamp(bucketValue(_lo + i), _min, _max);
    }
    return _max;
}

QuantileSketch
QuantileSketch::delta(const QuantileSketch &prev) const
{
    TF_ASSERT(_count >= prev._count, "sketch delta: count went backwards");
    QuantileSketch out;
    if (_count == prev._count)
        return out;
    out._count = _count - prev._count;
    out._zeroCount = _zeroCount - prev._zeroCount;
    out._sum = _sum - prev._sum;
    // Every bucket of prev must be one of ours and no fuller, also
    // where it lies outside our range (there ours is empty).
    for (std::size_t j = 0; j < prev._buckets.size(); ++j)
        TF_ASSERT(bucketAt(prev._lo + j) >= prev._buckets[j],
                  "sketch delta: bucket went backwards");
    // Keep only the difference's occupied range.
    auto diff = [&](std::size_t slot) {
        return _buckets[slot] - prev.bucketAt(_lo + slot);
    };
    std::size_t first = 0;
    std::size_t last = _buckets.size();
    while (first < last && diff(first) == 0)
        ++first;
    while (last > first && diff(last - 1) == 0)
        --last;
    out._lo = _lo + first;
    out._buckets.resize(last - first);
    for (std::size_t i = first; i < last; ++i)
        out._buckets[i - first] = diff(i);
    // Exact per-window extrema are gone once samples fold into
    // buckets; use the occupied bucket edges so quantile()'s clamp
    // stays sound (lower edge of the lowest bucket, upper edge of
    // the highest).
    out._min = out._zeroCount ? std::min(_min, 0.0)
                              : std::numeric_limits<double>::infinity();
    out._max = out._zeroCount ? 0.0
                              : -std::numeric_limits<double>::infinity();
    if (!out._buckets.empty()) {
        std::size_t end = out._lo + out._buckets.size();
        out._min = std::min(out._min, bucketValue(out._lo));
        out._max = std::max(out._max, bucketValue(end));
    }
    out._min = std::max(out._min, _min);
    out._max = std::min(out._max, _max);
    return out;
}

// --------------------------------------------------------- StatSet

void
StatSet::record(const std::string &name, double value,
                const std::string &unit, const std::string &desc)
{
    _entries.push_back(StatEntry{name, desc, unit, value});
}

void
StatSet::attach(const std::string &name, Counter &c,
                const std::string &unit, const std::string &desc)
{
    _attached.push_back(Attachment{name, desc, unit, &c, nullptr});
}

void
StatSet::attach(const std::string &name, Summary &s,
                const std::string &unit, const std::string &desc)
{
    _attached.push_back(Attachment{name, desc, unit, &s, nullptr});
}

void
StatSet::attach(const std::string &name, SampleStat &s,
                const std::string &unit, const std::string &desc)
{
    _attached.push_back(Attachment{name, desc, unit, &s, nullptr});
}

void
StatSet::attach(const std::string &name, QuantileSketch &q,
                const std::string &unit, const std::string &desc)
{
    _attached.push_back(Attachment{name, desc, unit, &q, nullptr});
}

void
StatSet::resetAll()
{
    _entries.clear();
    for (auto &a : _attached) {
        // Frozen copies are snapshots; resetting them would lose the
        // only data left. Drop the freeze instead so a later freeze()
        // re-captures post-reset state -- only valid while the live
        // object is still alive, which is the warmup/measure case
        // resetAll() exists for.
        a.frozen.reset();
        std::visit([](auto *stat) { stat->reset(); }, a.live);
    }
}

void
StatSet::freeze()
{
    for (auto &a : _attached) {
        if (a.frozen)
            continue; // already frozen
        std::visit(
            [&a](auto *stat) {
                a.frozen = std::make_unique<FrozenStat>(*stat);
            },
            a.live);
    }
}

template <typename Fn>
void
StatSet::visitAttachment(const Attachment &a, Fn &&fn) const
{
    if (a.frozen)
        std::visit([&](const auto &stat) { fn(stat); }, *a.frozen);
    else
        std::visit([&](const auto *stat) { fn(*stat); }, a.live);
}

std::vector<StatEntry>
StatSet::snapshot() const
{
    std::vector<StatEntry> rows = _entries;
    auto row = [&rows](const std::string &name, double v,
                       const std::string &unit,
                       const std::string &desc) {
        rows.push_back(StatEntry{name, desc, unit, v});
    };
    for (const auto &a : _attached) {
        visitAttachment(a, [&](const auto &stat) {
            using T = std::decay_t<decltype(stat)>;
            if constexpr (std::is_same_v<T, Counter>) {
                row(a.name, static_cast<double>(stat.value()), a.unit,
                    a.desc);
            } else if constexpr (std::is_same_v<T, Summary>) {
                row(a.name + ".count",
                    static_cast<double>(stat.count()), "", a.desc);
                row(a.name + ".mean", stat.mean(), a.unit, "");
                row(a.name + ".min", stat.min(), a.unit, "");
                row(a.name + ".max", stat.max(), a.unit, "");
                row(a.name + ".stddev", stat.stddev(), a.unit, "");
            } else if constexpr (std::is_same_v<T, SampleStat> ||
                                 std::is_same_v<T, QuantileSketch>) {
                row(a.name + ".count",
                    static_cast<double>(stat.count()), "", a.desc);
                row(a.name + ".mean", stat.mean(), a.unit, "");
                row(a.name + ".p50", stat.quantile(0.50), a.unit, "");
                row(a.name + ".p95", stat.quantile(0.95), a.unit, "");
                row(a.name + ".p99", stat.quantile(0.99), a.unit, "");
            }
        });
    }
    return rows;
}

namespace {

void
writeDistribution(JsonWriter &w, std::uint64_t count, double mean,
                  double mn, double mx, const double *stddev,
                  const std::function<double(double)> &quantile)
{
    w.beginObject();
    w.field("count", count);
    w.field("mean", mean);
    w.field("min", mn);
    w.field("max", mx);
    if (stddev != nullptr)
        w.field("stddev", *stddev);
    if (quantile) {
        w.field("p50", quantile(0.50));
        w.field("p90", quantile(0.90));
        w.field("p95", quantile(0.95));
        w.field("p99", quantile(0.99));
    }
    w.endObject();
}

} // namespace

void
StatSet::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &a : _attached) {
        w.name(a.name);
        visitAttachment(a, [&](const auto &stat) {
            using T = std::decay_t<decltype(stat)>;
            if constexpr (std::is_same_v<T, Counter>) {
                w.value(stat.value());
            } else if constexpr (std::is_same_v<T, Summary>) {
                double sd = stat.stddev();
                writeDistribution(w, stat.count(), stat.mean(),
                                  stat.min(), stat.max(), &sd, {});
            } else if constexpr (std::is_same_v<T, SampleStat>) {
                double sd = stat.stddev();
                writeDistribution(
                    w, stat.count(), stat.mean(), stat.min(),
                    stat.max(), &sd,
                    [&stat](double q) { return stat.quantile(q); });
            } else if constexpr (std::is_same_v<T, QuantileSketch>) {
                writeDistribution(
                    w, stat.count(), stat.mean(), stat.min(),
                    stat.max(), nullptr,
                    [&stat](double q) { return stat.quantile(q); });
            }
        });
    }
    for (const auto &e : _entries)
        w.field(e.name, e.value);
    w.endObject();
}

// --------------------------------------------------- StatsRegistry

StatSet &
StatsRegistry::at(const std::string &path)
{
    TF_ASSERT(!path.empty(), "empty stats path");
    auto it = _sets.find(path);
    if (it == _sets.end())
        it = _sets.emplace(path, std::make_unique<StatSet>(path)).first;
    return *it->second;
}

const StatSet *
StatsRegistry::find(const std::string &path) const
{
    auto it = _sets.find(path);
    return it == _sets.end() ? nullptr : it->second.get();
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(_sets.size());
    for (const auto &[path, set] : _sets)
        out.push_back(path);
    return out;
}

void
StatsRegistry::resetAll(const std::string &prefix)
{
    for (auto &[path, set] : _sets) {
        if (!prefix.empty() && path != prefix &&
            path.compare(0, prefix.size() + 1, prefix + ".") != 0)
            continue;
        set->resetAll();
    }
}

void
StatsRegistry::freezeAll()
{
    for (auto &[path, set] : _sets)
        set->freeze();
}

void
StatsRegistry::adopt(StatsRegistry &&other)
{
    for (auto &[path, set] : other._sets) {
        set->freeze();
        bool inserted = _sets.emplace(path, std::move(set)).second;
        TF_ASSERT(inserted,
                  "adopt: stat path '%s' already registered",
                  path.c_str());
    }
    other._sets.clear();
}

void
StatsRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[path, set] : _sets) {
        w.name(path);
        set->writeJson(w);
    }
    w.endObject();
}

std::string
StatsRegistry::toJson(bool pretty) const
{
    std::ostringstream oss;
    JsonWriter w(oss, pretty);
    writeJson(w);
    return oss.str();
}

} // namespace tf::sim
