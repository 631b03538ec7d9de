/**
 * @file
 * Statistics collection: counters, distributions, CDFs, quantile
 * sketches, and the hierarchical stats registry.
 *
 * Benches use these to print the rows/series of the paper's figures
 * and -- since the telemetry subsystem -- to export every component's
 * statistics as one machine-readable JSON document. Components attach
 * their live stat objects to a StatSet; StatSets register with a
 * StatsRegistry under a dotted component path ("tflow.llc.ch0.txA"),
 * and the registry serialises the whole tree deterministically so two
 * same-seed runs produce byte-identical output.
 */

#ifndef TF_SIM_STATS_HH
#define TF_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace tf::sim {

class JsonWriter;

/** Monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { _value += n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running summary of a stream of samples: count / mean / min / max /
 * stddev, computed online (Welford) with O(1) memory.
 */
class Summary
{
  public:
    void add(double x);
    void reset();

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _mean : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double variance() const;
    double stddev() const;
    double total() const { return _sum; }

  private:
    std::uint64_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Exact distribution for quantiles and CDF output. Used for latency
 * distributions (e.g. the Memcached GET latency CDF of Fig. 8).
 *
 * Memory grows with the number of distinct values, not of samples:
 * samples land in a small unsorted buffer that is sorted and merged
 * into strictly ascending (value, cumulative count) runs once it
 * holds max(kFlushFloor, runs) samples, and before any read. The
 * quantiles and CDF rows are those of the sorted sample vector, bit
 * for bit. NaN samples are rejected (TF_ASSERT).
 */
class SampleStat
{
  public:
    /** Fewest buffered samples that trigger a merge into the runs. */
    static constexpr std::size_t kFlushFloor = 4096;

    void add(double x);
    void reset();

    std::uint64_t count() const { return _summary.count(); }
    double mean() const { return _summary.mean(); }
    double min() const { return _summary.min(); }
    double max() const { return _summary.max(); }
    double stddev() const { return _summary.stddev(); }

    /** Quantile in [0, 1]; e.g. quantile(0.9) is the p90. */
    double quantile(double q) const;

    /** Emit "value cumulative_fraction" rows at @p points resolution. */
    void writeCdf(std::ostream &os, std::size_t points = 100) const;

    /** Every sample, in ascending order, expanded on request. */
    std::vector<double> samples() const;

  private:
    struct Run
    {
        double value;
        std::uint64_t end; ///< samples <= value: one past its last rank
    };

    mutable std::vector<Run> _runs;       ///< strictly ascending values
    mutable std::vector<double> _pending; ///< unsorted, not yet merged
    Summary _summary;

    void flush() const;
    double atRank(std::uint64_t rank) const;
};

/**
 * HDR-style log-linear quantile sketch: bounded relative error,
 * deterministic. Values map into geometric octaves split into
 * kSubBuckets linear sub-buckets (relative error <= 1/kSubBuckets
 * ~= 3%) of one fixed global layout, so hot-path components
 * (crossing stages, C1 master) can export latency quantiles without
 * storing millions of samples. Negative and zero values land in a
 * dedicated zero bucket.
 *
 * A sketch holds 8 bytes per bucket from its lowest to its highest
 * occupied bucket (kSubBuckets per octave), never more than the
 * layout's 4,128 buckets; an empty or zero-only sketch allocates
 * nothing.
 */
class QuantileSketch
{
  public:
    static constexpr int kSubBuckets = 32;
    /** frexp exponent range tracked exactly; outliers clamp. */
    static constexpr int kMinExp = -64;
    static constexpr int kMaxExp = 64;

    void add(double x, std::uint64_t weight = 1);
    void reset();

    /**
     * Fold @p other into this sketch. Buckets share a fixed global
     * layout, so merging is bucket-wise addition over the union of
     * the two occupied ranges: commutative and associative up to the
     * floating-point _sum, and a merge of N shards is bucket-exact
     * against the unsharded sketch (the --jobs trace-attribution
     * merge relies on this).
     */
    void merge(const QuantileSketch &other);

    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    /**
     * Quantile in [0, 1]: representative (lower edge) of the bucket
     * holding the q-th sample, clamped to the exact observed
     * min/max. Monotone in q by construction.
     */
    double quantile(double q) const;

    /**
     * Bucket-wise difference against an earlier snapshot of the same
     * stream: the returned sketch holds exactly the samples added
     * since @p prev was copied, so successive snapshots of a live
     * sketch yield per-window distributions without per-sample
     * storage. @p prev must be a prefix of this sketch (same stream,
     * taken earlier); counts going backwards, also in a bucket of
     * @p prev outside this sketch's range, are a logic error. The
     * delta stores only the range its own samples occupy; its
     * min/max are bucket edges, not exact sample values -- the
     * per-window quantile clamp is correspondingly coarser.
     */
    QuantileSketch delta(const QuantileSketch &prev) const;

  private:
    /** Global buckets [_lo, _lo + size): the occupied range. */
    std::vector<std::uint64_t> _buckets;
    std::size_t _lo = 0;
    std::uint64_t _zeroCount = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();

    /** Widen the stored range to cover global buckets [lo, hi). */
    void cover(std::size_t lo, std::size_t hi);
    /** Count of global bucket @p index; 0 outside the range. */
    std::uint64_t bucketAt(std::size_t index) const;

    static std::size_t indexOf(double x);
    static double bucketValue(std::size_t index);
};

/** A named, documented stat for grouped reporting. */
struct StatEntry
{
    std::string name;
    std::string desc;
    std::string unit;
    double value;
};

/**
 * Collects a component's statistics for grouped reporting.
 *
 * Two kinds of content coexist:
 *  - recorded rows (record()): point-in-time scalar snapshots, the
 *    pre-telemetry API kept for ad-hoc reporting;
 *  - attached stats (attach()): live references to the component's
 *    own Counter/Summary/SampleStat/QuantileSketch members, read at
 *    export time so they are never stale.
 *
 * resetAll() clears recorded rows and resets every attached stat --
 * benches call it between warmup and measured phases. freeze() deep-
 * copies attached stats so the owning component may be destroyed
 * before export (scenario beds are torn down per data point).
 */
class StatSet
{
  public:
    explicit StatSet(std::string owner) : _owner(std::move(owner)) {}

    void record(const std::string &name, double value,
                const std::string &unit = "",
                const std::string &desc = "");

    void attach(const std::string &name, Counter &c,
                const std::string &unit = "",
                const std::string &desc = "");
    void attach(const std::string &name, Summary &s,
                const std::string &unit = "",
                const std::string &desc = "");
    void attach(const std::string &name, SampleStat &s,
                const std::string &unit = "",
                const std::string &desc = "");
    void attach(const std::string &name, QuantileSketch &q,
                const std::string &unit = "",
                const std::string &desc = "");

    /** Reset every attached stat and drop recorded snapshot rows. */
    void resetAll();

    /**
     * Replace live references with deep copies of their current
     * values. After this the owning component may die; exports keep
     * working. Idempotent.
     */
    void freeze();

    const std::vector<StatEntry> &entries() const { return _entries; }
    const std::string &owner() const { return _owner; }
    std::size_t attachedCount() const { return _attached.size(); }

    /**
     * Flatten recorded rows plus attached stats into scalar rows
     * (summaries/samples/sketches expand to .count/.mean/.p50/...).
     */
    std::vector<StatEntry> snapshot() const;

    /** Emit this set as one JSON object (attached + recorded). */
    void writeJson(JsonWriter &w) const;

  private:
    using LiveStat = std::variant<Counter *, Summary *, SampleStat *,
                                  QuantileSketch *>;
    using FrozenStat =
        std::variant<std::monostate, Counter, Summary, SampleStat,
                     QuantileSketch>;

    struct Attachment
    {
        std::string name;
        std::string desc;
        std::string unit;
        LiveStat live;
        FrozenStat frozen;
    };

    template <typename Fn> void visitAttachment(const Attachment &a,
                                                Fn &&fn) const;

    std::string _owner;
    std::vector<StatEntry> _entries;
    std::vector<Attachment> _attached;
};

/**
 * Hierarchical stats registry: one StatSet per dotted component path.
 * Paths are kept sorted (std::map) so iteration -- and therefore the
 * JSON export -- is deterministic regardless of registration order.
 */
class StatsRegistry
{
  public:
    /** Get-or-create the StatSet registered under @p path. */
    StatSet &at(const std::string &path);

    /** Lookup without creating; nullptr when absent. */
    const StatSet *find(const std::string &path) const;

    std::size_t size() const { return _sets.size(); }

    /** Registered paths, sorted. */
    std::vector<std::string> paths() const;

    /**
     * resetAll() on every registered set (warmup/measure boundary).
     * A non-empty @p prefix restricts the reset to @p prefix itself
     * and the "<prefix>.*" subtree, so sets frozen from
     * already-destroyed components elsewhere stay untouched.
     */
    void resetAll(const std::string &prefix = "");

    /** freeze() every registered set. */
    void freezeAll();

    /**
     * Move every set of @p other into this registry, freezing each
     * first so no live component references cross over. Paths must
     * not collide with existing ones (TF_ASSERT). Lets independent
     * per-point registries — filled concurrently by the bench
     * harness — merge into one deterministic export: the sorted map
     * makes the result independent of adoption order.
     */
    void adopt(StatsRegistry &&other);

    /** One JSON object: { "<path>": { ...set... }, ... }. */
    void writeJson(JsonWriter &w) const;

    /** Convenience: the full registry as a JSON string. */
    std::string toJson(bool pretty = true) const;

  private:
    std::map<std::string, std::unique_ptr<StatSet>> _sets;
};

} // namespace tf::sim

#endif // TF_SIM_STATS_HH
