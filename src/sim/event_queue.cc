#include "sim/event_queue.hh"

#include <algorithm>

namespace tf::sim {

namespace {

/** Pushes per width decision. */
constexpr std::uint32_t kAdaptWindow = 4096;
/** A sorted insert that walks past this many entries is "long". */
constexpr unsigned kLongWalk = 8;
/**
 * A sorted insert gives up after this many entries and goes to the
 * far heap instead, which is exact anywhere: a burst of same-tick
 * events then costs O(log n) per event, not a walk of the bucket.
 */
constexpr unsigned kMaxWalk = 16;
/** Widest bucket, 2^40 ticks (~1.1 s): the wheel then spans minutes. */
constexpr unsigned kMaxShift = 40;

/** std::push_heap/pop_heap comparator for a min-heap on earlier(). */
struct Later
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        return a.when != b.when ? a.when > b.when : a.key > b.key;
    }
};

} // namespace

std::uint32_t
EventQueue::growSlots()
{
    TF_ASSERT(_slotEnd < (1ULL << 32), "event slot space exhausted");
    auto slot = static_cast<std::uint32_t>(_slotEnd++);
    // Chunk boundaries are the powers of two from kFirstSlot on.
    if (std::has_single_bit(slot)) {
        unsigned k = static_cast<unsigned>(std::bit_width(slot)) - 7;
        _chunks[k] = std::make_unique<Slot[]>(kFirstSlot << k);
    }
    return slot;
}

void
EventQueue::enqueue(Tick when, EventPriority prio, std::uint32_t slot,
                    std::uint32_t gen)
{
    auto p = static_cast<std::uint64_t>(prio);
    TF_ASSERT(p < 256, "event priority %llu out of range",
              (unsigned long long)p);
    insert(Entry{when, (p << 56) | ++_nextSeq, slot, gen}, true);
    ++_live;
    std::size_t size = heapSize();
    if (size > _highWater.value())
        _highWater.inc(size - _highWater.value());
    if (++_pushes == kAdaptWindow)
        adaptWidth();
}

void
EventQueue::insert(const Entry &e, bool count)
{
    std::uint64_t day = e.when >> _shift;
    if (day - _cursor >= kBuckets) {
        _farPushes += count;
        pushFar(e);
        return;
    }
    auto b = static_cast<unsigned>(day % kBuckets);
    std::uint32_t prev = 0; // 0: insert at the bucket head
    std::uint32_t next = _head[b];
    unsigned walked = 0;
    while (next != 0 && !earlier(e, _nodes[next].e)) {
        if (++walked > kMaxWalk)
            break;
        prev = next;
        next = _nodes[next].next;
    }
    if (count) {
        ++_wheelPushes;
        _longWalks += walked > kLongWalk;
    }
    if (walked > kMaxWalk) {
        pushFar(e);
        return;
    }
    std::uint32_t n = _freeNode;
    if (n != 0) {
        _freeNode = _nodes[n].next;
        _nodes[n] = Node{e, next};
    } else {
        if (_nodes.empty())
            _nodes.emplace_back(); // index 0 is the list end
        n = static_cast<std::uint32_t>(_nodes.size());
        _nodes.push_back(Node{e, next});
    }
    (prev == 0 ? _head[b] : _nodes[prev].next) = n;
    _occupied[b / 64] |= 1ULL << (b % 64);
    ++_wheelCount;
}

void
EventQueue::pushFar(const Entry &e)
{
    _far.push_back(e);
    std::push_heap(_far.begin(), _far.end(), Later{});
}

int
EventQueue::firstBucket() const
{
    // The wheel holds exactly one day per bucket, so the first
    // occupied bucket at or after the cursor's (cyclically) holds the
    // earliest day.
    auto start = static_cast<unsigned>(_cursor % kBuckets);
    unsigned w = start / 64;
    std::uint64_t bits = _occupied[w] & (~0ULL << (start % 64));
    for (unsigned i = 0;; ++i) {
        if (bits != 0)
            return static_cast<int>(w * 64 + std::countr_zero(bits));
        if (i == _occupied.size())
            return -1;
        w = (w + 1) % _occupied.size();
        bits = _occupied[w];
    }
}

bool
EventQueue::peek(Entry &top, int &bucket) const
{
    bucket = _wheelCount != 0 ? firstBucket() : -1;
    if (bucket >= 0) {
        const Entry &e = _nodes[_head[bucket]].e;
        if (_far.empty() || earlier(e, _far.front())) {
            top = e;
            return true;
        }
        bucket = -1;
    }
    if (_far.empty())
        return false;
    top = _far.front();
    return true;
}

void
EventQueue::popTop(int bucket)
{
    if (bucket < 0) {
        std::pop_heap(_far.begin(), _far.end(), Later{});
        _far.pop_back();
        return;
    }
    auto b = static_cast<unsigned>(bucket);
    std::uint32_t n = _head[b];
    _head[b] = _nodes[n].next;
    if (_head[b] == 0)
        _occupied[b / 64] &= ~(1ULL << (b % 64));
    _nodes[n].next = _freeNode;
    _freeNode = n;
    --_wheelCount;
}

void
EventQueue::adaptWidth()
{
    // Narrow the buckets when sorted inserts walk long lists; widen
    // them when most pushes land past the wheel's horizon.
    unsigned shift = _shift;
    if (_shift > 0 && _longWalks * 8 > _wheelPushes)
        shift = _shift - 1;
    else if (_shift < kMaxShift && _farPushes * 4 > _pushes * 3)
        shift = _shift + 1;
    _pushes = _farPushes = _wheelPushes = _longWalks = 0;
    if (shift != _shift)
        rebuild(shift);
}

void
EventQueue::rebuild(unsigned shift)
{
    std::vector<Entry> all = std::move(_far);
    _far.clear();
    for (unsigned b = 0; b < kBuckets; ++b)
        for (std::uint32_t n = _head[b]; n != 0; n = _nodes[n].next)
            all.push_back(_nodes[n].e);
    _head.fill(0);
    _occupied.fill(0);
    _nodes.clear();
    _freeNode = 0;
    _wheelCount = 0;
    _shift = shift;
    _cursor = _now >> _shift;
    for (const Entry &e : all)
        insert(e, false);
}

void
EventQueue::retire(Slot &s)
{
    // Bump the generation so any entry (or EventId) still referring to
    // the old incarnation reads as stale; 0 is reserved for invalid.
    if (++s.gen == 0)
        ++s.gen;
}

void
EventQueue::setNow(Tick t)
{
    // The cursor follows now and nothing else: every queued entry is
    // at or after now, so none can fall behind it.
    _now = t;
    _cursor = _now >> _shift;
}

void
EventQueue::deschedule(EventId id)
{
    auto slot = static_cast<std::uint32_t>(id >> 32);
    auto gen = static_cast<std::uint32_t>(id);
    if (gen == 0 || slot < kFirstSlot || slot >= _slotEnd)
        return; // never existed
    Slot &s = slotAt(slot);
    if (s.gen != gen)
        return; // already fired or already cancelled
    // Eager release: captured shared_ptrs die *now*, not when the dead
    // entry eventually reaches the minimum.
    s.cb.reset();
    retire(s);
    _freeSlots.push_back(slot);
    --_live;
    ++_dead;
    _cancelled.inc();
    maybeCompact();
    checkOccupancyBound();
}

void
EventQueue::maybeCompact()
{
    if (_dead <= kCompactMinDead || _dead <= _live)
        return;
    auto stale = [this](const Entry &e) {
        return slotAt(e.slot).gen != e.gen;
    };
    std::erase_if(_far, stale);
    std::make_heap(_far.begin(), _far.end(), Later{});
    for (unsigned b = 0; b < kBuckets; ++b) {
        std::uint32_t *link = &_head[b];
        while (*link != 0) {
            std::uint32_t n = *link;
            if (!stale(_nodes[n].e)) {
                link = &_nodes[n].next;
                continue;
            }
            *link = _nodes[n].next;
            _nodes[n].next = _freeNode;
            _freeNode = n;
            --_wheelCount;
        }
        if (_head[b] == 0)
            _occupied[b / 64] &= ~(1ULL << (b % 64));
    }
    _dead = 0;
    _compactions.inc();
}

void
EventQueue::checkOccupancyBound() const
{
    TF_ASSERT(_dead <= std::max(_live, kCompactMinDead),
              "dead queue entries exceed the compaction bound "
              "(%zu dead, %zu live)",
              _dead, _live);
}

template <typename Stop>
std::uint64_t
EventQueue::drain(Tick limit, Stop stop)
{
    std::uint64_t count = 0;
    Entry e{};
    int bucket = -1;
    while (!stop(count) && peek(e, bucket) && e.when <= limit) {
        popTop(bucket);
        Slot &s = slotAt(e.slot);
        if (s.gen != e.gen) {
            --_dead;
            continue; // cancelled; callback was freed at deschedule
        }
        // Retire the slot's generation before invoking, so the
        // callback may deschedule its own (now stale) id as a no-op.
        // The slot itself is reused only after the callback returns:
        // it runs in place, and chunks never move, so it may schedule
        // (growing the slot storage) or deschedule reentrantly.
        retire(s);
        --_live;
        TF_ASSERT(e.when >= _now, "time went backwards");
        setNow(e.when);
        _executed.inc();
        ++count;
        struct Release
        {
            EventQueue &q;
            Slot &s;
            std::uint32_t slot;
            ~Release()
            {
                s.cb.reset();
                q._freeSlots.push_back(slot);
            }
        } release{*this, s, e.slot};
        s.cb();
    }
    return count;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t count =
        drain(limit, [](std::uint64_t) { return false; });
    if (limit != maxTick && _now < limit)
        setNow(limit);
    return count;
}

std::uint64_t
EventQueue::runEvents(std::uint64_t maxEvents)
{
    return drain(maxTick,
                 [maxEvents](std::uint64_t n) { return n >= maxEvents; });
}

Tick
EventQueue::nextEventTick()
{
    Entry e{};
    int bucket = -1;
    while (peek(e, bucket)) {
        if (slotAt(e.slot).gen == e.gen)
            return e.when;
        popTop(bucket);
        --_dead;
    }
    return maxTick;
}

void
EventQueue::warp(Tick when)
{
    TF_ASSERT(when >= _now, "warping into the past");
    TF_ASSERT(nextEventTick() >= when, "warping past scheduled events");
    setNow(when);
}

void
EventQueue::attachStats(StatSet &set)
{
    set.attach("executed", _executed, "events");
    set.attach("cancelled", _cancelled, "events",
               "descheduled before firing");
    set.attach("compactions", _compactions, "events",
               "dead-entry heap compaction passes");
    set.attach("heapHighWater", _highWater, "entries",
               "peak physical heap occupancy (live + dead)");
}

} // namespace tf::sim
