/**
 * @file
 * Pooled objects behind counted handles.
 *
 * Every remote cacheline is a transaction that the LLC packs into a
 * frame, and both objects are created and dropped at the rate of
 * kernel events. PoolPtr keeps them off the heap in steady state: it
 * is a copyable 8-byte handle whose count lives in the object, and the
 * last handle to go puts the object back in default state and onto a
 * per-thread freelist, where the next acquire() finds it.
 *
 * Rules (DESIGN.md §19):
 * - A pooled type derives from PoolRefs and defines a private
 *   `void recycle() noexcept` that returns it to default state, keeping
 *   whatever capacity it chooses; it befriends its PoolPtr.
 * - The count is not atomic: a simulation runs on one thread, and no
 *   two threads share a pooled object.
 * - Each type's freelist keeps at most MaxFree objects per thread and
 *   frees the rest, so a burst of live objects does not stay pinned.
 */

#ifndef TF_SIM_POOL_HH
#define TF_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tf::sim {

/**
 * A pooled object's handle count. It lives in the object but is never
 * copied with it: copying one pooled object's fields into another (a
 * frame replay does) leaves both counts as they were.
 */
class PoolRefs
{
  public:
    PoolRefs() noexcept = default;
    PoolRefs(const PoolRefs &) noexcept {}
    PoolRefs &operator=(const PoolRefs &) noexcept { return *this; }

  private:
    template <typename, std::size_t>
    friend class PoolPtr;

    std::uint32_t _refs = 0;
};

/**
 * Counted handle to a pooled T. The last handle to go recycles the
 * object onto this thread's freelist, or frees it when the freelist
 * already holds MaxFree objects.
 */
template <typename T, std::size_t MaxFree>
class PoolPtr
{
  public:
    /** Freelist cap per thread; released objects beyond it are freed. */
    static constexpr std::size_t maxFree = MaxFree;

    PoolPtr() noexcept = default;

    /** Another handle to @p obj (adds a reference). */
    explicit PoolPtr(T *obj) noexcept : _obj(obj)
    {
        if (_obj != nullptr)
            ++refs(_obj);
    }

    PoolPtr(const PoolPtr &other) noexcept : PoolPtr(other._obj) {}
    PoolPtr(PoolPtr &&other) noexcept
        : _obj(std::exchange(other._obj, nullptr))
    {
    }

    PoolPtr &
    operator=(PoolPtr other) noexcept
    {
        std::swap(_obj, other._obj);
        return *this;
    }

    ~PoolPtr() { reset(); }

    /** A default-state object, from this thread's freelist if it can. */
    static PoolPtr
    acquire()
    {
        FreeList &list = freeList();
        if (list.objs.empty()) {
            ++list.heapAllocations;
            return PoolPtr(new T());
        }
        T *obj = list.objs.back();
        list.objs.pop_back();
        return PoolPtr(obj);
    }

    /** Drop this handle's reference. */
    void
    reset() noexcept
    {
        T *obj = std::exchange(_obj, nullptr);
        if (obj != nullptr && --refs(obj) == 0)
            release(obj);
    }

    T *get() const noexcept { return _obj; }
    T &operator*() const noexcept { return *_obj; }
    T *operator->() const noexcept { return _obj; }
    explicit operator bool() const noexcept { return _obj != nullptr; }

    /** Handles currently sharing this object (0 when null). */
    std::uint32_t
    useCount() const noexcept
    {
        return _obj != nullptr ? refs(_obj) : 0;
    }

    friend bool
    operator==(const PoolPtr &a, const PoolPtr &b) noexcept
    {
        return a._obj == b._obj;
    }

    friend bool
    operator==(const PoolPtr &a, std::nullptr_t) noexcept
    {
        return a._obj == nullptr;
    }

    /** Objects this thread took from the heap; flat in steady state. */
    static std::uint64_t
    heapAllocations()
    {
        return freeList().heapAllocations;
    }

    /** Objects waiting on this thread's freelist. */
    static std::size_t freeCount() { return freeList().objs.size(); }

  private:
    struct FreeList
    {
        std::vector<T *> objs;
        std::uint64_t heapAllocations = 0;

        FreeList() { objs.reserve(MaxFree); }
        FreeList(const FreeList &) = delete;
        FreeList &operator=(const FreeList &) = delete;

        ~FreeList()
        {
            for (T *obj : objs)
                delete obj;
        }
    };

    static FreeList &
    freeList() noexcept
    {
        static thread_local FreeList list;
        return list;
    }

    static std::uint32_t &
    refs(T *obj) noexcept
    {
        return static_cast<PoolRefs *>(obj)->_refs;
    }

    /** Out of line, so dropping a handle inlines only the count. */
    [[gnu::noinline]] static void
    release(T *obj) noexcept
    {
        // Default state first, so what the object holds (a completion's
        // captures, a frame's transactions) dies with the last handle
        // whether or not the object is kept.
        obj->recycle();
        FreeList &list = freeList();
        if (list.objs.size() >= MaxFree)
            delete obj;
        else
            list.objs.push_back(obj);
    }

    T *_obj = nullptr;
};

} // namespace tf::sim

#endif // TF_SIM_POOL_HH
