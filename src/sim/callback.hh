/**
 * @file
 * Small-buffer callback type for the event kernel's hot path.
 *
 * Every scheduled event carries a closure. With std::function the
 * typical simulation capture (an object pointer plus a shared payload
 * and a tick or epoch) exceeds the library's tiny inline buffer and
 * costs one heap allocation per event — millions per benchmark run.
 * SmallFn widens the inline buffer so every kernel closure in this
 * codebase stays allocation-free, and keeps a heap fallback so
 * oversized captures (app-level request closures) still work.
 *
 * Semantics: move-only, nullable, void() signature. Move-only is
 * deliberate — a scheduled closure has exactly one owner (the event
 * slot), and copyability would force captured types to be copyable.
 * Callables must be nothrow-move-constructible to live inline; others
 * fall back to the heap.
 */

#ifndef TF_SIM_CALLBACK_HH
#define TF_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tf::sim {

/** Move-only `void()` callable with @p Bytes of inline storage. */
template <std::size_t Bytes>
class SmallFn
{
  public:
    SmallFn() noexcept = default;
    SmallFn(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFn> &&
                  std::is_invocable_r_v<void, D &>>>
    SmallFn(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    void
    operator()()
    {
        _ops->invoke(_buf);
    }

    /**
     * Replace the held callable with @p f, built directly in this
     * object's storage: no temporary SmallFn and no relocation. An
     * rvalue SmallFn is moved in as usual.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<D, SmallFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "SmallFn is move-only");
            moveFrom(f);
        } else {
            static_assert(std::is_invocable_r_v<void, D &>,
                          "callable must be invocable as void()");
            construct<D>(std::forward<F>(f));
        }
    }

    /** Destroy the held callable (and release everything it captured). */
    void
    reset() noexcept
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *buf);
        /** Move the callable from src's buffer into dst's, destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *buf) noexcept;
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= Bytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *buf) { (*std::launder(reinterpret_cast<D *>(buf)))(); },
        [](void *src, void *dst) noexcept {
            D *from = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *buf) noexcept {
            std::launder(reinterpret_cast<D *>(buf))->~D();
        },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *buf) { (**reinterpret_cast<D **>(buf))(); },
        [](void *src, void *dst) noexcept {
            *reinterpret_cast<D **>(dst) = *reinterpret_cast<D **>(src);
        },
        [](void *buf) noexcept { delete *reinterpret_cast<D **>(buf); },
    };

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            _ops = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(_buf) = new D(std::forward<F>(f));
            _ops = &heapOps<D>;
        }
    }

    void
    moveFrom(SmallFn &other) noexcept
    {
        if (other._ops) {
            other._ops->relocate(other._buf, _buf);
            _ops = other._ops;
            other._ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[Bytes];
    const Ops *_ops = nullptr;
};

template <std::size_t Bytes>
inline bool
operator==(const SmallFn<Bytes> &f, std::nullptr_t) noexcept
{
    return !static_cast<bool>(f);
}

template <std::size_t Bytes>
inline bool
operator!=(const SmallFn<Bytes> &f, std::nullptr_t) noexcept
{
    return static_cast<bool>(f);
}

/**
 * The kernel's event closure type. 64 bytes of inline storage covers
 * every closure the simulation layers schedule today (largest: the C1
 * master's completion hop — an object pointer, a transaction, a
 * std::function continuation and a tick).
 */
using EventCallback = SmallFn<64>;

} // namespace tf::sim

#endif // TF_SIM_CALLBACK_HH
