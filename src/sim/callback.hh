/**
 * @file
 * Small-buffer callback types for the simulator's hot paths.
 *
 * Every scheduled event carries a closure, and every remote memory
 * transaction carries a completion. With std::function the typical
 * simulation capture (an object pointer plus a shared payload and a
 * tick or epoch) exceeds the library's tiny inline buffer and costs
 * one heap allocation per event or transaction — millions per
 * benchmark run. InlineFn widens the inline buffer so those closures
 * stay allocation-free, and keeps a heap fallback so oversized
 * captures (app-level request closures) still work.
 *
 * Semantics: move-only and nullable, for any signature. Move-only is
 * deliberate — a scheduled closure or a completion has exactly one
 * owner (the event slot, the transaction), and copyability would
 * force captured types to be copyable. Callables must be
 * nothrow-move-constructible to live inline; others fall back to the
 * heap. An InlineFn captured by another InlineFn of the same size can
 * never fit inline, so continuations chain through connected sinks
 * instead of wrapping each other.
 */

#ifndef TF_SIM_CALLBACK_HH
#define TF_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tf::sim {

template <typename Sig, std::size_t Bytes>
class InlineFn;

/** Move-only `R(Args...)` callable with @p Bytes of inline storage. */
template <typename R, typename... Args, std::size_t Bytes>
class InlineFn<R(Args...), Bytes>
{
    template <typename D>
    static constexpr bool accepts =
        !std::is_same_v<D, InlineFn> &&
        std::is_invocable_r_v<R, D &, Args...>;

  public:
    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<accepts<D>>>
    InlineFn(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    /** Assign a callable, built in place (see emplace()). */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<accepts<D>>>
    InlineFn &
    operator=(F &&f)
    {
        emplace(std::forward<F>(f));
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    R
    operator()(Args... args)
    {
        return _ops->invoke(_buf, std::forward<Args>(args)...);
    }

    /**
     * Replace the held callable with @p f, built directly in this
     * object's storage: no temporary InlineFn and no relocation. An
     * rvalue InlineFn is moved in as usual.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<D, InlineFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFn is move-only");
            moveFrom(f);
        } else {
            static_assert(std::is_invocable_r_v<R, D &, Args...>,
                          "callable does not match the signature");
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

    /** True when a callable of type @p D is held without the heap. */
    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= Bytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *buf, Args &&...args);
        /** Move the callable from src's buffer into dst's, destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *buf) noexcept;
    };

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *buf, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<D *>(buf)))(
                std::forward<Args>(args)...);
        },
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
        [](void *buf, Args &&...args) -> R {
            return (**reinterpret_cast<D **>(buf))(
                std::forward<Args>(args)...);
        },
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
    moveFrom(InlineFn &other) noexcept
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

template <typename Sig, std::size_t Bytes>
inline bool
operator==(const InlineFn<Sig, Bytes> &f, std::nullptr_t) noexcept
{
    return !static_cast<bool>(f);
}

/** Move-only `void()` callable with @p Bytes of inline storage. */
template <std::size_t Bytes>
using SmallFn = InlineFn<void(), Bytes>;

/**
 * The kernel's event closure type. 64 bytes of inline storage covers
 * every closure the simulation layers schedule today (largest: the
 * DRAM completion hop — an object pointer, a transaction handle and
 * a 48-byte Dram::DoneFn continuation).
 */
using EventCallback = SmallFn<64>;

} // namespace tf::sim

#endif // TF_SIM_CALLBACK_HH
