/**
 * @file
 * EventCallback: the event queue's fixed-capacity, small-buffer callable.
 *
 * Every event callback in the simulator is stored directly inside its slab
 * record (see event_queue.h) instead of behind a heap-allocated
 * std::function, so scheduling an event performs zero allocations. The
 * trade-off is a hard capture budget: a lambda whose captures exceed
 * kEventCallbackCapacity fails to compile (static_assert) rather than
 * silently spilling to the heap. Oversized cold-path captures should move
 * their bulk behind a shared_ptr (the chaos campaign wiring does this).
 */
#ifndef AEO_SIM_EVENT_CALLBACK_H_
#define AEO_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace aeo {

/**
 * Capture budget, bytes. Sized so that a std::function<void()> (the
 * Clock seam hands one through) and every kernel/device/chaos
 * lambda in the tree fit; the dominant hot-path captures (PeriodicTask's
 * [this], Device boundary events) are a single pointer.
 */
inline constexpr size_t kEventCallbackCapacity = 112;

/** Move-only inplace `void()` callable with a fixed capture budget. */
class EventCallback {
  public:
    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    // NOLINTNEXTLINE(bugprone-forwarding-reference-overload)
    EventCallback(F&& fn)  // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kEventCallbackCapacity,
                      "event callback captures exceed kEventCallbackCapacity; "
                      "move the bulk behind a shared_ptr");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event callback capture");
        // Moves happen at arm time and one-shot dispatch only. A capture
        // whose move degrades to a copy (e.g. a const std::string member)
        // is tolerated: its copy can only throw on OOM, which terminates
        // under the noexcept move path — the repo's panic policy anyway.
        static_assert(std::is_move_constructible_v<Fn>,
                      "event callback captures must be movable");
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
        invoke_ = [](void* storage) { (*static_cast<Fn*>(storage))(); };
        // A trivially copyable capture (the hot [this] lambdas) moves as its
        // bytes and needs no destructor, so it keeps manage_ null.
        if constexpr (!std::is_trivially_copyable_v<Fn>) {
            manage_ = [](void* dst, void* src) {
                if (src != nullptr) {
                    Fn* from = static_cast<Fn*>(src);
                    ::new (dst) Fn(std::move(*from));
                    from->~Fn();
                } else {
                    static_cast<Fn*>(dst)->~Fn();
                }
            };
        }
    }

    EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

    EventCallback&
    operator=(EventCallback&& other) noexcept
    {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback&) = delete;
    EventCallback& operator=(const EventCallback&) = delete;

    ~EventCallback() { Reset(); }

    /** Invokes the stored callable; undefined when empty. */
    void operator()() { invoke_(storage_); }

    /** True when a callable is stored. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Destroys the stored callable (no-op when empty). */
    void
    Reset()
    {
        if (manage_ != nullptr) {
            manage_(storage_, nullptr);
        }
        invoke_ = nullptr;
        manage_ = nullptr;
    }

  private:
    using InvokeFn = void (*)(void*);
    /** src != nullptr: move-construct dst from src and destroy src;
     * src == nullptr: destroy dst. Null for a trivially copyable callable. */
    using ManageFn = void (*)(void* dst, void* src);

    void
    MoveFrom(EventCallback& other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (manage_ != nullptr) {
            manage_(storage_, other.storage_);
        } else if (invoke_ != nullptr) {
            std::memcpy(storage_, other.storage_, sizeof(storage_));
        }
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[kEventCallbackCapacity];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

}  // namespace aeo

#endif  // AEO_SIM_EVENT_CALLBACK_H_
